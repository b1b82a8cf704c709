"""Synthetic fixtures shared by the test suite and the example scripts.

Everything is deterministic in a single base seed via labeled sub-seeds,
so fixtures can be regenerated anywhere without shipping data files.
"""

from __future__ import annotations

import numpy as np

from .mel import (
    DEFAULT_MEL,
    AudioBuffer,
    FeatureSequence,
    MelConfig,
    compute_mel,
    stack_frames,
)
from .metrics import EvalRecord
from .seeding import make_rng


def make_sine_noise_audio(
    duration_s: float = 1.0,
    sample_rate: int = 16000,
    seed: int = 0,
    n_tones: int = 3,
    noise_level: float = 0.05,
) -> AudioBuffer:
    """Sum of random sinusoids plus white noise, peak-normalized to 0.9."""
    rng = make_rng(seed, "sine-noise")
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    x = np.zeros(n)
    for _ in range(n_tones):
        freq = rng.uniform(80.0, 4000.0)
        amp = rng.uniform(0.2, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x += amp * np.sin(2.0 * np.pi * freq * t + phase)
    x += noise_level * rng.standard_normal(n)
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= 0.9 / peak
    return AudioBuffer(samples=x, sample_rate=sample_rate)


def make_feature_corpus(
    n_clips: int = 20,
    clip_seconds: float = 8.0,
    seed: int = 0,
    mel_cfg: MelConfig = DEFAULT_MEL,
    stack_factor: int = 8,
) -> list[FeatureSequence]:
    """Stacked-mel sequences from independent sine+noise clips."""
    corpus = []
    for i in range(n_clips):
        audio = make_sine_noise_audio(
            duration_s=clip_seconds,
            sample_rate=mel_cfg.sample_rate,
            seed=seed * 100003 + i,
            n_tones=2 + i % 4,
        )
        mel = compute_mel(audio, mel_cfg)
        corpus.append(stack_frames(mel, stack_factor))
    return corpus


def make_cluster_vectors(
    n: int,
    dim: int,
    n_clusters: int,
    spread: float = 0.05,
    seed: int = 0,
    center_scale: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Well-separated Gaussian blobs: (points, labels, centers).

    Centers are drawn uniform in [-center_scale, center_scale]^dim and
    redrawn until pairwise distances exceed 10x spread, so nearest-center
    assignment recovers the labels.
    """
    rng = make_rng(seed, "clusters")
    for _ in range(100):
        centers = rng.uniform(-center_scale, center_scale, size=(n_clusters, dim))
        diff = centers[:, None, :] - centers[None, :, :]
        dist = np.sqrt(np.sum(diff * diff, axis=2))
        np.fill_diagonal(dist, np.inf)
        if dist.min() > 10.0 * spread:
            break
    labels = rng.integers(0, n_clusters, size=n)
    points = centers[labels] + spread * rng.standard_normal((n, dim))
    return points, labels, centers


def make_token_frames(n_frames: int, layer_sizes, seed: int = 0) -> np.ndarray:
    """Random (n_frames, L) indices, drawn frame by frame; never the EOA value."""
    rng = make_rng(seed, "frames")
    sizes = np.asarray(layer_sizes, dtype=np.int64)
    return rng.integers(0, sizes, size=(n_frames, sizes.size))


def make_oracle_eval_records(
    n_records: int, n_candidates: int = 2, seed: int = 0
) -> list[EvalRecord]:
    """Records where the positive candidate has the strictly lowest mean id.

    Positive tokens come from [0, 10), negatives from [20, 30), so any
    scorer ranking by mean id gets them all right.
    """
    rng = make_rng(seed, "oracle-eval")
    records = []
    for _ in range(n_records):
        pos_idx = int(rng.integers(0, n_candidates))
        candidates = []
        for c in range(n_candidates):
            length = int(rng.integers(3, 9))
            lo, hi = (0, 10) if c == pos_idx else (20, 30)
            candidates.append(tuple(int(rng.integers(lo, hi)) for _ in range(length)))
        records.append(
            EvalRecord(
                prefix=tuple(int(rng.integers(0, 30)) for _ in range(4)),
                candidates=tuple(candidates),
                positive_index=pos_idx,
            )
        )
    return records


def make_random_eval_records(
    n_records: int, n_candidates: int = 2, seed: int = 0
) -> list[EvalRecord]:
    """Records with distinct random candidates; no scorer can beat chance."""
    rng = make_rng(seed, "random-eval")
    records = []
    for _ in range(n_records):
        seen: set[tuple[int, ...]] = set()
        candidates = []
        while len(candidates) < n_candidates:
            length = int(rng.integers(3, 9))
            cand = tuple(int(rng.integers(0, 100)) for _ in range(length))
            if cand not in seen:  # identical candidates would tie
                seen.add(cand)
                candidates.append(cand)
        records.append(
            EvalRecord(
                prefix=tuple(int(rng.integers(0, 100)) for _ in range(4)),
                candidates=tuple(candidates),
                positive_index=int(rng.integers(0, n_candidates)),
            )
        )
    return records


def make_bigram_world(
    vocab_size: int = 16,
    n_train: int = 200,
    n_records: int = 50,
    seed: int = 0,
) -> tuple[list[list[int]], list[EvalRecord]]:
    """A cyclic-chain corpus plus eval records whose positives follow it.

    Training sequences walk the cycle i -> (i + 1) mod V from random
    starts. Positive candidates continue the prefix along the cycle;
    negatives are uniform random, so their transitions are unseen.
    """
    rng = make_rng(seed, "bigram-world")
    corpus = []
    for _ in range(n_train):
        start = int(rng.integers(0, vocab_size))
        length = int(rng.integers(5, 15))
        corpus.append([(start + j) % vocab_size for j in range(length)])

    records = []
    for _ in range(n_records):
        start = int(rng.integers(0, vocab_size))
        prefix = tuple((start + j) % vocab_size for j in range(3))
        length = int(rng.integers(4, 8))
        positive = tuple((start + 3 + j) % vocab_size for j in range(length))
        negative = tuple(int(rng.integers(0, vocab_size)) for _ in range(length))
        if negative == positive:
            negative = tuple((t + 1) % vocab_size for t in negative)
        pos_idx = int(rng.integers(0, 2))
        candidates = (positive, negative) if pos_idx == 0 else (negative, positive)
        records.append(
            EvalRecord(prefix=prefix, candidates=candidates, positive_index=pos_idx)
        )
    return corpus, records
