"""Mel-spectrogram frontend and reconstruction losses.

PCM audio is turned into log-mel frames, which are then stacked in
groups to reach the tokenizer frame rate (100 fps mel stacked by 8
gives 12.5 vectors per second). One kernel, ``mel_blocks``, computes
the frames a bounded block at a time from any ``SampleSource``, so a
file of any length is analysed in bounded memory, and an in-memory
buffer gives bit-identical frames. The loss functions operate on mel
matrices: per-reconstruction mean-L1 plus mean-L2, summed over
reconstructions and, for the multi-scale variant, over analysis
configurations with different hop/window sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import EmptyInput, InvalidConfig, InvalidSample, ShapeMismatch
from .parallel import ordered_blocks


@dataclass(frozen=True)
class AudioBuffer:
    """Mono PCM audio. Samples are float amplitudes, nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise InvalidConfig(f"sample_rate must be positive, got {self.sample_rate}")
        if samples.ndim != 1:
            raise InvalidSample(f"expected mono 1-D audio, got shape {samples.shape}")
        if samples.size and not np.isfinite(samples).all():
            raise InvalidSample("audio contains non-finite samples")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class MelConfig:
    """STFT + mel filterbank settings.

    ``center=True`` reflect-pads the signal so frame t is centered on
    sample t*hop and T = ceil(len/hop); without padding the analysis
    stays inside the signal and T = floor((len - n_fft)/hop) + 1.
    """

    n_fft: int = 400
    hop: int = 160
    n_mels: int = 80
    sample_rate: int = 16000
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = 1e-10
    center: bool = True

    def __post_init__(self):
        if not 0 < self.hop <= self.n_fft:
            raise InvalidConfig(f"need 0 < hop <= n_fft, got hop={self.hop} n_fft={self.n_fft}")
        if not 0 <= self.fmin < self.fmax <= self.sample_rate / 2:
            raise InvalidConfig(
                f"need 0 <= fmin < fmax <= nyquist, got fmin={self.fmin} "
                f"fmax={self.fmax} sr={self.sample_rate}"
            )
        if self.log_floor <= 0:
            raise InvalidConfig("log_floor must be positive")
        if self.n_mels <= 0:
            raise InvalidConfig("n_mels must be positive")

    @property
    def frame_rate(self) -> float:
        return self.sample_rate / self.hop

    @property
    def config_id(self) -> str:
        return (
            f"sr{self.sample_rate}_fft{self.n_fft}_hop{self.hop}_mel{self.n_mels}"
            f"_f{self.fmin:g}-{self.fmax:g}_floor{self.log_floor:g}"
            f"_{'c' if self.center else 'n'}"
        )


# Whisper-style defaults: 16 kHz, 25 ms window, 10 ms hop, 80 bands.
DEFAULT_MEL = MelConfig()

# Two analysis scales for the multi-scale loss; configurable.
MULTISCALE_DEFAULTS = (
    MelConfig(n_fft=1024, hop=256),
    MelConfig(n_fft=512, hop=128),
)


@dataclass(frozen=True)
class MelSpectrogram:
    """T x M matrix of log-mel energies with provenance metadata."""

    frames: np.ndarray
    n_mels: int
    frame_rate: float
    config_id: str

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        object.__setattr__(self, "frames", frames)
        if frames.ndim != 2 or frames.shape[1] != self.n_mels:
            raise ShapeMismatch(f"frames must be T x {self.n_mels}, got {frames.shape}")
        if frames.size and not np.isfinite(frames).all():
            raise InvalidSample("mel frames contain non-finite entries")
        if self.frame_rate <= 0:
            raise InvalidConfig("frame_rate must be positive")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class FeatureSequence:
    """Stacked mel frames: T' x D vectors with D = n_mels * stack_factor."""

    vectors: np.ndarray
    frame_rate: float
    stack_factor: int

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        object.__setattr__(self, "vectors", vectors)
        if vectors.ndim != 2:
            raise ShapeMismatch(f"vectors must be 2-D, got shape {vectors.shape}")
        if self.stack_factor < 1:
            raise InvalidConfig("stack_factor must be >= 1")

    @property
    def n_vectors(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: MelConfig) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, n_fft//2 + 1), unit peaks."""
    n_freqs = cfg.n_fft // 2 + 1
    freqs = np.linspace(0.0, cfg.sample_rate / 2.0, n_freqs)
    mel_pts = np.linspace(_hz_to_mel(cfg.fmin), _hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz_pts = _mel_to_hz(mel_pts)

    fb = np.zeros((cfg.n_mels, n_freqs))
    for m in range(cfg.n_mels):
        lo, ctr, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        up = (freqs - lo) / max(ctr - lo, 1e-12)
        down = (hi - freqs) / max(hi - ctr, 1e-12)
        fb[m] = np.clip(np.minimum(up, down), 0.0, None)
    return fb


# Mel frames per block of mel_blocks, rounded to a multiple of the stack
# factor: 1.6 MB of frames and 1.6 MB of complex spectrum per block.
_MEL_BLOCK = 512


class SampleSource(NamedTuple):
    """Mono audio read by sample range: ``read(start, stop)`` returns
    samples [start, stop) as float64, for 0 <= start <= stop <= n_samples."""

    n_samples: int
    sample_rate: int
    read: Callable[[int, int], np.ndarray]


def _finite(samples: np.ndarray) -> np.ndarray:
    if not np.isfinite(samples).all():
        raise InvalidSample("audio contains non-finite samples")
    return samples


def _log_mel(signal: np.ndarray, n_frames: int, cfg: MelConfig, fb: np.ndarray) -> np.ndarray:
    """Log-mel of the n_frames frames at hop spacing from signal[0]."""
    idx = np.arange(cfg.n_fft)[None, :] + cfg.hop * np.arange(n_frames)[:, None]
    # Periodic Hann window.
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft)
    spectrum = np.fft.rfft(signal[idx] * window, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    log_mel = np.log(np.maximum(power @ fb, cfg.log_floor))
    if not np.isfinite(log_mel).all():
        raise InvalidSample("mel frames contain non-finite entries")
    return log_mel


def mel_blocks(
    source: SampleSource, cfg: MelConfig = DEFAULT_MEL, stack_factor: int = 1, threads: int = 1
) -> tuple[int, Iterator[np.ndarray]]:
    """The mel frame count T of ``source`` and an iterator over its log-mel
    frames, in order, as (rows, n_mels) blocks that start at multiples of
    ``stack_factor``.

    Entries are log(max(mel_energy, log_floor)). The input is checked
    before this returns; samples and frames are checked for finiteness
    block by block as the iterator reads them. The signal is read in
    ranges that overlap by n_fft - hop samples, and a frame past either
    end reflects about it as often as ``np.pad`` does (a one-sample
    signal repeats its sample). Every block has the same row count, and
    a signal of at most one block is one block, so each frame is
    bit-identical to the whole-signal computation. T = 0 gives no block.
    The iterator reads and checks the samples in order in the calling
    thread; up to ``threads`` blocks (no more than the usable CPUs) are
    analysed at once, with the same frames at any ``threads``.
    """
    n = source.n_samples
    if n == 0:
        raise EmptyInput("cannot compute mel of empty audio")
    if source.sample_rate != cfg.sample_rate:
        raise InvalidConfig(
            f"audio is {source.sample_rate} Hz but cfg expects {cfg.sample_rate} Hz"
        )
    if stack_factor < 1:
        raise InvalidConfig(f"stack_factor must be >= 1, got {stack_factor}")
    if cfg.center:
        n_frames = -(-n // cfg.hop)  # ceil
    else:
        n_frames = max((n - cfg.n_fft) // cfg.hop + 1, 0)
    # BLAS takes a one-row product through its matrix-vector routine,
    # which rounds differently, so a block has at least two rows; a signal
    # of no more frames than that is one block (of one row at T = 0, since
    # a range needs a step).
    block = max(_MEL_BLOCK // stack_factor * stack_factor, stack_factor, 2)
    return n_frames, _blocks(source, cfg, n_frames, max(min(block, n_frames), 1), threads)


def _blocks(source: SampleSource, cfg: MelConfig, n_frames: int, block: int, threads: int):
    n = source.n_samples
    pad = cfg.n_fft // 2 if cfg.center else 0
    # C-ordered: OpenBLAS rounds a product with the transposed view
    # differently when it has fewer than about 16 rows
    fb = np.ascontiguousarray(mel_filterbank(cfg).T)
    period = max(2 * n - 2, 1)  # np.pad's reflection repeats every 2n - 2 samples

    def signals():
        for start in range(0, n_frames, block):
            first = min(start, n_frames - block)  # the last block ends at frame T
            j = np.arange(first * cfg.hop, (first + block - 1) * cfg.hop + cfg.n_fft) - pad
            j = np.abs(j) % period  # reflect about the first sample
            j = np.where(j < n, j, period - j)  # and about the last
            lo = int(j.min())
            samples = _finite(source.read(lo, int(j.max()) + 1))
            yield samples, j - lo, start - first

    def log_mel(samples, idx, skip):
        return _log_mel(samples[idx], block, cfg, fb)[skip:]

    yield from ordered_blocks(log_mel, signals(), threads)


def compute_mel(audio: AudioBuffer, cfg: MelConfig = DEFAULT_MEL) -> MelSpectrogram:
    """Log-mel spectrogram of ``audio`` under ``cfg``, through ``mel_blocks``.

    Deterministic: the same (audio, cfg) pair always produces
    bit-identical frames.
    """
    x = audio.samples
    _, blocks = mel_blocks(SampleSource(len(x), audio.sample_rate, lambda a, b: x[a:b]), cfg)
    return MelSpectrogram(
        frames=np.concatenate([np.empty((0, cfg.n_mels)), *blocks]),
        n_mels=cfg.n_mels,
        frame_rate=cfg.frame_rate,
        config_id=cfg.config_id,
    )


def stack_frames(mel: MelSpectrogram, stack_factor: int) -> FeatureSequence:
    """Concatenate consecutive groups of ``stack_factor`` mel frames.

    Vector t is frames [t*s, t*s + s) laid out frame-major; a trailing
    partial group is dropped rather than zero-padded.
    """
    if stack_factor < 1:
        raise InvalidConfig(f"stack_factor must be >= 1, got {stack_factor}")
    s = stack_factor
    n_out = mel.n_frames // s
    vectors = mel.frames[: n_out * s].reshape(n_out, s * mel.n_mels)
    return FeatureSequence(
        vectors=vectors.copy(),
        frame_rate=mel.frame_rate / s,
        stack_factor=s,
    )


def _check_same_grid(gt: MelSpectrogram, other: MelSpectrogram):
    if gt.frames.shape != other.frames.shape:
        raise ShapeMismatch(
            f"mel shapes differ: {gt.frames.shape} vs {other.frames.shape}"
        )
    if gt.config_id != other.config_id:
        raise ShapeMismatch(
            f"mel configs differ: {gt.config_id!r} vs {other.config_id!r}"
        )


def reconstruction_loss(gt: MelSpectrogram, recons: list[MelSpectrogram]) -> float:
    """Sum over reconstructions of mean-L1 plus mean-L2 against ``gt``.

    With recons = [coarse, refined] this is the standard two-term
    combined reconstruction objective. Means (not sums) keep the value
    independent of frame count, which makes multi-scale sums comparable.
    """
    if len(recons) == 0:
        raise EmptyInput("need at least one reconstruction")
    total = 0.0
    for r in recons:
        _check_same_grid(gt, r)
        diff = gt.frames - r.frames
        total += float(np.mean(np.abs(diff)) + np.mean(diff**2))
    return total


def multiscale_mel_loss(
    gt_audio: AudioBuffer,
    recon_audio: AudioBuffer,
    scales: list[MelConfig] | None = None,
) -> float:
    """Reconstruction loss summed over several mel analysis scales."""
    if scales is None:
        scales = list(MULTISCALE_DEFAULTS)
    if len(scales) == 0:
        raise EmptyInput("need at least one scale")
    if len(gt_audio.samples) != len(recon_audio.samples):
        raise ShapeMismatch(
            f"audio lengths differ: {len(gt_audio.samples)} vs {len(recon_audio.samples)}"
        )
    if gt_audio.sample_rate != recon_audio.sample_rate:
        raise ShapeMismatch("sample rates differ")
    total = 0.0
    for scale in scales:
        total += reconstruction_loss(
            compute_mel(gt_audio, scale), [compute_mel(recon_audio, scale)]
        )
    return total


def mel_mae(gt: MelSpectrogram, recon: MelSpectrogram) -> float:
    """Mean absolute difference over all cells."""
    if gt.frames.shape != recon.frames.shape:
        raise ShapeMismatch(
            f"mel shapes differ: {gt.frames.shape} vs {recon.frames.shape}"
        )
    return float(np.mean(np.abs(gt.frames - recon.frames)))
