"""Headline guarantees for the toolkit, one verdict line per criterion.

Each test pins one end-to-end contract: a quality trend, a statistical
law, a closed form, a codec identity, or a byte-determinism guarantee.
Tolerances are pinned inline next to the check they govern. Every test
prints a single "[criterion NN] PASS/FAIL" line (run pytest with -s to
see them stream); the heavier experiments also assert a wall-clock
budget measured on a cold run.
"""

from __future__ import annotations

import json
import time

import numpy as np
from scipy import stats as scipy_stats

from rvqtok.cli import main as cli_main
from rvqtok.fileformats import write_afv1, write_atk1
from rvqtok.mel import (
    DEFAULT_MEL,
    MULTISCALE_DEFAULTS,
    AudioBuffer,
    FeatureSequence,
    MelSpectrogram,
    compute_mel,
    mel_mae,
    multiscale_mel_loss,
    reconstruction_loss,
    stack_frames,
)
from rvqtok.metrics import (
    accuracy,
    codebook_utilization,
    perplexity_compare,
    token_entropy,
    wer,
)
from rvqtok.rvq import (
    Codebook,
    GumbelConfig,
    RvqStack,
    TrainingSchedule,
    commitment_loss,
    decode_frames,
    ema_update,
    encode_frames,
    init_rvq_stack,
    quantize,
    quantize_batch,
    total_loss,
    train_rvq,
)
from rvqtok.scorers import RandomScorer, perfect_scorer
from rvqtok.streams import (
    InterleavedStream,
    SegmentKind,
    SpecialTokens,
    audio_segment,
    build_loss_mask,
    deserialize,
    serialize,
    text_segment,
)
from rvqtok.synth import (
    make_cluster_vectors,
    make_feature_corpus,
    make_oracle_eval_records,
    make_random_eval_records,
    make_sine_noise_audio,
    make_token_frames,
)

# Replacement gate fully open: every step updates the codebooks.
GATE_OPEN = TrainingSchedule(replace_start=1.0, replace_end=1.0, total_steps=1)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


# 1. Reconstruction error must drop layer over layer, by a real margin.


def test_depth_trend_improves_reconstruction():
    t0 = time.monotonic()
    depths = (1, 4, 6, 8)
    chains = []
    min_rel = 1.0
    for seed in (0, 1, 2):
        corpus = make_feature_corpus(n_clips=20, clip_seconds=8.0, seed=seed)
        x = np.concatenate([s.vectors for s in corpus], axis=0)
        assert x.shape[0] >= 2000  # the sweep needs a real corpus
        full = FeatureSequence(vectors=x, frame_rate=12.5, stack_factor=8)
        # ema_decay=0 turns each gated step into a full-batch mean update,
        # so 12 epochs over one big sequence behave like Lloyd iterations
        stack = init_rvq_stack([64] * 8, x, ema_decay=0.0, seed=seed)
        trained, _ = train_rvq(
            stack,
            [full],
            GATE_OPEN,
            epochs=12,
            mode="paper_literal",
            dead_threshold=3,
            restart=True,
            seed=seed,
        )
        maes = []
        for depth in depths:
            sub = RvqStack(trained.layers[:depth])
            recon = decode_frames(sub, encode_frames(sub, x))
            maes.append(float(np.mean(np.abs(x - recon))))
        rels = [(a - b) / a for a, b in zip(maes, maes[1:])]
        min_rel = min(min_rel, min(rels))
        chains.append(" > ".join(f"{m:.3f}" for m in maes))
    elapsed = time.monotonic() - t0
    ok = min_rel >= 0.05 and elapsed <= 120.0
    _verdict(
        1,
        ok,
        f"decode MAE over layers {depths}: {' | '.join(chains)} (seeds 0..2), "
        f"worst step improvement {100.0 * min_rel:.1f}% (need >= 5%), "
        f"{elapsed:.1f}s (budget 120s)",
    )


# 2. The EMA update must equal its closed form, both modes.


def test_ema_update_matches_closed_form():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240816)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(1, 5))
        alpha = float(rng.uniform(0.0, 1.0))
        beta = float(rng.uniform(0.0, 0.95))
        vectors = rng.normal(size=(k, d))
        assignments = {}
        for j in range(k):
            n = int(rng.integers(0, 4))
            if n:
                assignments[j] = rng.normal(size=(n, d))
        for mode in ("paper_literal", "standard_ema"):
            book = Codebook(vectors=vectors.copy(), ema_decay=alpha, norm_beta=beta)
            updated = ema_update(book, assignments, mode=mode)
            for j in range(k):
                rows = assignments.get(j)
                for col in range(d):
                    c = float(vectors[j, col])
                    if rows is None:
                        want = alpha * c * (1.0 - beta)
                    else:
                        m = sum(float(v[col]) for v in rows) / len(rows)
                        inc = m if mode == "paper_literal" else (1.0 - alpha) * m
                        want = (alpha * c + inc) * (1.0 - beta)
                    worst = max(worst, abs(float(updated.vectors[j, col]) - want))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed <= 5.0
    _verdict(
        2,
        ok,
        f"10^3 random (alpha, beta, assignment) instances x both modes, "
        f"worst |delta| {worst:.2e} (tol 1e-9), {elapsed:.1f}s (budget 5s)",
    )


# 3. Stochastic selection: exact argmin at vanishing temperature, and
#    the advertised softmax(-d^2/tau) law at a working temperature.


def test_gumbel_argmin_limit_and_sampling_law():
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    stack = RvqStack([Codebook(vectors=rng.normal(size=(32, 6)))])
    probes = rng.normal(size=(1000, 6))
    greedy, _ = quantize_batch(stack, probes)
    # 1e-37 overflows the largest scores in float32, 1e-40 is subnormal
    # there and 1e-46 rounds to 0; every one is the argmin limit
    tiny_taus = (1e-6, 1e-37, 1e-40, 1e-46)
    exact = all(
        np.array_equal(
            quantize_batch(
                stack, probes, GumbelConfig(temperature=tau, enabled=True, seed=7)
            )[0],
            greedy,
        )
        for tau in tiny_taus
    )

    # axis-aligned codewords at known radii make the target law explicit:
    # from the origin, d^2 for entry k is radii[k]^2
    radii = np.array([0.3, 0.5, 0.7, 0.9, 1.1, 1.3])
    law_stack = RvqStack([Codebook(vectors=np.eye(6) * radii[:, None])])
    tau = 0.5
    draws = 100_000
    idx, _ = quantize_batch(
        law_stack,
        np.zeros((draws, 6)),
        GumbelConfig(temperature=tau, enabled=True, seed=11),
    )
    counts = np.bincount(idx[:, 0], minlength=6)
    logits = -(radii**2) / tau
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    chi2, pval = scipy_stats.chisquare(counts, probs * draws)
    elapsed = time.monotonic() - t0
    ok = exact and pval > 0.01 and elapsed <= 30.0
    _verdict(
        3,
        ok,
        f"tau in {tiny_taus} equals argmin on 10^3 vectors: {exact}; chi-square vs "
        f"softmax(-d^2/{tau}) over 10^5 draws: stat {chi2:.2f}, p {pval:.3f} "
        f"(need > 0.01, min expected count {probs.min() * draws:.0f}), "
        f"{elapsed:.1f}s (budget 30s)",
    )


# 4. Dead-entry restart must rescue a fully collapsed codebook.


def _collapsed_run(restart: bool, seed: int) -> float:
    points, labels, _ = make_cluster_vectors(800, 12, 16, spread=0.05, seed=0)
    bad = np.tile(points[labels == 0][0], (16, 1))  # every codeword identical
    rng = np.random.default_rng(1000 + seed)
    corpus = [
        FeatureSequence(
            vectors=points[rng.integers(0, 800, size=128)],
            frame_rate=12.5,
            stack_factor=1,
        )
        for _ in range(50)
    ]
    stack = RvqStack([Codebook(vectors=bad.copy(), ema_decay=0.95)])
    trained, _ = train_rvq(
        stack,
        corpus,
        GATE_OPEN,
        epochs=1,
        mode="standard_ema",
        dead_threshold=5,
        restart=restart,
        seed=seed,
    )
    return codebook_utilization(encode_frames(trained, points), 0, 16)


def test_restart_revives_collapsed_codebook():
    t0 = time.monotonic()
    with_restart = [_collapsed_run(True, s) for s in (0, 1, 2)]
    without = [_collapsed_run(False, s) for s in (0, 1, 2)]
    elapsed = time.monotonic() - t0
    ok = min(with_restart) >= 0.90 and max(without) < 0.50 and elapsed <= 30.0
    _verdict(
        4,
        ok,
        f"16 clusters, adversarial init, 50 steps: utilization with restart "
        f"{[f'{u:.2f}' for u in with_restart]} (need >= 0.90), without "
        f"{[f'{u:.2f}' for u in without]} (need < 0.50), "
        f"{elapsed:.1f}s (budget 30s)",
    )


# 5. The norm constraint should concentrate token usage (lower entropy)
#    and keep codeword norms bounded over long runs.


def _offset_zipf_data(seed: int) -> np.ndarray:
    # rare-tail cluster weights on centers pushed away from the origin,
    # so shrinking codewords toward zero has a visible assignment cost
    _, _, centers = make_cluster_vectors(2000, 8, 32, spread=0.15, seed=seed)
    centers = centers * 0.3 + 2.0
    weights = 1.0 / np.arange(1, 33)
    weights /= weights.sum()
    rng = np.random.default_rng(9000 + seed)
    labels = rng.choice(32, size=2000, p=weights)
    return centers[labels] + 0.05 * rng.standard_normal((2000, 8))


def _ema_run(x, beta, steps, seed, mode, track_norms=False):
    rng = np.random.default_rng(seed)
    book = Codebook(
        vectors=x[rng.choice(x.shape[0], size=32, replace=False)].copy(),
        ema_decay=0.95,
        norm_beta=beta,
    )
    peak = 0.0
    for _ in range(steps):
        batch = x[rng.integers(0, x.shape[0], size=128)]
        idx, _ = quantize_batch(RvqStack([book]), batch)
        col = idx[:, 0]
        grouped = {int(j): batch[col == j] for j in np.unique(col)}
        book = ema_update(book, grouped, mode=mode)
        if track_norms:
            peak = max(peak, float(np.sqrt((book.vectors**2).sum(axis=1)).max()))
    return book, peak


def test_norm_constraint_concentrates_and_stays_bounded():
    gaps = []
    for seed in (0, 1, 2):
        x = _offset_zipf_data(seed)
        constrained, _ = _ema_run(x, 0.05, 400, seed, "standard_ema")
        free, _ = _ema_run(x, 0.0, 400, seed, "standard_ema")
        e_with = token_entropy(encode_frames(RvqStack([constrained]), x), 0)
        e_without = token_entropy(encode_frames(RvqStack([free]), x), 0)
        gaps.append(e_without - e_with)

    x0 = _offset_zipf_data(0)
    bound = 10.0 * float(np.sqrt((x0**2).sum(axis=1)).max())
    peaks = [
        _ema_run(x0, 0.05, 10_000, 42, mode, track_norms=True)[1]
        for mode in ("paper_literal", "standard_ema")
    ]
    ok = min(gaps) >= 0.0 and all(np.isfinite(p) and p < bound for p in peaks)
    _verdict(
        5,
        ok,
        f"entropy(beta=0) - entropy(beta=0.05) = "
        f"{[f'{g:.2f}' for g in gaps]} nats on matched seeds (need >= 0); "
        f"peak codeword norm over 10^4 steps {max(peaks):.2f} < bound {bound:.1f} "
        f"(10x max input norm), both modes",
    )


# 6. Loss and metric functions against brute-force recomputation.


def _full_matrix_edit(ref, hyp) -> int:
    n, m = len(ref), len(hyp)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table[n][m]


def _grid(frames, m):
    return MelSpectrogram(frames=frames, n_mels=m, frame_rate=100.0, config_id="grid")


def test_loss_functions_match_brute_force():
    rng = np.random.default_rng(606)
    worst = 0.0

    def bump(got, want):
        nonlocal worst
        worst = max(worst, abs(got - want))

    for _ in range(100):
        t, m = int(rng.integers(2, 9)), int(rng.integers(2, 7))
        gt = _grid(rng.normal(size=(t, m)), m)
        recons = [
            _grid(gt.frames + rng.normal(size=(t, m)), m)
            for _ in range(int(rng.integers(1, 4)))
        ]
        want = 0.0
        for r in recons:
            cells = [
                float(gt.frames[i, j]) - float(r.frames[i, j])
                for i in range(t)
                for j in range(m)
            ]
            want += sum(abs(c) for c in cells) / len(cells)
            want += sum(c * c for c in cells) / len(cells)
        bump(reconstruction_loss(gt, recons), want)
        cells = [
            abs(float(gt.frames[i, j]) - float(recons[0].frames[i, j]))
            for i in range(t)
            for j in range(m)
        ]
        bump(mel_mae(gt, recons[0]), sum(cells) / len(cells))
    same = _grid(rng.normal(size=(4, 3)), 3)
    assert reconstruction_loss(same, [same]) == 0.0
    assert mel_mae(same, same) == 0.0

    for _ in range(100):
        base = rng.normal(size=3200) * 0.1
        gt_a = AudioBuffer(samples=base, sample_rate=16000)
        rec_a = AudioBuffer(
            samples=base + rng.normal(size=3200) * 0.02, sample_rate=16000
        )
        want = 0.0
        for cfg in MULTISCALE_DEFAULTS:
            diff = compute_mel(gt_a, cfg).frames - compute_mel(rec_a, cfg).frames
            want += float(np.mean(np.abs(diff)) + np.mean(diff * diff))
        bump(multiscale_mel_loss(gt_a, rec_a), want)
    same_a = AudioBuffer(samples=base, sample_rate=16000)
    assert multiscale_mel_loss(same_a, same_a) == 0.0

    for _ in range(100):
        k, d = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        stack = RvqStack(
            [
                Codebook(vectors=rng.normal(size=(k, d))),
                Codebook(vectors=rng.normal(size=(k, d))),
            ]
        )
        x = rng.normal(size=d)
        res = quantize(stack, x)
        want = sum((float(x[i]) - float(res.quantized[i])) ** 2 for i in range(d))
        bump(commitment_loss(x, res), want)

        r, l, c = (float(v) for v in rng.uniform(0.0, 5.0, size=3))
        wr, wl, wc = (float(v) for v in rng.uniform(0.0, 2.0, size=3))
        bump(total_loss(r, l, c, wr, wl, wc), wr * r + wl * l + wc * c)
    assert total_loss(0.0, 0.0, 0.0, 1.0, 1.0, 0.25) == 0.0
    row = rng.normal(size=4)
    hit = quantize(RvqStack([Codebook(vectors=np.stack([row, row + 3.0]))]), row)
    assert commitment_loss(row, hit) == 0.0

    for _ in range(100):
        ref = [int(v) for v in rng.integers(0, 4, size=int(rng.integers(1, 13)))]
        hyp = [int(v) for v in rng.integers(0, 4, size=int(rng.integers(0, 13)))]
        bump(wer(ref, hyp), _full_matrix_edit(ref, hyp) / len(ref))
    assert wer([1, 2, 3], [1, 2, 3]) == 0.0

    ok = worst <= 1e-6
    _verdict(
        6,
        ok,
        f"reconstruction, multiscale, commitment, total, mel MAE, and WER vs "
        f"brute force on 100 instances each: worst |delta| {worst:.2e} "
        f"(tol 1e-6); identical inputs give exactly 0",
    )


# 7. Stream codec: serialize/deserialize identity across every format,
#    plus the masking rules on pinned fixtures.


SIZES7 = (8, 4, 4)
SPECIAL7 = SpecialTokens(switch_ta=900, switch_at=901)
TAGS7 = ("ASR", "AQA", "S2TT", "INTLV", "TTS", "ITTS", "PURE_AUDIO")


def _rand_segment(kind, rng):
    if kind is SegmentKind.TEXT:
        n = int(rng.integers(1, 5))
        return text_segment([int(t) for t in rng.integers(0, 80, size=n)])
    n = int(rng.integers(1, 5))
    return audio_segment(make_token_frames(n, SIZES7, seed=int(rng.integers(0, 2**31))))


def _rand_stream(tag, rng):
    T, A = SegmentKind.TEXT, SegmentKind.AUDIO
    if tag in ("ASR", "AQA", "S2TT"):
        kinds = [T, A, T]
    elif tag == "TTS":
        kinds = [T, A]
    elif tag == "PURE_AUDIO":
        kinds = [A]
    elif tag == "ITTS":
        kinds = [T, A] * int(rng.integers(1, 4))
    else:  # INTLV: strict alternation, either modality may lead
        n = int(rng.integers(2, 6))
        lead = T if rng.integers(0, 2) else A
        other = A if lead is T else T
        kinds = [lead if i % 2 == 0 else other for i in range(n)]
    return InterleavedStream(
        format_tag=tag, segments=tuple(_rand_segment(k, rng) for k in kinds)
    )


def test_stream_codec_round_trip_and_masks():
    rng = np.random.default_rng(707)
    n_round = 0
    for i in range(1000):
        tag = TAGS7[i % len(TAGS7)]
        stream = _rand_stream(tag, rng)
        for edge in (False, True):
            wire = serialize(stream, SPECIAL7, SIZES7, edge_switches=edge)
            back = deserialize(wire, tag, SPECIAL7, SIZES7, edge_switches=edge)
            assert back == stream
        assert len(build_loss_mask(stream)) == len(serialize(stream, SPECIAL7, SIZES7))
        n_round += 1

    a2 = audio_segment(make_token_frames(2, SIZES7, seed=1))
    a1 = audio_segment(make_token_frames(1, SIZES7, seed=2))
    t2 = text_segment([5, 6])
    t1 = text_segment([7])
    # expected flags hand-derived from the wire layouts:
    # audio runs close with one end-of-audio frame, interior switches
    # inherit the flag of the segment they open
    fixtures = [
        ("INTLV", (a2, t2, a1), [False] * 3 + [True] * 3 + [False] * 3),
        ("INTLV", (t1, a1, t2), [True, False, False, False, True, True, True]),
        ("ITTS", (t2, a1, t1, a2), [False, False] + [True] * 9),
        ("ASR", (t1, a1, t2), [False] * 4 + [True] * 3),
        ("TTS", (t2, a2), [False, False] + [True] * 4),
        ("PURE_AUDIO", (a2,), [True] * 3),
    ]
    for tag, segs, want in fixtures:
        stream = InterleavedStream(format_tag=tag, segments=segs)
        got = list(build_loss_mask(stream).flags)
        assert got == want, (tag, got, want)

    # INTLV sweep: every audio-owned position masked, every text-owned kept
    for lead in (SegmentKind.TEXT, SegmentKind.AUDIO):
        other = SegmentKind.AUDIO if lead is SegmentKind.TEXT else SegmentKind.TEXT
        for n in (2, 3, 4):
            segs = []
            for i in range(n):
                kind = lead if i % 2 == 0 else other
                if kind is SegmentKind.TEXT:
                    segs.append(text_segment(list(range(10, 11 + i % 2))))
                else:
                    segs.append(
                        audio_segment(make_token_frames(1 + i % 2, SIZES7, seed=i))
                    )
            flags = build_loss_mask(
                InterleavedStream(format_tag="INTLV", segments=tuple(segs))
            ).flags
            pos = 0
            for i, seg in enumerate(segs):
                extent = (1 if i else 0) + len(seg)
                if seg.kind is SegmentKind.AUDIO:
                    extent += 1  # the end-of-audio frame
                block = set(flags[pos : pos + extent])
                assert block == {seg.kind is SegmentKind.TEXT}, (lead, n, i)
                pos += extent
            assert pos == len(flags)

    # ITTS sweep: first text segment masked, everything after kept
    for pairs in (1, 2, 3):
        segs = []
        for p in range(pairs):
            segs.append(text_segment([20 + p, 21 + p]))
            segs.append(audio_segment(make_token_frames(1 + p % 2, SIZES7, seed=p)))
        flags = build_loss_mask(
            InterleavedStream(format_tag="ITTS", segments=tuple(segs))
        ).flags
        first = len(segs[0])
        assert set(flags[:first]) == {False}
        assert set(flags[first:]) == {True}

    _verdict(
        7,
        ok=True,
        detail=f"{n_round} property streams across {len(TAGS7)} formats round-trip "
        f"in both wire modes; masks match {len(fixtures)} pinned fixtures and "
        f"the INTLV/ITTS ownership sweeps",
    )


# 8. Default pipeline lands on the advertised 12.5 vectors per second.


def test_default_pipeline_frame_rate():
    audio = make_sine_noise_audio(duration_s=8.0, seed=4)
    seq = stack_frames(compute_mel(audio, DEFAULT_MEL), 8)
    measured = seq.n_vectors / audio.duration_s
    slack = 1.0 / audio.duration_s  # one output vector over the clip
    ok = seq.frame_rate == 12.5 and abs(measured - 12.5) <= slack
    _verdict(
        8,
        ok,
        f"8 s clip -> {seq.n_vectors} stacked vectors = {measured:.3f}/s "
        f"(nominal 12.5 +- {slack:.3f}), sequence frame_rate {seq.frame_rate}",
    )


# 9. Eval harness: the oracle is perfect, randomness is chance-level,
#    and the comparison only depends on NLL order.


def test_eval_harness_oracle_chance_and_invariance():
    oracle = make_oracle_eval_records(250, n_candidates=3, seed=9)
    perfect_acc = accuracy(oracle, perfect_scorer)

    records = make_random_eval_records(10_000, n_candidates=2, seed=9)
    chance = accuracy(records, RandomScorer(seed=5))
    sigma3 = 3.0 * (0.25 / 10_000) ** 0.5

    base = RandomScorer(seed=17)

    def affine(prefix, candidate):
        nll, n = base(prefix, candidate)
        return 3.0 * nll + 0.7 * n, n  # per-token NLL becomes 3u + 0.7

    def cubic(prefix, candidate):
        nll, n = base(prefix, candidate)
        u = nll / n
        return (u**3 + 2.0 * u) * n, n  # strictly increasing in u

    subset = records[:2000]
    want = [perplexity_compare(r, base) for r in subset]
    invariant = want == [perplexity_compare(r, affine) for r in subset] and want == [
        perplexity_compare(r, cubic) for r in subset
    ]
    ok = perfect_acc == 1.0 and abs(chance - 0.5) <= sigma3 and invariant
    _verdict(
        9,
        ok,
        f"oracle accuracy {perfect_acc:.3f} (need exactly 1.0); random scorer "
        f"{chance:.4f} on 10^4 binary records (need within 3 sigma = "
        f"{sigma3:.4f} of 0.5); outcomes identical under affine and cubic "
        f"monotone NLL transforms: {invariant}",
    )


# 10. The batch CLI must be byte-deterministic: same seed and inputs
#     give identical artifacts regardless of --threads.


def test_cli_outputs_byte_identical_across_threads(tmp_path):
    rng = np.random.default_rng(101)
    feats = []
    for i, rows in enumerate((30, 24, 36)):
        path = tmp_path / f"feat{i}.afv"
        write_afv1(path, rng.normal(size=(rows, 6)), 12.5)
        feats.append(path)
    train_manifest = tmp_path / "train.txt"
    train_manifest.write_text("".join(f"{p}\n" for p in feats))
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"layer_sizes": [8, 8], "dead_threshold": 8}))

    atk = tmp_path / "pack.atk"
    write_atk1(atk, make_token_frames(40, (8, 8), seed=3), (8, 8))
    pack_manifest = tmp_path / "pack.jsonl"
    pack_rows = [
        {
            "text": f"utterance {i}",
            "atk1_path": str(atk),
            "frame_range": [10 * i, 10 * i + 10],
            "duration_s": 0.8,
            "provenance": "synthetic",
        }
        for i in range(4)
    ]
    pack_manifest.write_text("".join(json.dumps(r) + "\n" for r in pack_rows))

    def run(label: str, threads: int) -> dict[str, bytes]:
        out = tmp_path / f"{label}-t{threads}"
        out.mkdir()
        rvq = out / "books.rvq"
        argv = ["--seed", "7", "--threads", str(threads)]
        assert (
            cli_main(
                ["train-rvq", str(train_manifest), str(rvq), "--config", str(config),
                 "--epochs", "2", *argv]
            )
            == 0
        )
        tokens = out / "tokens.atk"
        assert cli_main(["encode", str(feats[0]), str(rvq), str(tokens), *argv]) == 0
        packed = out / "records.jsonl"
        assert (
            cli_main(
                ["pack", str(pack_manifest), str(packed), "--format-tag", "ITTS",
                 "--group-size", "2", *argv]
            )
            == 0
        )
        packed_i = out / "records-intlv.jsonl"
        assert (
            cli_main(
                ["pack", str(pack_manifest), str(packed_i), "--format-tag", "INTLV",
                 "--group-size", "2", *argv]
            )
            == 0
        )
        names = [
            "books.rvq",
            "books.rvq.report.jsonl",
            "tokens.atk",
            "records.jsonl",
            "records.jsonl.stats.json",
            "records-intlv.jsonl",
            "records-intlv.jsonl.stats.json",
        ]
        return {n: (out / n).read_bytes() for n in names}

    first = run("a", 1)
    again = run("b", 1)
    threaded = run("c", 9)
    ok = first == again == threaded and all(len(v) > 0 for v in first.values())
    _verdict(
        10,
        ok,
        f"train-rvq, encode, pack (ITTS and INTLV): {len(first)} artifacts "
        f"byte-identical across a rerun and --threads 1 vs 9",
    )
