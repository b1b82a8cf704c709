from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rvqtok import mel as mel_module
from rvqtok import parallel
from rvqtok.errors import EmptyInput, InvalidConfig, InvalidSample, ShapeMismatch
from rvqtok.mel import (
    DEFAULT_MEL,
    MULTISCALE_DEFAULTS,
    AudioBuffer,
    FeatureSequence,
    MelConfig,
    MelSpectrogram,
    SampleSource,
    compute_mel,
    mel_blocks,
    mel_filterbank,
    mel_mae,
    multiscale_mel_loss,
    reconstruction_loss,
    stack_frames,
)
from rvqtok.synth import make_sine_noise_audio


def sine(freq, duration_s=1.0, rate=16000, amp=0.5):
    t = np.arange(int(duration_s * rate)) / rate
    return AudioBuffer(samples=amp * np.sin(2 * np.pi * freq * t), sample_rate=rate)


class TestAudioBuffer:
    def test_duration(self):
        assert sine(440.0).duration_s == 1.0

    def test_rejects_stereo(self):
        with pytest.raises(InvalidSample):
            AudioBuffer(samples=np.zeros((100, 2)), sample_rate=16000)

    def test_rejects_nan(self):
        with pytest.raises(InvalidSample):
            AudioBuffer(samples=np.array([0.0, np.nan]), sample_rate=16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidConfig):
            AudioBuffer(samples=np.zeros(10), sample_rate=0)


class TestMelConfig:
    def test_defaults(self):
        assert DEFAULT_MEL.frame_rate == 100.0
        assert DEFAULT_MEL.n_mels == 80

    def test_hop_bounds(self):
        with pytest.raises(InvalidConfig):
            MelConfig(hop=0)
        with pytest.raises(InvalidConfig):
            MelConfig(n_fft=100, hop=200)

    def test_band_bounds(self):
        with pytest.raises(InvalidConfig):
            MelConfig(fmin=5000.0, fmax=4000.0)
        with pytest.raises(InvalidConfig):
            MelConfig(fmax=9000.0)  # above nyquist

    def test_config_id_distinguishes(self):
        assert MelConfig().config_id != MelConfig(n_fft=512).config_id

    @pytest.mark.parametrize(
        "field, value", [("log_floor", 0.0), ("log_floor", -1e-10), ("n_mels", 0), ("n_mels", -3)]
    )
    def test_positive_fields(self, field, value):
        with pytest.raises(InvalidConfig, match=f"{field} must be positive"):
            MelConfig(**{field: value})


class TestMelSpectrogram:
    def spectrogram(self, frames, n_mels=4, frame_rate=100.0):
        return MelSpectrogram(frames=frames, n_mels=n_mels, frame_rate=frame_rate, config_id="t")

    @pytest.mark.parametrize("shape", [(3, 5), (3, 3), (4,)])
    def test_width_is_n_mels(self, shape):
        with pytest.raises(ShapeMismatch, match="frames must be T x 4"):
            self.spectrogram(np.zeros(shape))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_frames_are_finite(self, value):
        frames = np.zeros((3, 4))
        frames[1, 2] = value
        with pytest.raises(InvalidSample, match="non-finite"):
            self.spectrogram(frames)

    @pytest.mark.parametrize("frame_rate", [0.0, -100.0])
    def test_frame_rate_is_positive(self, frame_rate):
        with pytest.raises(InvalidConfig, match="frame_rate must be positive"):
            self.spectrogram(np.zeros((3, 4)), frame_rate=frame_rate)

    def test_no_frames_is_valid(self):
        assert self.spectrogram(np.zeros((0, 4))).n_frames == 0


class TestFilterbank:
    def test_shape(self):
        fb = mel_filterbank(DEFAULT_MEL)
        assert fb.shape == (80, DEFAULT_MEL.n_fft // 2 + 1)

    def test_range(self):
        # triangles peak at 1 in continuous frequency; sampled on the
        # bin grid every value sits in [0, 1] and each row has support
        fb = mel_filterbank(DEFAULT_MEL)
        assert (fb >= 0).all()
        assert fb.max() <= 1.0 + 1e-12
        assert (fb.max(axis=1) > 0).all()

    def test_scalar_formula_oracle(self):
        # independent scalar recomputation: HTK mel edges, triangle
        # evaluated bin by bin
        import math

        cfg = DEFAULT_MEL
        fb = mel_filterbank(cfg)
        to_mel = lambda f: 2595.0 * math.log10(1.0 + f / 700.0)
        to_hz = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
        lo_m, hi_m = to_mel(cfg.fmin), to_mel(cfg.fmax)
        step = (hi_m - lo_m) / (cfg.n_mels + 1)
        edges = [to_hz(lo_m + i * step) for i in range(cfg.n_mels + 2)]
        n_freqs = cfg.n_fft // 2 + 1
        rng = np.random.Generator(np.random.PCG64(99))
        for _ in range(300):
            m = int(rng.integers(cfg.n_mels))
            k = int(rng.integers(n_freqs))
            f = k * (cfg.sample_rate / 2.0) / (n_freqs - 1)
            lo, ctr, hi = edges[m], edges[m + 1], edges[m + 2]
            if f <= lo or f >= hi:
                want = 0.0
            elif f <= ctr:
                want = (f - lo) / (ctr - lo)
            else:
                want = (hi - f) / (hi - ctr)
            assert fb[m, k] == pytest.approx(want, abs=1e-9)

    def test_sine_lands_in_its_band(self):
        # a pure tone's hottest band should be one whose triangle covers
        # the tone; a band's edges are the bins next to its positive run
        fb = mel_filterbank(DEFAULT_MEL)
        freqs = np.linspace(0.0, DEFAULT_MEL.sample_rate / 2.0, fb.shape[1])
        for freq in (300.0, 1000.0, 3000.0):
            mel = compute_mel(sine(freq))
            hot = int(np.argmax(mel.frames.mean(axis=0)))
            support = np.flatnonzero(fb[hot] > 0)
            lo, hi = freqs[max(support[0] - 1, 0)], freqs[support[-1] + 1]
            assert lo < freq < hi


class TestFraming:
    def test_center_frame_count(self):
        # T = ceil(len / hop): 16000 samples, hop 160 -> 100
        mel = compute_mel(sine(440.0))
        assert mel.n_frames == 100
        assert mel.frame_rate == 100.0

    def test_center_ceil_rounding(self):
        audio = AudioBuffer(samples=np.zeros(16001), sample_rate=16000)
        assert compute_mel(audio).n_frames == 101

    def test_no_center_frame_count(self):
        cfg = MelConfig(center=False)
        mel = compute_mel(sine(440.0), cfg)
        assert mel.n_frames == (16000 - 400) // 160 + 1

    def test_short_signal_no_center(self):
        cfg = MelConfig(center=False)
        audio = AudioBuffer(samples=np.zeros(399), sample_rate=16000)
        assert compute_mel(audio, cfg).n_frames == 0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            compute_mel(AudioBuffer(samples=np.zeros(0), sample_rate=16000))

    def test_rate_mismatch_raises(self):
        audio = AudioBuffer(samples=np.zeros(8000), sample_rate=8000)
        with pytest.raises(InvalidConfig):
            compute_mel(audio, DEFAULT_MEL)

    def test_deterministic(self):
        audio = make_sine_noise_audio(0.5, seed=3)
        a = compute_mel(audio)
        b = compute_mel(audio)
        assert np.array_equal(a.frames, b.frames)

    def test_log_floor(self):
        audio = AudioBuffer(samples=np.zeros(16000), sample_rate=16000)
        mel = compute_mel(audio)
        assert np.allclose(mel.frames, np.log(DEFAULT_MEL.log_floor))


def whole_buffer_mel(x, cfg):
    """Reference log-mel: pad the whole signal, frame, window, rfft,
    filterbank product, log."""
    if cfg.center:
        n_frames = -(-len(x) // cfg.hop)
        x = np.pad(x, cfg.n_fft // 2, mode="reflect" if len(x) > 1 else "edge")
    else:
        n_frames = max((len(x) - cfg.n_fft) // cfg.hop + 1, 0)
    idx = np.arange(cfg.n_fft)[None, :] + cfg.hop * np.arange(n_frames)[:, None]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(cfg.n_fft) / cfg.n_fft)
    spectrum = np.fft.rfft(x[idx] * window, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    # C-ordered like the kernel's: with the transposed view, OpenBLAS
    # 0.3.31 rounds products of under 16 rows differently from longer ones
    fb = np.ascontiguousarray(mel_filterbank(cfg).T)
    return np.log(np.maximum(power @ fb, cfg.log_floor))


def in_memory(x, rate=16000):
    return SampleSource(len(x), rate, lambda a, b: x[a:b])


BLOCK_LENGTHS = st.sampled_from(
    [1, 2, 199, 200, 201, 399, 400, 401, 159, 161, 479, 481, 1599, 1601,
     512 * 160 - 1, 512 * 160 + 1, 1024 * 160 + 77]
) | st.integers(1, 6000)

# (config, signal length, smaller block). A signal shorter than the long
# window's pad still spans several blocks: its frames reflect more than
# once about each end, and without centring it has no frame at all.
# OpenBLAS rounds that window's 1025-deep filterbank product differently
# in blocks of a few rows, which the kernel never makes (a block holds
# about 512 frames or the whole signal), so its smaller block is 64.
LONG_WINDOW = MelConfig(n_fft=2048, hop=1, n_mels=40)
SHORT_WINDOWS = (
    DEFAULT_MEL,
    MelConfig(n_fft=401, hop=100),  # odd window: a frame spans pad samples each side of its centre
    MelConfig(n_fft=8, hop=8, n_mels=2),  # hop == n_fft: frames do not overlap
    MelConfig(n_fft=7, hop=3, n_mels=2),  # a tiny window
)
CASES = st.tuples(st.sampled_from(SHORT_WINDOWS), BLOCK_LENGTHS, st.just(1)) | st.tuples(
    st.just(LONG_WINDOW), st.integers(600, 1100), st.just(64)
)


class TestBlocked:
    @given(case=CASES, center=st.booleans(), s=st.sampled_from([1, 3, 8]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=80)
    # one row whose left pad reflects about a sample past the row's own span
    @example(case=(SHORT_WINDOWS[2], 6, 1), center=True, s=1, seed=0)
    def test_blocked_equals_whole_buffer(self, case, center, s, seed):
        cfg, n, small = case
        cfg = replace(cfg, center=center)
        x = np.random.Generator(np.random.PCG64(seed)).uniform(-1.0, 1.0, n)
        want = whole_buffer_mel(x, cfg)
        # the default block, then a smaller one (1: one stack group)
        for block in (mel_module._MEL_BLOCK, small):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(mel_module, "_MEL_BLOCK", block)
                n_frames, blocks = mel_blocks(in_memory(x), cfg, s)
                blocks = list(blocks)
                # no frames (T = 0) come as no block
                got = np.concatenate([np.empty((0, cfg.n_mels)), *blocks])
                assert np.array_equal(got, want)
                assert n_frames == len(want)
                assert all(len(b) % s == 0 for b in blocks[:-1])
                assert np.array_equal(compute_mel(AudioBuffer(x, 16000), cfg).frames, want)

    def test_checks_before_reading(self):
        def unread(a, b):
            raise AssertionError("read before the input was checked")

        with pytest.raises(EmptyInput):
            mel_blocks(SampleSource(0, 16000, unread))
        with pytest.raises(InvalidConfig):
            mel_blocks(SampleSource(100, 8000, unread))
        with pytest.raises(InvalidConfig):
            mel_blocks(SampleSource(100, 16000, unread), DEFAULT_MEL, 0)

    def test_non_finite_block_raises(self, monkeypatch):
        monkeypatch.setattr(mel_module, "_MEL_BLOCK", 8)
        x = np.zeros(16000)
        x[-5] = np.nan
        _, blocks = mel_blocks(in_memory(x), DEFAULT_MEL, 8)
        assert next(blocks).shape == (8, 80)
        with pytest.raises(InvalidSample):
            list(blocks)

    def test_non_finite_sample_only_reflected(self):
        # one frame of samples [-4, 4) reflects x[4] into its left pad:
        # that sample is read and checked though no frame spans it
        x = np.zeros(6)
        x[4] = np.nan
        _, blocks = mel_blocks(in_memory(x), MelConfig(n_fft=8, hop=8, n_mels=2))
        with pytest.raises(InvalidSample, match="audio contains non-finite samples"):
            list(blocks)

    def test_non_finite_late_block_threaded(self, monkeypatch):
        # blocks in flight on two workers when the read of the last fails:
        # each earlier block still comes out, in order, before the error
        monkeypatch.setattr(mel_module, "_MEL_BLOCK", 8)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        x = np.random.Generator(np.random.PCG64(4)).uniform(-1.0, 1.0, 16000)
        want = list(mel_blocks(in_memory(x), DEFAULT_MEL, 8)[1])
        x[-5] = np.nan
        _, blocks = mel_blocks(in_memory(x), DEFAULT_MEL, 8, threads=2)
        assert len(want) == 13  # 100 frames in blocks of 8; only the last reads x[-5]
        for block in want[:-1]:
            assert np.array_equal(next(blocks), block)
        with pytest.raises(InvalidSample):
            next(blocks)

    def test_threads_read_ahead_at_most_the_workers(self, monkeypatch):
        monkeypatch.setattr(mel_module, "_MEL_BLOCK", 8)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        x = np.random.Generator(np.random.PCG64(5)).uniform(-1.0, 1.0, 16000)
        got, ahead = [], []

        def read(a, b):
            # inside the signal, and no more than one block's frames span
            assert 0 <= a < b <= len(x)
            assert b - a <= (8 - 1) * DEFAULT_MEL.hop + DEFAULT_MEL.n_fft
            ahead.append(len(ahead) + 1 - len(got))
            return x[a:b]

        n_frames, blocks = mel_blocks(SampleSource(len(x), 16000, read), DEFAULT_MEL, 8, 9)
        for block in blocks:
            got.append(block)
        assert len(ahead) == len(got) == 13  # 100 frames in blocks of 8
        assert max(ahead) == 3
        assert np.array_equal(np.concatenate(got), whole_buffer_mel(x, DEFAULT_MEL))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_frames_raise_threaded(self, monkeypatch):
        # the kernel's own check raises in a pool worker
        monkeypatch.setattr(mel_module, "_MEL_BLOCK", 8)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        x = np.zeros(16000)
        x[-4000:] = 1e200
        _, blocks = mel_blocks(in_memory(x), DEFAULT_MEL, 8, threads=2)
        assert np.array_equal(next(blocks), np.full((8, 80), np.log(DEFAULT_MEL.log_floor)))
        with pytest.raises(InvalidSample):
            list(blocks)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_frames_raise(self):
        x = np.full(4000, 1e200)
        with pytest.raises(InvalidSample):
            list(mel_blocks(in_memory(x))[1])


class TestStacking:
    def test_vectors_are_2d(self):
        with pytest.raises(ShapeMismatch, match="vectors must be 2-D"):
            FeatureSequence(vectors=np.zeros(6), frame_rate=12.5, stack_factor=1)

    def test_shapes_and_rate(self):
        mel = compute_mel(sine(440.0))
        seq = stack_frames(mel, 8)
        assert seq.vectors.shape == (12, 640)
        assert seq.frame_rate == 12.5
        assert seq.stack_factor == 8

    def test_drops_trailing_partial(self):
        mel = compute_mel(sine(440.0))  # 100 frames
        assert stack_frames(mel, 7).n_vectors == 14  # 98 used, 2 dropped

    def test_unstack_inverts(self):
        mel = compute_mel(sine(440.0))
        seq = stack_frames(mel, 4)
        # frame-major stacking: the rows read back as consecutive mel frames
        frames = seq.vectors.reshape(-1, mel.n_mels)
        assert np.array_equal(frames, mel.frames[: frames.shape[0]])

    def test_stack_factor_one_is_identity(self):
        mel = compute_mel(sine(440.0))
        seq = stack_frames(mel, 1)
        assert np.array_equal(seq.vectors, mel.frames)

    def test_bad_factor(self):
        mel = compute_mel(sine(440.0))
        with pytest.raises(InvalidConfig):
            stack_frames(mel, 0)

    @given(n_frames=st.integers(1, 60), factor=st.integers(1, 9))
    def test_stack_unstack_property(self, n_frames, factor):
        rng = np.random.Generator(np.random.PCG64(n_frames * 100 + factor))
        mel = MelSpectrogram(
            frames=rng.standard_normal((n_frames, 4)),
            n_mels=4,
            frame_rate=100.0,
            config_id="t",
        )
        seq = stack_frames(mel, factor)
        assert seq.n_vectors == n_frames // factor
        back = seq.vectors.reshape(-1, 4)
        assert np.array_equal(back, mel.frames[: seq.n_vectors * factor])


def _spec(frames):
    return MelSpectrogram(
        frames=frames, n_mels=frames.shape[1], frame_rate=100.0, config_id="t"
    )


class TestLosses:
    def test_reconstruction_zero_on_identical(self, rng):
        gt = _spec(rng.standard_normal((20, 8)))
        assert reconstruction_loss(gt, [gt]) == 0.0

    def test_reconstruction_oracle(self, rng):
        for _ in range(100):
            frames = rng.standard_normal((10, 6))
            recs = [rng.standard_normal((10, 6)) for _ in range(2)]
            got = reconstruction_loss(_spec(frames), [_spec(r) for r in recs])
            want = sum(
                np.mean(np.abs(frames - r)) + np.mean((frames - r) ** 2) for r in recs
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_reconstruction_needs_recons(self, rng):
        with pytest.raises(EmptyInput):
            reconstruction_loss(_spec(rng.standard_normal((4, 4))), [])

    def test_reconstruction_shape_mismatch(self, rng):
        gt = _spec(rng.standard_normal((4, 4)))
        other = _spec(rng.standard_normal((5, 4)))
        with pytest.raises(ShapeMismatch):
            reconstruction_loss(gt, [other])

    def test_reconstruction_grid_mismatch(self, rng):
        frames = rng.standard_normal((4, 4))
        gt = _spec(frames)
        other = MelSpectrogram(
            frames=frames, n_mels=4, frame_rate=100.0, config_id="other"
        )
        with pytest.raises(ShapeMismatch):
            reconstruction_loss(gt, [other])

    def test_multiscale_sums_scales(self):
        gt = make_sine_noise_audio(1.0, seed=5)
        recon = make_sine_noise_audio(1.0, seed=6)
        total = multiscale_mel_loss(gt, recon)
        parts = 0.0
        for cfg in MULTISCALE_DEFAULTS:
            parts += reconstruction_loss(
                compute_mel(gt, cfg), [compute_mel(recon, cfg)]
            )
        assert total == pytest.approx(parts, rel=1e-12)

    def test_multiscale_zero_on_identical(self):
        gt = make_sine_noise_audio(0.5, seed=7)
        assert multiscale_mel_loss(gt, gt) == 0.0

    def test_multiscale_length_mismatch(self):
        a = make_sine_noise_audio(1.0, seed=1)
        b = make_sine_noise_audio(0.5, seed=1)
        with pytest.raises(ShapeMismatch):
            multiscale_mel_loss(a, b)

    def test_multiscale_needs_a_scale(self):
        audio = make_sine_noise_audio(0.5, seed=1)
        with pytest.raises(EmptyInput, match="at least one scale"):
            multiscale_mel_loss(audio, audio, scales=[])

    def test_multiscale_sample_rate_mismatch(self):
        audio = make_sine_noise_audio(0.5, seed=1)
        other = AudioBuffer(samples=audio.samples, sample_rate=8000)
        with pytest.raises(ShapeMismatch, match="sample rates differ"):
            multiscale_mel_loss(audio, other)

    def test_mae_shape_mismatch(self, rng):
        a = _spec(rng.standard_normal((4, 4)))
        for other in (_spec(rng.standard_normal((5, 4))), _spec(rng.standard_normal((4, 3)))):
            with pytest.raises(ShapeMismatch, match="mel shapes differ"):
                mel_mae(a, other)

    def test_mae_oracle(self, rng):
        for _ in range(100):
            a = rng.standard_normal((7, 5))
            b = rng.standard_normal((7, 5))
            assert mel_mae(_spec(a), _spec(b)) == pytest.approx(
                np.mean(np.abs(a - b)), abs=1e-12
            )

    def test_mae_zero_on_identical(self, rng):
        a = _spec(rng.standard_normal((7, 5)))
        assert mel_mae(a, a) == 0.0
