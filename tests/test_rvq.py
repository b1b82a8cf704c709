import concurrent.futures
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from rvqtok import parallel, rvq
from rvqtok.errors import (
    EmptyInput,
    IndexOutOfRange,
    InvalidConfig,
    InvalidSample,
    ShapeMismatch,
)
from rvqtok.fileformats import read_rvq1, write_rvq1
from rvqtok.mel import FeatureSequence
from rvqtok.rvq import (
    DEFAULT_LAYER_SIZES,
    GUMBEL_OFF,
    INACTIVE,
    Codebook,
    DropoutConfig,
    GumbelConfig,
    RvqStack,
    StepRecord,
    TrainingReport,
    TrainingSchedule,
    commitment_loss,
    decode_frames,
    ema_update,
    encode_frames,
    encode_rows,
    init_rvq_stack,
    mean_commitment_loss,
    quantize,
    quantize_batch,
    restart_dead_entries,
    total_loss,
    train_rvq,
    vq_replacement_gate,
)
from rvqtok.seeding import derive_seed, make_rng


def small_stack(seed=0, sizes=(4, 4, 4), dim=3):
    rng = np.random.Generator(np.random.PCG64(seed))
    return RvqStack([Codebook(rng.standard_normal((k, dim))) for k in sizes])


class TestCodebook:
    def test_default_profile(self):
        assert DEFAULT_LAYER_SIZES == (8192, 4096, 2048, 1024, 1024, 1024, 1024, 1024)

    def test_shape_check(self):
        with pytest.raises(ShapeMismatch):
            Codebook(np.zeros(5))

    def test_zero_width_codewords(self):
        with pytest.raises(ShapeMismatch):
            Codebook(np.zeros((4, 0)))

    def test_finite_check(self):
        with pytest.raises(InvalidConfig):
            Codebook(np.array([[np.inf, 0.0]]))

    def test_decay_bounds(self):
        Codebook(np.zeros((2, 2)), ema_decay=0.0)
        Codebook(np.zeros((2, 2)), ema_decay=1.0)
        with pytest.raises(InvalidConfig):
            Codebook(np.zeros((2, 2)), ema_decay=1.1)

    def test_norm_beta_bounds(self):
        Codebook(np.zeros((2, 2)), norm_beta=0.0)
        with pytest.raises(InvalidConfig):
            Codebook(np.zeros((2, 2)), norm_beta=1.0)

    def test_counter_defaults(self):
        book = Codebook(np.zeros((3, 2)))
        assert book.usage_counts.tolist() == [0, 0, 0]

    def test_counter_validation(self):
        with pytest.raises(InvalidConfig):
            Codebook(np.zeros((2, 2)), usage_counts=np.array([-1, 0]))

    def test_copy_is_deep(self):
        book = Codebook(np.ones((2, 2)))
        dup = book.copy()
        dup.vectors[0, 0] = 9.0
        dup.usage_counts[0] = 5
        assert book.vectors[0, 0] == 1.0
        assert book.usage_counts[0] == 0


class TestRvqStack:
    def test_needs_layers(self):
        with pytest.raises(InvalidConfig):
            RvqStack([])

    def test_dim_agreement(self):
        with pytest.raises(ShapeMismatch):
            RvqStack([Codebook(np.zeros((2, 2))), Codebook(np.zeros((2, 3)))])

    def test_properties(self):
        stack = small_stack(sizes=(8, 4), dim=5)
        assert stack.n_layers == 2
        assert stack.dim == 5
        assert stack.layer_sizes == (8, 4)


class TestConfigs:
    def test_gumbel_temperature(self):
        with pytest.raises(InvalidConfig):
            GumbelConfig(temperature=0.0, enabled=True)
        GumbelConfig(temperature=0.0, enabled=False)  # inert when off

    def test_dropout_bounds(self):
        with pytest.raises(InvalidConfig):
            DropoutConfig(keep_prob_per_layer=1.5)
        with pytest.raises(InvalidConfig):
            DropoutConfig(mode="random")

    def test_schedule_bounds(self):
        with pytest.raises(InvalidConfig):
            TrainingSchedule(replace_start=0.8, replace_end=0.2)
        with pytest.raises(InvalidConfig):
            TrainingSchedule(total_steps=-1)

    def test_replace_fraction_linear(self):
        sched = TrainingSchedule(replace_start=0.1, replace_end=0.9, total_steps=100)
        assert sched.replace_fraction_at(0) == pytest.approx(0.1)
        assert sched.replace_fraction_at(50) == pytest.approx(0.5)
        assert sched.replace_fraction_at(100) == pytest.approx(0.9)
        with pytest.raises(InvalidConfig):
            sched.replace_fraction_at(101)

    def test_replace_fraction_zero_steps(self):
        sched = TrainingSchedule(total_steps=0)
        assert sched.replace_fraction_at(0) == sched.replace_end


def brute_force_argmin(x, codewords):
    """Exact float64 nearest codeword per row, one difference at a time."""
    return np.array([np.argmin(np.sum((codewords - row) ** 2, axis=1)) for row in x])


def select_one_layer(book, x):
    return encode_frames(RvqStack([book]), x)[:, 0]


class TestAssignLayer:
    def test_brute_force_oracle(self, rng):
        x = rng.standard_normal((7, 5))
        c = rng.standard_normal((11, 5))
        d = np.sort(((x[:, None, :] - c[None]) ** 2).sum(-1), axis=1)
        assert (d[:, 1] - d[:, 0] > 1e-3).all()  # well separated: no near-ties
        assert np.array_equal(select_one_layer(Codebook(c), x), brute_force_argmin(x, c))

    def test_codeword_selects_itself(self, rng):
        c = rng.standard_normal((4, 3))
        assert np.array_equal(select_one_layer(Codebook(c), c), np.arange(4))

    @pytest.mark.parametrize("offset", [1e4, 1e6])
    def test_argmin_exact_at_large_offset(self, offset):
        # float32 scores of raw codewords cancel catastrophically here;
        # scoring relative to the codebook mean keeps the argmin exact
        rng = np.random.Generator(np.random.PCG64(3))
        c = rng.standard_normal((256, 32)) + offset
        x = c[rng.integers(0, 256, size=400)] + 0.1 * rng.standard_normal((400, 32))
        assert np.array_equal(select_one_layer(Codebook(c), x), brute_force_argmin(x, c))


class TestBlockedSelection:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
    @settings(max_examples=25)
    def test_row_alone_equals_batch(self, seed, n):
        rng = np.random.Generator(np.random.PCG64(seed))
        stack = small_stack(seed=seed, sizes=(16, 8, 8), dim=5)
        x = rng.standard_normal((n, 5)) * rng.uniform(0.1, 10.0)
        batch = encode_frames(stack, x)
        for t in range(n):
            assert np.array_equal(encode_frames(stack, x[t : t + 1])[0], batch[t])
            assert quantize(stack, x[t]).indices == tuple(batch[t])

    @pytest.mark.parametrize("mode", ["independent", "suffix"])
    def test_block_size_does_not_change_results(self, monkeypatch, rng, mode):
        stack = small_stack(seed=19, sizes=(16, 8, 8, 8), dim=4)
        x = rng.standard_normal((30, 4))
        gumbel = GumbelConfig(temperature=1.0, enabled=True, seed=4)
        dropout = DropoutConfig(keep_prob_per_layer=0.5, seed=5, mode=mode)
        corpus = [seq(rng.standard_normal((23, 4))) for _ in range(3)]
        schedule = TrainingSchedule(replace_start=1.0, total_steps=6)

        def run():
            idx, quantized = quantize_batch(stack, x, gumbel, dropout)
            trained, report = train_rvq(
                stack,
                corpus,
                schedule,
                gumbel,
                dropout,
                epochs=2,
                mode="standard_ema",
                dead_threshold=2,
                seed=6,
            )
            return idx, quantized, trained, report

        default = run()
        monkeypatch.setattr(rvq, "_ROW_CHUNK", 7)  # ragged last block
        small = run()
        assert np.array_equal(default[0], small[0])
        assert np.array_equal(default[1], small[1])
        for a, b in zip(default[2].layers, small[2].layers):
            assert np.array_equal(a.vectors, b.vectors)
            assert np.array_equal(a.usage_counts, b.usage_counts)
        assert default[3] == small[3]


def reader(x, asked):
    """read(start, stop) over the rows of x, as Rows.read hands them out;
    asked records each (start, stop)."""

    def read(start, stop):
        asked.append((start, stop))
        return x[start:stop]

    return read


class TestEncodeBlocks:
    """encode_rows asks its reader for _ROW_CHUNK rows at a time."""

    def test_blocks_equal_whole_matrix(self, monkeypatch, rng):
        monkeypatch.setattr(rvq, "_ROW_CHUNK", 4)
        stack = small_stack(seed=5, sizes=(16, 8, 8), dim=5)
        # no rows, below one chunk, one chunk, ragged: whole chunks but the last
        for n, sizes in ((0, [0]), (3, [3]), (4, [4]), (23, [4] * 5 + [3])):
            x = rng.standard_normal((n, 5))
            before = x.copy()
            asked = []
            blocks = list(encode_rows(stack, n, reader(x, asked)))
            starts = np.cumsum([0] + sizes[:-1]).tolist()
            assert asked == [(a, a + k) for a, k in zip(starts, sizes)]
            assert [len(b) for b in blocks] == sizes
            got = np.concatenate(blocks)
            assert got.shape == (n, 3)
            assert np.array_equal(got, encode_frames(stack, x))
            assert np.array_equal(got, quantize_batch(stack, x)[0])
            assert np.array_equal(x, before)  # the cascade ran on a copy

    def test_prepares_each_layer_once(self, monkeypatch, rng):
        prepared = []
        centred = rvq._centred
        monkeypatch.setattr(rvq, "_centred", lambda book: prepared.append(book) or centred(book))
        monkeypatch.setattr(rvq, "_ROW_CHUNK", 2)
        stack = small_stack(sizes=(4, 4, 4))
        blocks = list(encode_rows(stack, 9, reader(rng.standard_normal((9, 3)), [])))
        assert len(blocks) == 5
        assert prepared == stack.layers

    def test_bad_late_block(self, monkeypatch, rng):
        monkeypatch.setattr(rvq, "_ROW_CHUNK", 4)
        x = rng.standard_normal((6, 3))
        x[5, 1] = np.nan
        blocks = encode_rows(small_stack(), 6, reader(x, []))
        next(blocks)
        with pytest.raises(InvalidSample):
            next(blocks)
        with pytest.raises(ShapeMismatch):
            next(encode_rows(small_stack(dim=3), 2, reader(np.zeros((2, 4)), [])))

    def test_bad_late_block_threaded(self, monkeypatch, rng):
        # blocks in flight on two workers when the read of the last fails:
        # each earlier block still comes out, in order, before the error
        monkeypatch.setattr(rvq, "_ROW_CHUNK", 4)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        x = rng.standard_normal((14, 3))
        x[13, 1] = np.nan
        stack = small_stack()
        blocks = encode_rows(stack, 14, reader(x, []), threads=2)
        for start in (0, 4, 8):
            assert np.array_equal(next(blocks), encode_frames(stack, x[start : start + 4]))
        with pytest.raises(InvalidSample):
            next(blocks)
        with pytest.raises(ShapeMismatch):
            next(encode_rows(small_stack(dim=3), 2, reader(np.zeros((2, 4)), []), threads=2))

    def test_threads_read_ahead_at_most_the_workers(self, monkeypatch, rng):
        monkeypatch.setattr(rvq, "_ROW_CHUNK", 2)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        started = []

        class Spy(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
        stack = small_stack(seed=2, sizes=(16, 8), dim=5)
        x = rng.standard_normal((19, 5))
        asked, got, ahead = [], [], []

        def read(start, stop):
            asked.append((start, stop))
            ahead.append(len(asked) - len(got))
            return x[start:stop]

        for block in encode_rows(stack, 19, read, threads=9):
            got.append(block)
        assert started == [3]
        assert max(ahead) == 3
        assert asked == [(a, min(a + 2, 19)) for a in range(0, 19, 2)]
        assert np.array_equal(np.concatenate(got), encode_frames(stack, x))

    def test_zero_rows(self):
        assert encode_frames(small_stack(), np.zeros((0, 3))).shape == (0, 3)
        # an empty codebook is refused when built, so no stack can hold one
        with pytest.raises(InvalidConfig, match="no codewords"):
            Codebook(np.zeros((0, 3)))


class TestFloat32Books:
    """A stack read from RVQ1 keeps its float32 codewords, read-only, and
    every result equals that of the same stack upcast to float64."""

    @pytest.fixture
    def books(self, tmp_path):
        stack = small_stack(seed=8, sizes=(16, 8, 8), dim=5)
        for book in stack.layers:
            book.usage_counts[::3] = 4  # dead at a threshold of 3
        write_rvq1(tmp_path / "books.rvq1", stack)
        loaded = read_rvq1(tmp_path / "books.rvq1")
        upcast = RvqStack(
            [
                Codebook(b.vectors.astype(np.float64), b.ema_decay, b.norm_beta, b.usage_counts)
                for b in loaded.layers
            ]
        )
        return loaded, upcast

    def test_vectors_stay_float32_and_read_only(self, books):
        loaded, upcast = books
        for book, wide in zip(loaded.layers, upcast.layers):
            assert book.vectors.dtype == np.float32 and wide.vectors.dtype == np.float64
            assert not book.vectors.flags.writeable
            with pytest.raises(ValueError):
                book.vectors[0, 0] = 1.0

    def test_inference_equals_upcast(self, books, rng):
        loaded, upcast = books
        x = rng.standard_normal((30, 5)) + 50.0  # far from the origin
        indices = encode_frames(loaded, x)
        assert np.array_equal(indices, encode_frames(upcast, x))
        assert np.array_equal(decode_frames(loaded, indices), decode_frames(upcast, indices))
        gumbel = GumbelConfig(temperature=2.0, enabled=True, seed=3)
        dropout = DropoutConfig(seed=4)
        for a, b in zip(
            quantize_batch(loaded, x, gumbel, dropout), quantize_batch(upcast, x, gumbel, dropout)
        ):
            assert np.array_equal(a, b)
        one, wide = quantize(loaded, x[0], gumbel), quantize(upcast, x[0], gumbel)
        assert one.indices == wide.indices
        assert np.array_equal(one.quantized, wide.quantized)

    def test_training_returns_float64_equal_to_upcast(self, books, rng):
        loaded, upcast = books

        def same(a, b):
            assert a.vectors.dtype == b.vectors.dtype == np.float64
            assert np.array_equal(a.vectors, b.vectors)
            assert np.array_equal(a.usage_counts, b.usage_counts)

        for book, wide in zip(loaded.layers, upcast.layers):
            same(book.copy(), wide.copy())
            assigned = {0: [rng.standard_normal(5)], 2: list(rng.standard_normal((3, 5)))}
            same(ema_update(book, assigned), ema_update(wide, assigned))
            batch = rng.standard_normal((7, 5))
            (new, dead), (new_wide, dead_wide) = (
                restart_dead_entries(b, batch, 3, rng_seed=2) for b in (book, wide)
            )
            assert dead == dead_wide != []
            same(new, new_wide)
        corpus = [seq(rng.standard_normal((12, 5))) for _ in range(3)]
        schedule = TrainingSchedule(replace_start=1.0, total_steps=4)
        kwargs = dict(epochs=2, dead_threshold=3, seed=5)
        gumbel = GumbelConfig(enabled=True, seed=1)
        (trained, report), (trained_wide, report_wide) = (
            train_rvq(s, corpus, schedule, gumbel, DropoutConfig(seed=2), **kwargs)
            for s in (loaded, upcast)
        )
        assert report == report_wide
        for a, b in zip(trained.layers, trained_wide.layers):
            same(a, b)


class TestQuantize:
    def test_picks_nearest(self):
        book = Codebook(np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]]))
        stack = RvqStack([book])
        res = quantize(stack, np.array([9.0, 1.0]))
        assert res.indices == (1,)
        assert np.array_equal(res.quantized, [10.0, 0.0])

    def test_residual_telescoping(self, rng):
        stack = small_stack(seed=3, sizes=(6, 6, 6, 6), dim=4)
        x = rng.standard_normal(4)
        res = quantize(stack, x)
        running = x.copy()
        for layer, idx in enumerate(res.indices):
            assert idx != INACTIVE
            running = running - stack.layers[layer].vectors[idx]
            assert np.allclose(res.residuals[layer], running, atol=1e-12)
        assert np.allclose(x - res.quantized, res.residuals[-1], atol=1e-12)
        assert res.active_layers == (0, 1, 2, 3)

    def test_rejects_matrix(self):
        with pytest.raises(ShapeMismatch):
            quantize(small_stack(), np.zeros((2, 3)))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            quantize(small_stack(dim=3), np.zeros(4))

    def test_batch_matches_single(self, rng):
        stack = small_stack(seed=5, sizes=(8, 8), dim=3)
        batch = rng.standard_normal((10, 3))
        indices, quantized = quantize_batch(stack, batch)
        for t in range(10):
            res = quantize(stack, batch[t])
            assert tuple(indices[t]) == res.indices
            assert np.allclose(quantized[t], res.quantized, atol=1e-12)

    def test_batch_rejects_vector(self):
        with pytest.raises(ShapeMismatch):
            quantize_batch(small_stack(), np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        x = np.zeros((4, 3))
        x[2, 1] = bad
        with pytest.raises(InvalidSample):
            quantize_batch(small_stack(), x)


class TestGumbel:
    def test_tiny_temperature_matches_argmin(self, rng):
        stack = small_stack(seed=7, sizes=(16, 16), dim=5)
        batch = rng.standard_normal((200, 5))
        hard, _ = quantize_batch(stack, batch)
        soft, _ = quantize_batch(
            stack, batch, GumbelConfig(temperature=1e-6, enabled=True, seed=1)
        )
        assert np.array_equal(hard, soft)

    def test_high_temperature_diversifies(self, rng):
        # one vector quantized many times should reach several codewords
        book = Codebook(rng.standard_normal((8, 3)) * 0.01)
        stack = RvqStack([book])
        batch = np.tile(rng.standard_normal(3), (500, 1))
        g = GumbelConfig(temperature=10.0, enabled=True, seed=2)
        indices, _ = quantize_batch(stack, batch, g)
        assert np.unique(indices).size >= 4

    def test_seed_reproducible(self, rng):
        stack = small_stack(seed=9, sizes=(8,), dim=3)
        batch = rng.standard_normal((50, 3))
        g = GumbelConfig(temperature=1.0, enabled=True, seed=42)
        a, _ = quantize_batch(stack, batch, g)
        b, _ = quantize_batch(stack, batch, g)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("tau", [0.25, 1.0, 4.0])
    def test_float32_noise_keeps_softmax_law(self, tau):
        # scores sit near 10^3, where float32 holds about 6e-5, so the
        # sum of scaled scores and noise is rounded as in a real layer
        gaps = tau * np.array([0.0, 0.4, 0.8, 1.2, 1.6, 2.0])
        draws = 100_000
        dists = np.tile(np.float32(1000.0) + gaps.astype(np.float32), (draws, 1))
        rng = np.random.Generator(np.random.PCG64(17))
        idx = rvq._select_indices(dists, GumbelConfig(temperature=tau, enabled=True), rng)
        probs = np.exp(-gaps / tau)
        probs /= probs.sum()
        _, pval = scipy_stats.chisquare(np.bincount(idx, minlength=6), probs * draws)
        assert pval > 0.01

    def test_tiny_temperature_matches_argmin_at_k1024(self, rng):
        stack = RvqStack([Codebook(rng.standard_normal((1024, 8)))])
        batch = rng.standard_normal((500, 8))
        hard, _ = quantize_batch(stack, batch)
        soft, _ = quantize_batch(
            stack, batch, GumbelConfig(temperature=1e-6, enabled=True, seed=3)
        )
        assert np.array_equal(hard, soft)

    def test_zero_uniform_is_never_chosen(self):
        class ZeroFirst:
            """Real float32 uniforms, except 0 for every row's entry 0."""

            def __init__(self):
                self.inner = np.random.Generator(np.random.PCG64(5))

            def random(self, shape, dtype):
                u = self.inner.random(shape, dtype=dtype)
                u[:, 0] = 0.0
                return u

        # entry 0 is the nearest by far, so only its u = 0 can rule it out
        dists = np.tile(np.array([0.0, 3.0, 3.0, 3.0], dtype=np.float32), (2000, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx = rvq._select_indices(dists, GumbelConfig(enabled=True), ZeroFirst())
        assert not (idx == 0).any()
        assert set(np.unique(idx)) == {1, 2, 3}


class TestDropout:
    def test_first_layer_never_dropped(self):
        stack = small_stack(sizes=(4, 4, 4, 4))
        drop = DropoutConfig(keep_prob_per_layer=0.0, seed=0)
        for seed in range(20):
            res = quantize(
                stack,
                np.ones(3),
                dropout=drop,
                dropout_rng=np.random.Generator(np.random.PCG64(seed)),
            )
            assert res.indices[0] != INACTIVE
            assert res.indices[1:] == (INACTIVE,) * 3
            assert res.active_layers == (0,)

    def test_keep_prob_one_keeps_all(self):
        stack = small_stack(sizes=(4, 4, 4))
        res = quantize(stack, np.ones(3), dropout=DropoutConfig(keep_prob_per_layer=1.0))
        assert INACTIVE not in res.indices

    def test_inactive_layers_skip_reconstruction(self, rng):
        stack = small_stack(seed=11, sizes=(4, 4, 4), dim=3)
        x = rng.standard_normal(3)
        res = quantize(stack, x, dropout=DropoutConfig(keep_prob_per_layer=0.0))
        assert np.allclose(res.quantized, stack.layers[0].vectors[res.indices[0]])
        # residual is frozen across inactive layers
        assert np.array_equal(res.residuals[0], res.residuals[2])

    @given(seed=st.integers(0, 500))
    @settings(max_examples=40)
    def test_suffix_mode_is_prefix(self, seed):
        stack = small_stack(sizes=(4,) * 6)
        drop = DropoutConfig(keep_prob_per_layer=0.5, seed=seed, mode="suffix")
        res = quantize(stack, np.ones(3), dropout=drop)
        # active layers must form a contiguous prefix 0..m
        assert res.active_layers == tuple(range(len(res.active_layers)))

    def test_independent_mode_can_leave_holes(self):
        stack = small_stack(sizes=(4,) * 6)
        hole = False
        for seed in range(40):
            drop = DropoutConfig(keep_prob_per_layer=0.5, seed=seed, mode="independent")
            res = quantize(stack, np.ones(3), dropout=drop)
            act = res.active_layers
            if act != tuple(range(len(act))):
                hole = True
                break
        assert hole


class TestCommitmentLoss:
    def test_oracle(self, rng):
        stack = small_stack(seed=13, sizes=(8, 8), dim=4)
        x = rng.standard_normal(4)
        res = quantize(stack, x)
        want = float(np.sum((x - res.quantized) ** 2))
        assert commitment_loss(x, res) == pytest.approx(want, abs=1e-12)

    def test_shape_mismatch(self, rng):
        stack = small_stack(seed=13, sizes=(8,), dim=4)
        res = quantize(stack, rng.standard_normal(4))
        with pytest.raises(ShapeMismatch):
            commitment_loss(np.zeros(5), res)

    def test_batch_mean_oracle(self, rng):
        x = rng.standard_normal((6, 3))
        q = rng.standard_normal((6, 3))
        want = float(np.mean(np.sum((x - q) ** 2, axis=1)))
        assert mean_commitment_loss(x, q) == pytest.approx(want, abs=1e-12)

    def test_batch_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch, match="shapes differ"):
            mean_commitment_loss(rng.standard_normal((6, 3)), rng.standard_normal((6, 4)))


class TestEmaUpdate:
    def setup_method(self):
        self.book = Codebook(
            np.array([[1.0, 0.0], [0.0, 1.0]]), ema_decay=0.99, norm_beta=0.01
        )
        self.assignments = {0: [np.array([3.0, 0.0]), np.array([5.0, 0.0])]}

    def test_paper_literal_closed_form(self):
        new = ema_update(self.book, self.assignments, mode="paper_literal")
        # assigned: (alpha*c + mean) * (1-beta) = (0.99 + 4.0) * 0.99
        assert new.vectors[0, 0] == pytest.approx(4.9401, abs=1e-12)
        assert new.vectors[0, 1] == 0.0
        # unassigned: alpha * c * (1-beta)
        assert new.vectors[1, 1] == pytest.approx(0.99 * 0.99, abs=1e-12)

    def test_standard_ema_closed_form(self):
        new = ema_update(self.book, self.assignments, mode="standard_ema")
        # (alpha*c + (1-alpha)*mean) * (1-beta) = (0.99 + 0.01*4) * 0.99
        assert new.vectors[0, 0] == pytest.approx(1.03 * 0.99, abs=1e-12)
        assert new.vectors[1, 1] == pytest.approx(0.99 * 0.99, abs=1e-12)

    def test_usage_counters(self):
        book = Codebook(np.zeros((3, 2)), usage_counts=np.array([7, 7, 7]))
        new = ema_update(book, {1: [np.zeros(2)]})
        assert new.usage_counts.tolist() == [8, 0, 8]

    def test_input_untouched(self):
        before = self.book.vectors.copy()
        ema_update(self.book, self.assignments)
        assert np.array_equal(self.book.vectors, before)

    def test_entry_with_no_vectors_ages_as_unassigned(self):
        book = Codebook(self.book.vectors, 0.99, 0.01, usage_counts=np.array([3, 3]))
        new = ema_update(book, {**self.assignments, 1: []})
        want = ema_update(book, self.assignments)
        assert np.array_equal(new.vectors, want.vectors)
        assert new.usage_counts.tolist() == want.usage_counts.tolist() == [0, 4]

    def test_empty_assignments_decay_all(self):
        new = ema_update(self.book, {})
        assert np.allclose(new.vectors, self.book.vectors * 0.99 * 0.99)

    def test_bad_mode(self):
        with pytest.raises(InvalidConfig):
            ema_update(self.book, {}, mode="fancy")

    def test_entry_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            ema_update(self.book, {5: [np.zeros(2)]})

    def test_vector_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ema_update(self.book, {0: [np.zeros(3)]})

    def test_mean_not_sum(self):
        # duplicating every assigned vector must not change the update
        doubled = {0: self.assignments[0] * 2}
        a = ema_update(self.book, self.assignments)
        b = ema_update(self.book, doubled)
        assert np.allclose(a.vectors, b.vectors)


def dense_ema_step(book, chosen, rows, mode):
    """The EMA step summed over the whole book: K x D sums, every row
    decayed, then the (1 - beta) contraction even at beta 0."""
    vectors, usage = book.vectors.copy(), book.usage_counts + 1
    sums = np.zeros_like(vectors)
    counts = np.zeros(book.size, dtype=np.int64)
    np.add.at(sums, chosen, rows)
    np.add.at(counts, chosen, 1)
    alpha = book.ema_decay
    vectors *= alpha
    assigned = counts > 0
    means = sums[assigned] / counts[assigned, None]
    vectors[assigned] += means if mode == "paper_literal" else (1.0 - alpha) * means
    vectors *= 1.0 - book.norm_beta
    usage[assigned] = 0
    return vectors, usage


class TestSparseEmaStep:
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 12),
        dim=st.integers(1, 5),
        n=st.integers(0, 30),
        distinct=st.integers(1, 4),
        mode=st.sampled_from(rvq.EMA_MODES),
        alpha=st.sampled_from([0.0, 0.99, 1.0]),
        beta=st.sampled_from([0.0, 0.05]),
    )
    @settings(max_examples=200)
    def test_equals_dense_reference(self, seed, k, dim, n, distinct, mode, alpha, beta):
        rng = np.random.Generator(np.random.PCG64(seed))
        vectors = rng.standard_normal((k, dim))
        rows = rng.standard_normal((n, dim))
        # signed zeros in the book and the rows, and some all-zero rows
        vectors[rng.random((k, dim)) < 0.2] = -0.0
        rows[rng.random((n, dim)) < 0.2] = -0.0
        rows[rng.random(n) < 0.2] = 0.0
        # few distinct entries, so most are chosen many times
        chosen = rng.choice(k, size=distinct)[rng.integers(0, distinct, size=n)]
        book = Codebook(
            vectors,
            ema_decay=alpha,
            norm_beta=beta,
            usage_counts=rng.integers(0, 9, size=k),
        )
        want_vectors, want_usage = dense_ema_step(book, chosen, rows, mode)
        rvq._ema_step(book, chosen, rows, mode)
        assert book.vectors.tobytes() == want_vectors.tobytes()
        assert np.array_equal(book.usage_counts, want_usage)


class TestNormConstraint:
    def test_norms_bounded_under_iteration(self, rng):
        # repeated update-with-assignments keeps norms under m/beta scale
        book = Codebook(rng.standard_normal((4, 3)), ema_decay=0.99, norm_beta=0.05)
        batch = rng.standard_normal((32, 3))
        bound = np.abs(batch).max() * 100  # generous; divergence would blow past
        for step in range(500):
            idx = select_one_layer(book, batch)
            groups = {j: list(batch[idx == j]) for j in np.unique(idx)}
            book = ema_update(book, groups)
            assert np.linalg.norm(book.vectors, axis=1).max() < bound


class TestRestart:
    def test_replaces_only_dead(self, rng):
        book = Codebook(
            np.zeros((4, 2)), usage_counts=np.array([0, 10, 3, 10])
        )
        batch = rng.standard_normal((6, 2))
        new, replaced = restart_dead_entries(book, batch, dead_threshold=5, rng_seed=1)
        assert replaced == [1, 3]
        assert np.array_equal(new.vectors[0], book.vectors[0])
        assert np.array_equal(new.vectors[2], book.vectors[2])
        for j in replaced:
            assert any(np.array_equal(new.vectors[j], row) for row in batch)
            assert new.usage_counts[j] == 0

    def test_no_dead_returns_input(self):
        book = Codebook(np.zeros((2, 2)))
        new, replaced = restart_dead_entries(book, np.zeros((0, 2)), 5, 0)
        assert new is book
        assert replaced == []

    def test_empty_batch_with_dead_raises(self):
        book = Codebook(np.zeros((2, 2)), usage_counts=np.array([9, 9]))
        with pytest.raises(EmptyInput):
            restart_dead_entries(book, np.zeros((0, 2)), 5, 0)

    def test_batch_dim_mismatch(self):
        book = Codebook(np.zeros((2, 2)), usage_counts=np.array([9, 9]))
        with pytest.raises(ShapeMismatch):
            restart_dead_entries(book, np.zeros((3, 4)), 5, 0)

    def test_input_untouched_when_entries_dead(self, rng):
        book = Codebook(rng.standard_normal((4, 2)), usage_counts=np.array([0, 10, 3, 10]))
        vectors, usage = book.vectors.copy(), book.usage_counts.copy()
        new, replaced = restart_dead_entries(book, rng.standard_normal((6, 2)), 5, 1)
        assert replaced == [1, 3] and new is not book
        assert np.array_equal(book.vectors, vectors)
        assert np.array_equal(book.usage_counts, usage)

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_threshold_must_be_positive(self, rng, threshold):
        # at 0 every entry would count as dead on every step
        with pytest.raises(InvalidConfig):
            restart_dead_entries(Codebook(np.zeros((2, 2))), rng.standard_normal((3, 2)), threshold, 0)

    def test_seed_reproducible(self, rng):
        book = Codebook(np.zeros((8, 2)), usage_counts=np.full(8, 99))
        batch = rng.standard_normal((50, 2))
        a, _ = restart_dead_entries(book, batch, 5, rng_seed=7)
        b, _ = restart_dead_entries(book, batch, 5, rng_seed=7)
        assert np.array_equal(a.vectors, b.vectors)


class TestTotalLoss:
    def test_weighted_sum(self):
        assert total_loss(2.0, 3.0, 4.0, 1.0, 0.5, 0.25) == pytest.approx(4.5)

    def test_zero_weights(self):
        assert total_loss(2.0, 3.0, 4.0, 0.0, 0.0, 0.0) == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidConfig):
            total_loss(1.0, 1.0, 1.0, -0.1, 1.0, 1.0)

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(InvalidConfig):
            total_loss(1.0, 1.0, 1.0, 1.0, np.inf, 1.0)


class TestReplacementGate:
    def test_p_zero(self):
        sched = TrainingSchedule(replace_start=0.0, replace_end=0.0, total_steps=10)
        assert not vq_replacement_gate(sched, 5, 0, 1000).any()

    def test_p_one(self):
        sched = TrainingSchedule(replace_start=1.0, replace_end=1.0, total_steps=10)
        assert vq_replacement_gate(sched, 5, 0, 1000).all()

    def test_fraction_tracks_ramp(self):
        sched = TrainingSchedule(replace_start=0.2, replace_end=0.8, total_steps=100)
        mask = vq_replacement_gate(sched, 50, 3, 20000)
        assert mask.mean() == pytest.approx(0.5, abs=0.02)

    def test_deterministic(self):
        sched = TrainingSchedule()
        a = vq_replacement_gate(sched, 10, 42, 100)
        b = vq_replacement_gate(sched, 10, 42, 100)
        assert np.array_equal(a, b)


class TestInit:
    def test_layer_sizes(self, rng):
        x = rng.standard_normal((100, 6))
        stack = init_rvq_stack((16, 8, 4), x, seed=1)
        assert stack.layer_sizes == (16, 8, 4)
        assert stack.dim == 6

    def test_first_layer_from_data(self, rng):
        x = rng.standard_normal((50, 4))
        stack = init_rvq_stack((8,), x, seed=2)
        for row in stack.layers[0].vectors:
            assert any(np.array_equal(row, v) for v in x)

    def test_params_propagate(self, rng):
        x = rng.standard_normal((20, 3))
        stack = init_rvq_stack((4, 4), x, ema_decay=0.5, norm_beta=0.1, seed=0)
        for book in stack.layers:
            assert book.ema_decay == 0.5
            assert book.norm_beta == 0.1

    def test_empty_features(self):
        with pytest.raises(EmptyInput):
            init_rvq_stack((4,), np.zeros((0, 3)))

    def test_zero_width_features(self):
        with pytest.raises(EmptyInput):
            init_rvq_stack((4,), np.zeros((10, 0)))

    def test_bad_method(self, rng):
        # init only samples rows, so it takes no method at all
        with pytest.raises(TypeError):
            init_rvq_stack((4,), rng.standard_normal((10, 2)), method="sample")

    def test_bad_layer_size(self, rng):
        with pytest.raises(InvalidConfig):
            init_rvq_stack((4, 0), rng.standard_normal((10, 2)))

    def test_deterministic(self, rng):
        x = rng.standard_normal((40, 3))
        a = init_rvq_stack((8, 8), x, seed=5)
        b = init_rvq_stack((8, 8), x, seed=5)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.vectors, lb.vectors)


class TestEncodeDecode:
    def test_round_trip_matches_quantize(self, rng):
        stack = small_stack(seed=17, sizes=(8, 8, 8), dim=4)
        x = rng.standard_normal((20, 4))
        indices = encode_frames(stack, x)
        assert indices.shape == (20, 3)
        assert indices.dtype == np.int64
        _, quantized = quantize_batch(stack, x)
        assert np.allclose(decode_frames(stack, indices), quantized, atol=1e-12)

    def test_decode_rejects_out_of_range(self):
        stack = small_stack(sizes=(4, 4))
        with pytest.raises(IndexOutOfRange):
            decode_frames(stack, np.array([[0, 4]]))
        with pytest.raises(IndexOutOfRange):
            decode_frames(stack, np.array([[INACTIVE, 0]]))

    def test_decode_shape_check(self):
        stack = small_stack(sizes=(4, 4))
        with pytest.raises(ShapeMismatch):
            decode_frames(stack, np.zeros((3, 5), dtype=int))

    def test_decode_sums_codewords(self):
        books = [
            Codebook(np.array([[1.0, 0.0], [2.0, 0.0]])),
            Codebook(np.array([[0.0, 10.0], [0.0, 20.0]])),
        ]
        stack = RvqStack(books)
        out = decode_frames(stack, np.array([[1, 0]]))
        assert np.array_equal(out[0], [2.0, 10.0])


class TestTrainingReport:
    def test_jsonl_round_trip(self):
        report = TrainingReport(
            steps=(
                StepRecord(0, 1.5, 0.3, (0.5, 0.25)),
                StepRecord(1, 1.2, 0.2, (0.75, 0.5)),
            )
        )
        back = TrainingReport.from_jsonl(report.to_jsonl())
        assert back == report

    def test_empty_round_trip(self):
        assert TrainingReport.from_jsonl("") == TrainingReport()

    def test_blank_lines_skipped(self):
        report = TrainingReport(steps=(StepRecord(0, 1.0, 0.1, (1.0,)),))
        assert TrainingReport.from_jsonl("\n" + report.to_jsonl() + "\n\n") == report

    def test_to_json_is_the_field_dict(self):
        rec = StepRecord(3, 1.25, 0.1, (0.5, 0.125))
        want = {"step": 3, "commit_loss": 1.25, "feature_mae": 0.1, "utilization": [0.5, 0.125]}
        assert rec.to_json() == json.dumps(want, sort_keys=True)

    def test_unknown_keys_ignored(self):
        line = json.dumps(
            {"step": 0, "commit_loss": 1.0, "feature_mae": 0.1, "utilization": [1.0], "extra": 7}
        )
        want = TrainingReport(steps=(StepRecord(0, 1.0, 0.1, (1.0,)),))
        assert TrainingReport.from_jsonl(line + "\n") == want


def seq(vectors):
    return FeatureSequence(
        vectors=np.asarray(vectors, dtype=np.float64), frame_rate=12.5, stack_factor=8
    )


class TestTrainRvq:
    def make_corpus(self, rng, n_seqs=4, n_vecs=30, dim=3):
        return [seq(rng.standard_normal((n_vecs, dim))) for _ in range(n_seqs)]

    def test_epochs_zero_identity(self, rng):
        stack = small_stack()
        out, report = train_rvq(
            stack, self.make_corpus(rng), TrainingSchedule(), epochs=0
        )
        assert out is stack
        assert report.steps == ()

    def test_negative_epochs(self, rng):
        with pytest.raises(InvalidConfig):
            train_rvq(small_stack(), self.make_corpus(rng), TrainingSchedule(), epochs=-1)

    def test_empty_corpus(self):
        with pytest.raises(EmptyInput):
            train_rvq(small_stack(), [], TrainingSchedule())

    @pytest.mark.parametrize("threshold", [0, -3])
    def test_dead_threshold_must_be_positive(self, rng, threshold):
        with pytest.raises(InvalidConfig):
            train_rvq(
                small_stack(), self.make_corpus(rng), TrainingSchedule(), dead_threshold=threshold
            )

    def test_dim_mismatch(self, rng):
        corpus = [seq(rng.standard_normal((10, 5)))]
        with pytest.raises(ShapeMismatch):
            train_rvq(small_stack(dim=3), corpus, TrainingSchedule())

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rows_checked_before_the_first_step(self, rng, monkeypatch, threads):
        # a NaN in the second sequence is refused before the first one,
        # routed at step 0, updates any layer
        updates = []
        ema_step = rvq._ema_step
        monkeypatch.setattr(rvq, "_ema_step", lambda *a: updates.append(a[0]) or ema_step(*a))
        x = rng.standard_normal((30, 3))
        x[4, 1] = np.nan
        corpus = [seq(rng.standard_normal((30, 3))), seq(x)]
        sched = TrainingSchedule(replace_start=1.0, replace_end=1.0, total_steps=1)
        with pytest.raises(InvalidSample, match="NaN or inf"):
            train_rvq(small_stack(), corpus, sched, threads=threads)
        assert updates == []

    def test_rows_checked_once_per_sequence(self, rng, monkeypatch):
        checked = []
        check_rows = rvq._check_rows
        monkeypatch.setattr(
            rvq, "_check_rows", lambda stack, x: checked.append(len(x)) or check_rows(stack, x)
        )
        corpus = self.make_corpus(rng, n_seqs=3) + [seq(rng.standard_normal((7, 3)))]
        train_rvq(small_stack(), corpus, TrainingSchedule(), epochs=2)
        assert checked == [30, 30, 30, 7]

    def test_dim_mismatch_names_both_widths(self, rng):
        corpus = [seq(rng.standard_normal((10, 3))), seq(rng.standard_normal((10, 5)))]
        with pytest.raises(ShapeMismatch, match="feature dim 5 != codebook dim 3"):
            train_rvq(small_stack(dim=3), corpus, TrainingSchedule())

    def test_empty_sequence(self, rng):
        corpus = [seq(rng.standard_normal((10, 3))), seq(np.zeros((0, 3)))]
        with pytest.raises(EmptyInput):
            train_rvq(small_stack(), corpus, TrainingSchedule())

    def test_step_matches_ema_update(self, rng):
        # one routed step reduces each layer's assignments exactly as
        # ema_update does over the same grouped residual inputs
        stack = small_stack(seed=4)
        x = rng.standard_normal((30, 3))
        sched = TrainingSchedule(replace_start=1.0, replace_end=1.0, total_steps=1)
        for mode in ("paper_literal", "standard_ema"):
            out, _ = train_rvq(stack, [seq(x)], sched, mode=mode, restart=False)
            indices = encode_frames(stack, x)
            residual = x.copy()
            for layer, book in enumerate(stack.layers):
                col = indices[:, layer]
                groups = {int(j): list(residual[col == j]) for j in np.unique(col)}
                want = ema_update(book, groups, mode)
                assert np.array_equal(out.layers[layer].vectors, want.vectors)
                assert np.array_equal(out.layers[layer].usage_counts, want.usage_counts)
                residual -= book.vectors[col]

    @pytest.mark.parametrize("mode", ["paper_literal", "standard_ema"])
    @pytest.mark.parametrize("dropout_mode", ["independent", "suffix"])
    def test_matches_replay_through_public_steps(self, rng, mode, dropout_mode):
        # every step, replayed through quantize_batch, ema_update and
        # restart_dead_entries on the same RNG streams, gives the same books;
        # one-vector sequences leave layers no row reaches, which still
        # decay and age
        corpus = self.make_corpus(rng, n_seqs=3, n_vecs=25, dim=4)
        corpus += self.make_corpus(rng, n_seqs=2, n_vecs=1, dim=4)
        x = np.concatenate([s.vectors for s in corpus])
        stack = init_rvq_stack((16, 8, 6), x, ema_decay=0.9, norm_beta=0.05, seed=2)
        sched = TrainingSchedule(replace_start=0.2, replace_end=0.8, total_steps=12)
        gumbel = GumbelConfig(temperature=0.5, enabled=True)
        dropout = DropoutConfig(keep_prob_per_layer=0.6, mode=dropout_mode)
        seed, epochs, dead_threshold = 9, 4, 2
        out, _ = train_rvq(
            stack, corpus, sched, gumbel, dropout, epochs,
            mode=mode, dead_threshold=dead_threshold, seed=seed,
        )

        work = stack.copy()
        gumbel_rng, dropout_rng = make_rng(seed, "gumbel"), make_rng(seed, "dropout")
        restarted = routed_steps = idle_layers = 0
        for step in range(epochs * len(corpus)):
            x = corpus[step % len(corpus)].vectors
            gate = vq_replacement_gate(
                sched, min(step, sched.total_steps), derive_seed(seed, f"gate:{step}"), 1
            )
            indices, _ = quantize_batch(
                work, x, gumbel, dropout, gumbel_rng=gumbel_rng, dropout_rng=dropout_rng
            )
            if not gate[0]:
                continue
            routed_steps += 1
            residual = x.copy()
            for layer, book in enumerate(work.layers):
                rows = np.flatnonzero(indices[:, layer] != INACTIVE)
                idle_layers += rows.size == 0
                batch = residual[rows]
                groups: dict[int, list] = {}
                for v, j in zip(batch, indices[rows, layer]):
                    groups.setdefault(int(j), []).append(v)
                residual[rows] -= book.vectors[indices[rows, layer]]
                book = ema_update(book, groups, mode)
                if rows.size:
                    book, replaced = restart_dead_entries(
                        book, batch, dead_threshold, derive_seed(seed, f"restart:{step}:{layer}")
                    )
                    restarted += len(replaced)
                work.layers[layer] = book
        assert restarted > 0 and 0 < routed_steps < epochs * len(corpus)
        assert idle_layers > 0
        for got, want in zip(out.layers, work.layers):
            assert np.array_equal(got.vectors, want.vectors)
            assert np.array_equal(got.usage_counts, want.usage_counts)

    def test_overflowing_codewords_raise(self, rng):
        # paper_literal adds the full mean to the decayed codeword, which
        # would overflow at this scale; selection refuses it first, so no
        # non-finite book may come out, whatever errstate the caller set
        x = rng.choice([-1e308, 1e308], size=(20, 3))
        stack = RvqStack([Codebook(x[:4].copy(), ema_decay=0.99)])
        sched = TrainingSchedule(replace_start=1.0, replace_end=1.0, total_steps=1)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            InvalidSample, match="too large for float32 selection"
        ):
            train_rvq(stack, [seq(x)], sched, mode="paper_literal")

    def test_input_stack_unmodified(self, rng):
        stack = small_stack()
        before = [book.vectors.copy() for book in stack.layers]
        train_rvq(stack, self.make_corpus(rng), TrainingSchedule(), epochs=2, seed=1)
        for book, prev in zip(stack.layers, before):
            assert np.array_equal(book.vectors, prev)

    def test_deterministic(self, rng):
        corpus = self.make_corpus(rng)
        kwargs = dict(
            gumbel=GumbelConfig(temperature=1.0, enabled=True, seed=5),
            dropout=DropoutConfig(keep_prob_per_layer=0.8, seed=6),
            epochs=3,
            seed=7,
        )
        a, ra = train_rvq(small_stack(), corpus, TrainingSchedule(), **kwargs)
        b, rb = train_rvq(small_stack(), corpus, TrainingSchedule(), **kwargs)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.vectors, lb.vectors)
            assert np.array_equal(la.usage_counts, lb.usage_counts)
        assert ra == rb

    def test_report_length_and_fields(self, rng):
        corpus = self.make_corpus(rng, n_seqs=3)
        _, report = train_rvq(small_stack(), corpus, TrainingSchedule(), epochs=2)
        assert len(report.steps) == 6
        assert [r.step for r in report.steps] == list(range(6))
        for rec in report.steps:
            assert rec.commit_loss >= 0
            assert rec.feature_mae >= 0
            assert len(rec.utilization) == 3
            assert all(0 <= u <= 1 for u in rec.utilization)

    def test_unknown_mode_rejected_without_a_routed_step(self, rng):
        sched = TrainingSchedule(replace_start=0.0, replace_end=0.0, total_steps=10)
        with pytest.raises(InvalidConfig, match="mode"):
            train_rvq(small_stack(), self.make_corpus(rng), sched, mode="fancy")

    def test_gate_off_freezes_codebooks(self, rng):
        stack = small_stack()
        sched = TrainingSchedule(replace_start=0.0, replace_end=0.0, total_steps=10)
        out, report = train_rvq(stack, self.make_corpus(rng), sched, epochs=2)
        for src, dst in zip(stack.layers, out.layers):
            assert np.array_equal(src.vectors, dst.vectors)
        assert len(report.steps) == 8  # still reported every step

    def test_training_tightens_fit(self, rng):
        # full replacement on clusterable data must shrink commit loss
        centers = rng.standard_normal((4, 3)) * 5
        x = centers[rng.integers(0, 4, 200)] + rng.standard_normal((200, 3)) * 0.05
        stack = init_rvq_stack((4,), x[:4], ema_decay=0.2, seed=0)
        sched = TrainingSchedule(replace_start=1.0, replace_end=1.0, total_steps=10)
        _, report = train_rvq(
            stack, [seq(x)], sched, epochs=10, mode="standard_ema", seed=2
        )
        assert report.steps[-1].commit_loss < report.steps[0].commit_loss

    def test_restart_revives_dead_entries(self, rng):
        # all codewords identical: without restart only one entry is used
        x = rng.standard_normal((100, 3))
        dup = Codebook(np.tile(x[0], (8, 1)), ema_decay=0.95)
        sched = TrainingSchedule(replace_start=1.0, replace_end=1.0, total_steps=50)
        out, report = train_rvq(
            RvqStack([dup]),
            [seq(x)],
            sched,
            epochs=40,
            mode="standard_ema",
            dead_threshold=3,
            restart=True,
            seed=3,
        )
        assert report.steps[-1].utilization[0] > report.steps[0].utilization[0]
