import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rvqtok.errors import EmptyInput, InvalidConfig, ScorerError
from rvqtok.metrics import (
    EvalRecord,
    accuracy,
    codebook_utilization,
    interlayer_mi,
    perplexity_compare,
    token_entropy,
    wer,
)
from rvqtok.scorers import perfect_scorer
from rvqtok.synth import make_oracle_eval_records


def full_matrix_levenshtein(ref, hyp):
    # independent oracle: the classic full DP table
    n, m = len(ref), len(hyp)
    d = np.zeros((n + 1, m + 1), dtype=int)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            d[i, j] = min(d[i - 1, j] + 1, d[i, j - 1] + 1, d[i - 1, j - 1] + cost)
    return d[n, m]


class TestWer:
    def test_identical(self):
        assert wer("the cat sat".split(), "the cat sat".split()) == 0.0

    def test_single_substitution(self):
        assert wer(["a", "b", "c"], ["a", "x", "c"]) == pytest.approx(1 / 3)

    def test_deletion_and_insertion(self):
        assert wer(["a", "b"], ["a"]) == 0.5
        assert wer(["a"], ["a", "b"]) == 1.0

    def test_empty_hypothesis(self):
        assert wer(["a", "b"], []) == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(InvalidConfig):
            wer([], ["a"])

    def test_can_exceed_one(self):
        assert wer(["a"], ["x", "y", "z"]) == 3.0

    def test_works_on_token_ids(self):
        assert wer([1, 2, 3], [1, 9, 3]) == pytest.approx(1 / 3)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=80)
    def test_full_matrix_oracle(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        ref = [int(t) for t in rng.integers(0, 5, size=rng.integers(1, 12))]
        hyp = [int(t) for t in rng.integers(0, 5, size=rng.integers(0, 12))]
        assert wer(ref, hyp) == pytest.approx(
            full_matrix_levenshtein(ref, hyp) / len(ref)
        )

    def test_relabeling_invariance(self):
        # WER sees only equality, not the ids themselves
        ref, hyp = [1, 2, 2, 3], [1, 3, 2]
        remap = {1: 10, 2: 20, 3: 30}
        assert wer(ref, hyp) == wer([remap[t] for t in ref], [remap[t] for t in hyp])


class TestEvalRecord:
    def test_needs_two_candidates(self):
        with pytest.raises(InvalidConfig):
            EvalRecord(prefix=(1,), candidates=((1,),), positive_index=0)

    def test_positive_index_range(self):
        with pytest.raises(InvalidConfig):
            EvalRecord(prefix=(1,), candidates=((1,), (2,)), positive_index=2)

    def test_rejects_empty_candidate(self):
        with pytest.raises(InvalidConfig):
            EvalRecord(prefix=(1,), candidates=((1,), ()), positive_index=0)

    def test_empty_prefix_allowed(self):
        EvalRecord(prefix=(), candidates=((1,), (2,)), positive_index=0)


def table_scorer(table):
    """Scorer reading per-candidate NLL from a dict keyed by candidate."""

    def score(prefix, candidate):
        return table[tuple(candidate)], len(candidate)

    return score


class TestPerplexityCompare:
    def setup_method(self):
        self.record = EvalRecord(
            prefix=(7,), candidates=((1, 1), (2, 2), (3, 3)), positive_index=1
        )

    def test_positive_wins(self):
        scorer = table_scorer({(1, 1): 4.0, (2, 2): 1.0, (3, 3): 4.0})
        assert perplexity_compare(self.record, scorer)

    def test_positive_loses(self):
        scorer = table_scorer({(1, 1): 0.5, (2, 2): 1.0, (3, 3): 4.0})
        assert not perplexity_compare(self.record, scorer)

    def test_tie_counts_as_incorrect(self):
        scorer = table_scorer({(1, 1): 1.0, (2, 2): 1.0, (3, 3): 4.0})
        assert not perplexity_compare(self.record, scorer)

    def test_per_token_normalization(self):
        # longer candidate with larger total NLL still wins per token
        record = EvalRecord(
            prefix=(), candidates=((1, 1, 1, 1), (2,)), positive_index=0
        )
        scorer = table_scorer({(1, 1, 1, 1): 2.0, (2,): 1.0})
        assert perplexity_compare(record, scorer)  # 0.5 < 1.0 per token

    def test_monotone_invariance(self):
        # adding a constant per-token shift preserves the outcome
        base = {(1, 1): 4.0, (2, 2): 1.0, (3, 3): 3.0}
        shifted = {c: v + 5.0 * len(c) / 2 for c, v in base.items()}
        r = self.record
        assert perplexity_compare(r, table_scorer(base)) == perplexity_compare(
            r, table_scorer(shifted)
        )

    def test_scorer_exception_wrapped(self):
        def broken(prefix, candidate):
            raise RuntimeError("no model")

        with pytest.raises(ScorerError):
            perplexity_compare(self.record, broken)

    def test_bad_token_count(self):
        for count in (0, -1, 1.5, True):
            with pytest.raises(ScorerError):
                perplexity_compare(
                    self.record, lambda p, c, n=count: (1.0, n)
                )

    def test_numpy_token_count_ok(self):
        scorer = lambda p, c: (float(len(c)), np.int64(len(c)))
        assert isinstance(perplexity_compare(self.record, scorer), bool)

    def test_nonfinite_nll(self):
        with pytest.raises(ScorerError):
            perplexity_compare(self.record, lambda p, c: (math.inf, 1))

    def test_score_all_that_stops_early(self):
        class TwoAnswers:
            """An ordered-stream scorer that answers only two pairs."""

            def score_all(self, pairs):
                yield from ((1.0, len(c)) for _, c in list(pairs)[:2])

        with pytest.raises(ScorerError, match="fewer answers than candidates"):
            perplexity_compare(self.record, TwoAnswers())


class TestAccuracy:
    def test_perfect_scorer_on_oracle_records(self):
        records = make_oracle_eval_records(n_records=20, seed=1)
        assert accuracy(records, perfect_scorer) == 1.0

    def test_anti_oracle(self):
        # flip the positive to a known-expensive candidate
        records = make_oracle_eval_records(n_records=10, seed=2)
        flipped = [
            EvalRecord(
                prefix=r.prefix,
                candidates=r.candidates,
                positive_index=(r.positive_index + 1) % len(r.candidates),
            )
            for r in records
        ]
        assert accuracy(flipped, perfect_scorer) == 0.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            accuracy([], perfect_scorer)

    def test_mixed(self):
        records = make_oracle_eval_records(n_records=4, seed=3)
        bad = EvalRecord(
            prefix=records[0].prefix,
            candidates=records[0].candidates,
            positive_index=(records[0].positive_index + 1)
            % len(records[0].candidates),
        )
        assert accuracy(records + [bad], perfect_scorer) == pytest.approx(4 / 5)


class TestUtilization:
    def test_single_index(self):
        frames = np.zeros((10, 2), dtype=int)
        assert codebook_utilization(frames, 0, 8) == pytest.approx(1 / 8)

    def test_full_coverage(self):
        frames = np.arange(8)[:, None]
        assert codebook_utilization(frames, 0, 8) == 1.0

    def test_eoa_value_excluded(self):
        # index K marks end-of-audio, not a codeword
        frames = np.array([[0], [8], [3]])
        assert codebook_utilization(frames, 0, 8) == pytest.approx(2 / 8)

    def test_accepts_index_array(self):
        idx = np.array([[0, 1], [2, 1], [0, 3]])
        assert codebook_utilization(idx, 1, 4) == pytest.approx(2 / 4)

    def test_layer_out_of_range(self):
        with pytest.raises(InvalidConfig):
            codebook_utilization(np.zeros((3, 2), dtype=int), 5, 4)

    def test_bad_k(self):
        with pytest.raises(InvalidConfig):
            codebook_utilization(np.zeros((3, 2), dtype=int), 0, 0)

    def test_empty_frames(self):
        assert codebook_utilization([], 0, 8) == 0.0


class TestEntropy:
    def test_constant_stream_zero(self):
        assert token_entropy(np.zeros((50, 1), dtype=int), 0) == 0.0

    def test_uniform_reaches_log_k(self):
        idx = np.repeat(np.arange(8), 5)[:, None]
        assert token_entropy(idx, 0) == pytest.approx(math.log(8))

    def test_histogram_oracle(self, rng):
        idx = rng.integers(0, 6, size=(200, 1))
        counts = np.bincount(idx[:, 0], minlength=6)
        p = counts[counts > 0] / 200
        want = float(-np.sum(p * np.log(p)))
        assert token_entropy(idx, 0) == pytest.approx(want, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            token_entropy([], 0)

    def test_token_frames_accepted(self):
        frames = [(0,), (1,), (0,), (1,)]
        assert token_entropy(frames, 0) == pytest.approx(math.log(2))


class TestInterlayerMi:
    def test_identical_layers_give_entropy(self, rng):
        col = rng.integers(0, 5, size=(300, 1))
        idx = np.hstack([col, col])
        assert interlayer_mi(idx, 0, 1) == pytest.approx(
            token_entropy(idx, 0), abs=1e-12
        )

    def test_bijective_map_gives_entropy(self, rng):
        col = rng.integers(0, 5, size=(300, 1))
        idx = np.hstack([col, (col * 7 + 3) % 11])
        assert interlayer_mi(idx, 0, 1) == pytest.approx(
            token_entropy(idx, 0), abs=1e-12
        )

    def test_independent_near_bias(self, rng):
        n, ka, kb = 60_000, 4, 4
        idx = np.hstack(
            [rng.integers(0, ka, size=(n, 1)), rng.integers(0, kb, size=(n, 1))]
        )
        mi = interlayer_mi(idx, 0, 1)
        bias = (ka - 1) * (kb - 1) / (2.0 * n)  # first-order plug-in MI bias
        assert mi < 10 * bias  # true MI 0; estimate sits at the bias scale

    def test_bounded_by_marginals(self, rng):
        idx = rng.integers(0, 6, size=(500, 2))
        mi = interlayer_mi(idx, 0, 1)
        assert 0.0 <= mi <= min(token_entropy(idx, 0), token_entropy(idx, 1)) + 1e-12

    def test_symmetry(self, rng):
        idx = rng.integers(0, 6, size=(400, 2))
        assert interlayer_mi(idx, 0, 1) == pytest.approx(
            interlayer_mi(idx, 1, 0), abs=1e-12
        )

    def test_joint_histogram_oracle(self, rng):
        # brute-force MI over the explicit joint distribution
        idx = rng.integers(0, 4, size=(250, 2))
        n = idx.shape[0]
        mi = 0.0
        for a in range(4):
            for b in range(4):
                pab = np.sum((idx[:, 0] == a) & (idx[:, 1] == b)) / n
                if pab == 0:
                    continue
                pa = np.sum(idx[:, 0] == a) / n
                pb = np.sum(idx[:, 1] == b) / n
                mi += pab * math.log(pab / (pa * pb))
        assert interlayer_mi(idx, 0, 1) == pytest.approx(mi, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            interlayer_mi([], 0, 1)
