import io
import json
import math
import subprocess
import sys

import pytest

from rvqtok.errors import InvalidConfig, ScorerError
from rvqtok.metrics import accuracy
from rvqtok.scorers import (
    BOS,
    BigramScorer,
    RandomScorer,
    SubprocessScorer,
    builtin_scorer,
    perfect_scorer,
    run_plugin_loop,
)
from rvqtok.synth import make_bigram_world, make_random_eval_records


class TestPerfectScorer:
    def test_sums_ids(self):
        assert perfect_scorer((0,), (3, 4)) == (7.0, 2)

    def test_empty_candidate(self):
        with pytest.raises(ScorerError):
            perfect_scorer((), ())


class TestRandomScorer:
    def test_deterministic(self):
        s = RandomScorer(seed=4)
        assert s((1,), (2, 3)) == s((1,), (2, 3))

    def test_seed_changes_draw(self):
        a = RandomScorer(seed=0)((1,), (2,))
        b = RandomScorer(seed=1)((1,), (2,))
        assert a != b

    def test_per_token_nll_in_unit_interval(self):
        s = RandomScorer(seed=2)
        for cand in ((5,), (5, 6), (7, 8, 9)):
            nll, tokens = s((), cand)
            assert tokens == len(cand)
            assert 0.0 <= nll / tokens < 1.0

    def test_prefix_matters(self):
        s = RandomScorer(seed=3)
        assert s((1,), (9,)) != s((2,), (9,))

    def test_chance_level_accuracy(self):
        # no information about the positive: accuracy near 1/2
        records = make_random_eval_records(n_records=400, seed=5)
        acc = accuracy(records, RandomScorer(seed=6))
        assert 0.4 < acc < 0.6

    def test_empty_candidate(self):
        with pytest.raises(ScorerError):
            RandomScorer()((1,), ())


class TestBigramScorer:
    def test_vocab_validation(self):
        with pytest.raises(InvalidConfig):
            BigramScorer(vocab_size=0)

    def test_fit_rejects_out_of_vocab(self):
        with pytest.raises(InvalidConfig):
            BigramScorer(vocab_size=4).fit([[0, 9]])

    def test_add_one_smoothing_closed_form(self):
        # corpus "0 1": count(BOS,0)=1, count(0,1)=1
        s = BigramScorer(vocab_size=2).fit([[0, 1]])
        # P(0|BOS) = (1+1)/(1+2), P(1|0) = (1+1)/(1+2)
        nll, tokens = s((), (0, 1))
        assert tokens == 2
        assert nll == pytest.approx(-2 * math.log(2 / 3), abs=1e-12)

    def test_unseen_pair_uniform(self):
        s = BigramScorer(vocab_size=4).fit([[0, 1]])
        # context 3 never seen: P(t|3) = 1/4 for every t
        nll, _ = s((3,), (2,))
        assert nll == pytest.approx(math.log(4), abs=1e-12)

    def test_prefix_supplies_context(self):
        s = BigramScorer(vocab_size=4).fit([[0, 1, 2]])
        with_prefix, _ = s((1,), (2,))
        cold, _ = s((), (2,))  # BOS context instead
        assert with_prefix < cold

    def test_learns_cyclic_structure(self):
        corpus, records = make_bigram_world(seed=7)
        scorer = BigramScorer(vocab_size=16).fit(corpus)
        assert accuracy(records, scorer) > 0.9

    def test_empty_candidate(self):
        with pytest.raises(ScorerError):
            BigramScorer(vocab_size=2)((), ())


class TestBuiltinScorer:
    def test_by_name(self):
        assert builtin_scorer("perfect") is perfect_scorer
        assert isinstance(builtin_scorer("random", seed=1), RandomScorer)
        s = builtin_scorer("bigram", corpus=[[0, 1]], vocab_size=2)
        assert isinstance(s, BigramScorer)

    def test_bigram_needs_corpus(self):
        with pytest.raises(InvalidConfig):
            builtin_scorer("bigram")

    def test_unknown_name(self):
        with pytest.raises(InvalidConfig):
            builtin_scorer("transformer")


def run_loop(lines, scorer=perfect_scorer):
    out = io.StringIO()
    status = run_plugin_loop(scorer, stdin=io.StringIO(lines), stdout=out)
    return status, [json.loads(l) for l in out.getvalue().splitlines()]


class TestPluginLoop:
    def test_serves_requests_in_order(self):
        lines = (
            json.dumps({"prefix": [], "candidate": [1, 2]})
            + "\n"
            + json.dumps({"prefix": [0], "candidate": [5]})
            + "\n"
        )
        status, resps = run_loop(lines)
        assert status == 0
        assert resps == [{"nll": 3.0, "tokens": 2}, {"nll": 5.0, "tokens": 1}]

    def test_blank_lines_skipped(self):
        status, resps = run_loop("\n\n")
        assert status == 0
        assert resps == []

    def test_malformed_request_yields_error_and_status(self):
        status, resps = run_loop("not json\n")
        assert status == 1
        assert "error" in resps[0]

    def test_missing_field(self):
        status, resps = run_loop(json.dumps({"prefix": []}) + "\n")
        assert status == 1
        assert "error" in resps[0]

    def test_scorer_error_is_reported_not_raised(self):
        status, resps = run_loop(
            json.dumps({"prefix": [], "candidate": []}) + "\n"
        )
        assert status == 1
        assert "error" in resps[0]


PLUGIN_PERFECT = (
    "import sys, json\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    c = req['candidate']\n"
    "    print(json.dumps({'nll': float(sum(c)), 'tokens': len(c)}), flush=True)\n"
)


class TestSubprocessScorer:
    def test_round_trip(self):
        with SubprocessScorer([sys.executable, "-c", PLUGIN_PERFECT]) as s:
            assert s((0,), (3, 4)) == (7.0, 2)
            assert s((), (10,)) == (10.0, 1)

    def test_error_response(self):
        prog = (
            "import sys, json\n"
            "for line in sys.stdin:\n"
            "    print(json.dumps({'error': 'nope'}), flush=True)\n"
        )
        with SubprocessScorer([sys.executable, "-c", prog]) as s:
            with pytest.raises(ScorerError):
                s((), (1,))

    def test_invalid_json_response(self):
        prog = (
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print('garbage', flush=True)\n"
        )
        with SubprocessScorer([sys.executable, "-c", prog]) as s:
            with pytest.raises(ScorerError):
                s((), (1,))

    def test_missing_fields_response(self):
        prog = (
            "import sys, json\n"
            "for line in sys.stdin:\n"
            "    print(json.dumps({'nll': 1.0}), flush=True)\n"
        )
        with SubprocessScorer([sys.executable, "-c", prog]) as s:
            with pytest.raises(ScorerError):
                s((), (1,))

    def test_early_exit_detected(self):
        with SubprocessScorer([sys.executable, "-c", "pass"]) as s:
            with pytest.raises(ScorerError):
                s((), (1,))
                s((), (1,))  # at least one call must see the dead process

    def test_close_kills_a_plugin_that_will_not_exit(self, monkeypatch):
        # a plugin that ignores EOF; only the first wait is made to time out
        s = SubprocessScorer([sys.executable, "-c", "import time; time.sleep(60)"])
        proc = s._proc
        real_wait = proc.wait
        timeouts = []

        def wait(timeout=None):
            timeouts.append(timeout)
            if len(timeouts) == 1:
                raise subprocess.TimeoutExpired(proc.args, timeout)
            return real_wait(timeout)

        monkeypatch.setattr(proc, "wait", wait)
        with pytest.raises(ScorerError, match="killed"):
            s.close()
        assert timeouts == [10, None]
        assert proc.returncode is not None and proc.returncode != 0
        assert proc.stdout.closed

    def test_close_closes_both_pipes(self):
        s = SubprocessScorer([sys.executable, "-c", PLUGIN_PERFECT])
        assert s((), (1,)) == (1.0, 1)
        s.close()
        assert s._proc.stdin.closed and s._proc.stdout.closed

    def test_empty_argv(self):
        with pytest.raises(InvalidConfig):
            SubprocessScorer([])
