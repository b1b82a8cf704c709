import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

from rvqtok import scorers
from rvqtok.errors import InvalidConfig, MalformedWire, ScorerError
from rvqtok.metrics import accuracy
from rvqtok.scorers import (
    BOS,
    BigramScorer,
    RandomScorer,
    SubprocessScorer,
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

    @pytest.mark.parametrize(
        "prefix, candidate",
        [((1,), (99,)), ((1,), (2, 4)), ((-5,), (1,)), ((2, -1), (1,)), ((0, 4), (1,))],
    )
    def test_refuses_ids_outside_vocab(self, prefix, candidate):
        s = BigramScorer(vocab_size=4).fit([[0, 1, 2], [1, 2, 3]])
        with pytest.raises(MalformedWire, match=r"outside vocab \[0, 4\)"):
            s(prefix, candidate)

    def test_only_the_last_prefix_id_is_context(self):
        s = BigramScorer(vocab_size=4).fit([[0, 1, 2]])
        assert s((99, 1), (2,)) == s((1,), (2,))


def run_loop(lines, scorer=perfect_scorer):
    out = io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(lines.encode()))
    status = run_plugin_loop(scorer, stdin=stdin, stdout=out)
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
        bad = [
            "not json",
            "[1, 2]",
            # each request field as a value that is not a list of ids, and
            # as a list holding one; an empty prefix is a valid request
            *(
                json.dumps({"prefix": [1], "candidate": [2], field: value})
                for field in ("prefix", "candidate")
                for wrong in ("1", 1.5, True, None, [])
                for value in ([wrong], *([] if wrong == [] else [wrong]))
            ),
            json.dumps({"prefix": [1], "candidate": [2**63]}),
        ]
        # each bad request gets an error answer; a good one after them is served
        good = json.dumps({"prefix": [], "candidate": [3]})
        status, resps = run_loop("".join(line + "\n" for line in [*bad, good]))
        assert status == 1
        assert [list(r) for r in resps[:-1]] == [["error"]] * len(bad)
        assert resps[-1] == {"nll": 3.0, "tokens": 1}

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

    def test_last_request_without_newline(self):
        status, resps = run_loop(json.dumps({"prefix": [], "candidate": [4]}))
        assert (status, resps) == (0, [{"nll": 4.0, "tokens": 1}])


class ChunkedStdin:
    """A binary stdin whose reads return the given chunks, one per read."""

    def __init__(self, chunks):
        self.buffer = self
        self.chunks = list(chunks)

    def read1(self, size):
        return self.chunks.pop(0) if self.chunks else b""


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = self.flushes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)

    def flush(self):
        self.flushes += 1


class TestBatchedPluginLoop:
    def test_one_write_and_flush_per_read(self):
        reqs = b"".join(
            json.dumps({"prefix": [], "candidate": [i + 1]}).encode() + b"\n"
            for i in range(10)
        )
        # a request split across reads is answered once its newline arrives
        chunks = [reqs[:100], reqs[100:101], reqs[101:]]
        out = CountingStdout()
        assert run_plugin_loop(perfect_scorer, ChunkedStdin(chunks), out) == 0
        answers = [json.loads(l) for l in out.getvalue().splitlines()]
        assert answers == [{"nll": float(i + 1), "tokens": 1} for i in range(10)]
        # the one-byte read completes no request, so it costs no write
        assert out.writes == out.flushes == 2


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


def plugin(body):
    """argv of a Python plugin running body."""
    return [sys.executable, "-c", "import sys, json, os, time\n" + body]


# answers a request with perfect_scorer's answer, or an error at request ERR
ANSWER = (
    "def answer(n, line):\n"
    "    c = json.loads(line)['candidate']\n"
    "    if n == ERR:\n"
    "        return json.dumps({'error': 'boom'}) + '\\n'\n"
    "    return json.dumps({'nll': float(sum(c)), 'tokens': len(c)}) + '\\n'\n"
)


def pairs(n):
    return [((i,), (i % 7 + 1, 2)) for i in range(n)]


def want(n):
    return [perfect_scorer(p, c) for p, c in pairs(n)]


class TestPipelinedScorer:
    def test_many_windows_in_order(self):
        # about 200 KB of requests, several windows' worth
        with SubprocessScorer(plugin(PLUGIN_PERFECT)) as s:
            assert list(s.score_all(pairs(5000))) == want(5000)
            # the scorer serves a second stream, and single calls
            assert list(s.score_all(pairs(3))) == want(3)
            assert s((0,), (3, 4)) == (7.0, 2)

    def test_answers_split_across_reads(self):
        # a few bytes per write, flushed each time
        body = "ERR = 0\n" + ANSWER + (
            "for n, line in enumerate(sys.stdin, 1):\n"
            "    out = answer(n, line)\n"
            "    for i in range(0, len(out), 3):\n"
            "        sys.stdout.write(out[i:i + 3])\n"
            "        sys.stdout.flush()\n"
        )
        with SubprocessScorer(plugin(body)) as s:
            assert list(s.score_all(pairs(300))) == want(300)

    def test_plugin_that_answers_after_reading_a_whole_batch(self):
        # answers every complete line of each read at once, in one write
        body = "ERR = 0\n" + ANSWER + (
            "n, rest = 0, b''\n"
            "while True:\n"
            "    data = os.read(0, 1 << 20)\n"
            "    if not data:\n"
            "        break\n"
            "    *lines, rest = (rest + data).split(b'\\n')\n"
            "    out = []\n"
            "    for line in lines:\n"
            "        n += 1\n"
            "        out.append(answer(n, line))\n"
            "    os.write(1, ''.join(out).encode())\n"
        )
        with SubprocessScorer(plugin(body)) as s:
            assert list(s.score_all(pairs(3000))) == want(3000)

    def test_error_mid_window_then_close_is_prompt(self):
        body = "ERR = 40\n" + ANSWER + (
            "for n, line in enumerate(sys.stdin, 1):\n"
            "    print(answer(n, line), end='', flush=True)\n"
            "time.sleep(60)\n"  # would outlive close()'s grace period
        )
        s = SubprocessScorer(plugin(body))
        got = []
        with pytest.raises(ScorerError, match="boom"):
            for answer in s.score_all(pairs(3000)):
                got.append(answer)
        assert got == want(39)
        t0 = time.monotonic()
        s.close()
        assert time.monotonic() - t0 < 5
        assert s._proc.returncode is not None

    def test_write_failure_costs_only_later_answers(self, monkeypatch):
        # two 37-byte requests per write; the second write fails
        monkeypatch.setattr(scorers, "_WRITE_BYTES", 2 * 37)
        real_write, writes = os.write, []

        def write(fd, data):
            writes.append(len(data))
            if len(writes) == 2:
                raise BrokenPipeError(32, "Broken pipe")
            return real_write(fd, data)

        monkeypatch.setattr(scorers.os, "write", write)
        got = []
        with SubprocessScorer(plugin(PLUGIN_PERFECT)) as s:
            with pytest.raises(ScorerError, match="pipe failure"):
                for answer in s.score_all(pairs(10)):
                    got.append(answer)
        # both requests of the first batch were answered and used
        assert got == want(2)

    def test_request_larger_than_the_window_goes_alone(self, monkeypatch):
        monkeypatch.setattr(scorers, "_WRITE_BYTES", 64)
        big = [((), tuple(range(1, 40))), ((5,), (1,)), ((), tuple(range(1, 40)))]
        with SubprocessScorer(plugin(PLUGIN_PERFECT)) as s:
            assert list(s.score_all(big)) == [perfect_scorer(p, c) for p, c in big]

    def test_plugin_that_reads_seven_bytes_at_a_time(self):
        # the pipe takes a part of most writes
        body = "ERR = 0\n" + ANSWER + (
            "n, rest = 0, b''\n"
            "while data := os.read(0, 7):\n"
            "    *lines, rest = (rest + data).split(b'\\n')\n"
            "    for line in lines:\n"
            "        n += 1\n"
            "        os.write(1, answer(n, line).encode())\n"
        )
        with SubprocessScorer(plugin(body)) as s:
            assert list(s.score_all(pairs(3000))) == want(3000)

    def test_a_full_pipe_is_not_a_pipe_failure(self, monkeypatch):
        real_write, writes = os.write, []

        def write(fd, data):
            writes.append(len(data))
            if len(writes) == 1:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return real_write(fd, data)

        monkeypatch.setattr(scorers.os, "write", write)
        with SubprocessScorer(plugin(PLUGIN_PERFECT)) as s:
            assert list(s.score_all(pairs(10))) == want(10)
        assert len(writes) >= 2

    def test_abandoned_stream_answers_are_dropped(self):
        with SubprocessScorer(plugin(PLUGIN_PERFECT)) as s:
            stream = s.score_all(pairs(100))
            assert next(stream) == want(1)[0]
            stream.close()
            assert s((), (9,)) == (9.0, 1)

    def test_abandoned_stream_with_requests_unsent(self):
        # about 185 KB of requests: most are still unsent, one may be half
        # written, when the stream is dropped
        with SubprocessScorer(plugin(PLUGIN_PERFECT)) as s:
            stream = s.score_all(pairs(5000))
            assert next(stream) == want(1)[0]
            stream.close()
            assert s((), (9,)) == (9.0, 1)
            assert list(s.score_all(pairs(3))) == want(3)


class TestResponseDeadline:
    @pytest.fixture(autouse=True)
    def short_deadline(self, monkeypatch):
        monkeypatch.setattr(scorers, "RESPONSE_DEADLINE_S", 0.2)

    def test_plugin_that_never_answers(self):
        t0 = time.monotonic()
        s = SubprocessScorer(plugin("for line in sys.stdin:\n    pass\n"))
        with pytest.raises(ScorerError, match="no answer within 0.2 s"):
            list(s.score_all(pairs(5)))
        assert s._proc.returncode is not None  # killed and reaped
        s.close()
        assert time.monotonic() - t0 < 5

    def test_plugin_that_answers_once_then_hangs(self, monkeypatch):
        body = (
            "line = sys.stdin.readline()\n"
            "print(json.dumps({'nll': 1.0, 'tokens': 1}), flush=True)\n"
            "time.sleep(60)\n"
        )
        s = SubprocessScorer(plugin(body))
        # the plugin's start-up is not part of what this test times
        monkeypatch.setattr(scorers, "RESPONSE_DEADLINE_S", 60.0)
        assert s((), (1,)) == (1.0, 1)
        monkeypatch.setattr(scorers, "RESPONSE_DEADLINE_S", 0.2)
        t0 = time.monotonic()
        with pytest.raises(ScorerError, match="no answer"):
            s((), (2,))
        assert s._proc.returncode is not None
        s.close()
        assert time.monotonic() - t0 < 5

    def test_plugin_that_never_reads_a_request_larger_than_the_pipe(self):
        # about 120 KB of request: a blocking write would wait for the plugin
        s = SubprocessScorer(plugin("time.sleep(10)\n"))
        t0 = time.monotonic()
        with pytest.raises(ScorerError, match="no answer within 0.2 s"):
            s((), tuple(range(20_000)))
        assert time.monotonic() - t0 < 3
        assert s._proc.returncode is not None
        s.close()

    def test_answer_line_without_end(self, monkeypatch):
        # bytes without a newline, for as long as the client reads them
        body = (
            "end = time.monotonic() + 10\n"
            "while time.monotonic() < end:\n"
            "    os.write(1, b'7' * 65536)\n"
        )
        s = SubprocessScorer(plugin(body))
        # the line bound ends this wait, not the deadline
        monkeypatch.setattr(scorers, "RESPONSE_DEADLINE_S", 60.0)
        t0 = time.monotonic()
        with pytest.raises(ScorerError, match="answer line longer than 65536 bytes"):
            s((), (1,))
        assert time.monotonic() - t0 < 2
        s.close()
        assert s._proc.returncode is not None
