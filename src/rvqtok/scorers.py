"""Built-in scorers and the out-of-process scorer plugin protocol.

A scorer maps (prefix, candidate) to (total NLL, token count). Three
built-ins cover the test matrix: a content oracle whose NLL is the sum
of candidate ids (fixtures arrange for the positive candidate to have
the smallest mean id), a seeded hash scorer whose per-token NLL is an
iid uniform draw per (prefix, candidate), and an add-one-smoothed
bigram model fit on a toy corpus.

External scorers run as child processes speaking line-delimited JSON:
request {"prefix": [...], "candidate": [...]}, response {"nll": <float>,
"tokens": <int>} (or {"error": <str>}), one of each per line, answers in
request order. ``fileformats.check_fields`` types both ends: ids are
integers that fit int64, nll a finite number and tokens an integer; a
request that breaks them gets an error answer, and an answer that does
is a ScorerError. The client pipelines: it writes requests ahead while
at most _WINDOW_BYTES of them are unanswered, so a plugin must keep
reading stdin while it answers. A plugin may batch its answers, but
must flush them before it blocks on a read. A plugin that sends no
answer within RESPONSE_DEADLINE_S of the client starting to wait for
one is killed, and the client raises ScorerError (exit 5 from the CLI).
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field

from .errors import InvalidConfig, ScorerError
from .fileformats import check_fields

BOS = -1  # bigram context for the first token


def perfect_scorer(prefix, candidate) -> tuple[float, int]:
    """Content oracle: NLL = sum of candidate ids; id order decides ranking."""
    if len(candidate) == 0:
        raise ScorerError("empty candidate")
    return float(sum(candidate)), len(candidate)


@dataclass(frozen=True)
class RandomScorer:
    """Per-token NLL drawn uniform(0,1) from a hash of (seed, prefix, candidate).

    Deterministic per call site, but iid across distinct candidates, so
    a two-way comparison is a fair coin.
    """

    seed: int = 0

    def __call__(self, prefix, candidate) -> tuple[float, int]:
        if len(candidate) == 0:
            raise ScorerError("empty candidate")
        payload = json.dumps(
            [self.seed, list(map(int, prefix)), list(map(int, candidate))]
        ).encode()
        digest = hashlib.sha256(payload).digest()
        u = int.from_bytes(digest[:8], "little") / 2**64
        return u * len(candidate), len(candidate)


@dataclass
class BigramScorer:
    """Add-one smoothed bigram model over integer token ids."""

    vocab_size: int
    counts: dict[tuple[int, int], int] = field(default_factory=dict)
    context_totals: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.vocab_size < 2**63:
            raise InvalidConfig("vocab size must be in [1, 2**63): token ids are int64")

    def fit(self, corpus) -> "BigramScorer":
        for seq in corpus:
            prev = BOS
            for tok in seq:
                tok = int(tok)
                if not 0 <= tok < self.vocab_size:
                    raise InvalidConfig(f"token {tok} outside vocab")
                self.counts[(prev, tok)] = self.counts.get((prev, tok), 0) + 1
                self.context_totals[prev] = self.context_totals.get(prev, 0) + 1
                prev = tok
        return self

    def _nll_of(self, prev: int, tok: int) -> float:
        num = self.counts.get((prev, tok), 0) + 1
        den = self.context_totals.get(prev, 0) + self.vocab_size
        return -math.log(num / den)

    def __call__(self, prefix, candidate) -> tuple[float, int]:
        if len(candidate) == 0:
            raise ScorerError("empty candidate")
        prev = int(prefix[-1]) if len(prefix) else BOS
        nll = 0.0
        for tok in candidate:
            nll += self._nll_of(prev, int(tok))
            prev = int(tok)
        return nll, len(candidate)


_READ_SIZE = 65536  # bytes asked of one read from a pipe
# the field types of the plugin wire, as fileformats.check_fields names them
_REQUEST_FIELDS = {"prefix": "list of int", "candidate": "list of int"}
_ANSWER_FIELDS = {"nll": "float", "tokens": "int"}


def run_plugin_loop(scorer, stdin=None, stdout=None) -> int:
    """Serve a scorer over the line-delimited JSON protocol until EOF.

    Each request line {"prefix", "candidate"} gets one response line
    {"nll", "tokens"}. Requests are read as bytes from stdin's binary
    ``buffer`` (sys.stdin by default). Every complete request that one
    read brings in is answered, then those answers go out in one write
    and one flush, before the next read. A request that is not JSON or
    whose fields are missing or not lists of ids, and a scorer error,
    produce an error response and a nonzero return.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    status = 0

    def answer(lines) -> None:
        nonlocal status
        out = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                req = check_fields(json.loads(line), _REQUEST_FIELDS, "request", _REQUEST_FIELDS)
                nll, tokens = scorer(tuple(req["prefix"]), tuple(req["candidate"]))
                resp = {"nll": float(nll), "tokens": int(tokens)}
            except Exception as exc:
                resp = {"error": str(exc)}
                status = 1
            out.append(json.dumps(resp) + "\n")
        if out:
            stdout.write("".join(out))
            stdout.flush()

    partial = b""  # the start of a request line still arriving
    for chunk in iter(lambda: stdin.buffer.read1(_READ_SIZE), b""):
        lines = (partial + chunk).split(b"\n")
        partial = lines.pop()
        answer(lines)
    answer([partial])  # a last request without its newline
    return status


RESPONSE_DEADLINE_S = 60.0  # longest wait for one plugin answer
# Unanswered request bytes the client lets through. Under the 64 KiB pipe
# buffer, so a write of requests never blocks while the plugin is blocked
# writing answers nobody reads yet. The client tops the window up once a
# quarter of it is free, so a plugin that finishes a batch of answers
# finds the next requests already waiting.
_WINDOW_BYTES = 32 * 1024


def _request_line(prefix, candidate) -> bytes:
    req = {"prefix": list(map(int, prefix)), "candidate": list(map(int, candidate))}
    return (json.dumps(req) + "\n").encode()


def _parse_answer(line: bytes) -> tuple[float, int]:
    try:
        resp = json.loads(line)
        if type(resp) is dict and "error" in resp:
            raise ScorerError(f"plugin error: {resp['error']}")
        check_fields(resp, _ANSWER_FIELDS, "plugin answer", _ANSWER_FIELDS)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ScorerError(f"plugin sent invalid JSON: {line!r}") from exc
    except InvalidConfig as exc:  # a field missing or of another type
        raise ScorerError(str(exc)) from exc
    return float(resp["nll"]), resp["tokens"]


class SubprocessScorer:
    """Scorer backed by a child process speaking the plugin protocol.

    score_all streams requests ahead of the answers; a call is score_all
    over one pair. Use as a context manager or call close().
    """

    def __init__(self, argv: list[str]):
        if not argv:
            raise InvalidConfig("plugin command must be non-empty")
        self._proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
        )
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._proc.stdout, selectors.EVENT_READ)
        self._lines = collections.deque()  # answer lines read, not yet used
        self._partial = b""  # the start of an answer line still arriving
        self._owed = 0  # requests written whose answers are not yet read

    def __call__(self, prefix, candidate) -> tuple[float, int]:
        (answer,) = self.score_all([(prefix, candidate)])
        return answer

    def score_all(self, pairs):
        """Yield (nll, tokens) for each (prefix, candidate) pair, in order.

        Requests go out in batches while at most _WINDOW_BYTES of them
        are unanswered; a request larger than that goes alone. A failed
        write is raised only when the first answer it cost is needed,
        so answers that arrived before it are still used. One stream at
        a time: answers an abandoned stream still owes are dropped
        before the next one starts.
        """
        for _ in range(self._owed):
            self._read_line()
        todo = iter(pairs)
        sizes = collections.deque()  # bytes of each request awaiting its answer
        unanswered = 0
        failure = None  # a ScorerError owed once the answers before it are used
        ahead = None  # the next request line, held back by the window
        while True:
            if failure is None and unanswered <= _WINDOW_BYTES * 3 // 4:
                batch = []
                room = _WINDOW_BYTES - unanswered
                while True:
                    if ahead is None:
                        pair = next(todo, None)
                        if pair is None:
                            break
                        ahead = _request_line(*pair)
                    if (batch or sizes) and len(ahead) > room:
                        break
                    batch.append(ahead)
                    room -= len(ahead)
                    ahead = None
                if batch:
                    failure = self._send(batch)
                    if failure is None:
                        sizes.extend(map(len, batch))
                        unanswered += sum(map(len, batch))
            if not sizes:
                if failure is not None:
                    raise failure
                return
            line = self._read_line()
            unanswered -= sizes.popleft()
            yield _parse_answer(line)

    def _send(self, lines: list[bytes]) -> ScorerError | None:
        """Write request lines; a failure is returned, not raised."""
        if self._proc.poll() is not None:
            return ScorerError("plugin process has exited")
        data = memoryview(b"".join(lines))
        try:
            while data:
                data = data[os.write(self._proc.stdin.fileno(), data) :]
        except OSError as exc:  # BrokenPipeError once the plugin is gone
            return ScorerError(f"plugin pipe failure: {exc}")
        self._owed += len(lines)
        return None

    def _read_line(self) -> bytes:
        """The next answer line; killing the plugin and raising ScorerError
        if none arrives within RESPONSE_DEADLINE_S."""
        deadline = time.monotonic() + RESPONSE_DEADLINE_S
        while not self._lines:
            if not self._selector.select(max(deadline - time.monotonic(), 0.0)):
                self._proc.kill()
                self._proc.wait()
                raise ScorerError(
                    f"plugin sent no answer within {RESPONSE_DEADLINE_S:g} s; killed"
                )
            data = os.read(self._proc.stdout.fileno(), _READ_SIZE)
            if not data:
                raise ScorerError("plugin closed its stdout mid-protocol")
            lines = (self._partial + data).split(b"\n")
            self._partial = lines.pop()
            self._lines.extend(lines)
        self._owed -= 1
        return self._lines.popleft()

    def close(self) -> None:
        """Close the plugin's stdin and reap it, killing it if it will not
        exit; its stdout is closed either way. A plugin that still owes
        answers (a stream stopped early) is killed at once, since nothing
        will read them and it could block writing them."""
        self._selector.close()
        if self._owed:
            self._proc.kill()
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired as exc:
            self._proc.kill()
            self._proc.wait()
            raise ScorerError("plugin outlived its closed stdin; killed") from exc
        finally:
            self._proc.stdout.close()

    def __enter__(self) -> "SubprocessScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
