"""Built-in scorers and the out-of-process scorer plugin protocol.

A scorer maps (prefix, candidate) to (total NLL, token count). Three
built-ins cover the test matrix: a content oracle whose NLL is the sum
of candidate ids (fixtures arrange for the positive candidate to have
the smallest mean id), a seeded hash scorer whose per-token NLL is an
iid uniform draw per (prefix, candidate), and an add-one-smoothed
bigram model fit on a toy corpus, which refuses ids outside its vocab
with MalformedWire (exit 4 from the CLI).

External scorers run as child processes speaking line-delimited JSON:
request {"prefix": [...], "candidate": [...]}, response {"nll": <float>,
"tokens": <int>} (or {"error": <str>}), one of each per line, answers in
request order. ``fileformats.check_fields`` types both ends: ids are
integers that fit int64, nll a finite number and tokens an integer; a
request that breaks them gets an error answer, and an answer that does
is a ScorerError. The client pipelines: it writes requests ahead as far
as the pipe has room, without blocking, so a plugin must keep reading
stdin while it answers. A plugin may batch its answers, but must flush
them before it blocks on a read. A plugin that sends no answer within
RESPONSE_DEADLINE_S of the client starting to wait for one, also one
that stops reading its requests, is killed, and the client raises
ScorerError (exit 5 from the CLI); an answer line longer than
_READ_SIZE bytes is a ScorerError too.
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

from .errors import InvalidConfig, MalformedWire, ScorerError
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
        """MalformedWire for an id outside [0, vocab_size), in the last
        prefix id or the candidate, as the corpus reader refuses one."""
        if len(candidate) == 0:
            raise ScorerError("empty candidate")
        context, ids = [int(t) for t in prefix[-1:]], [int(t) for t in candidate]
        bad = [t for t in context + ids if not 0 <= t < self.vocab_size]
        if bad:
            raise MalformedWire(f"token {bad[0]} outside vocab [0, {self.vocab_size})")
        prev = context[0] if context else BOS
        nll = 0.0
        for tok in ids:
            nll += self._nll_of(prev, tok)
            prev = tok
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
# Request bytes gathered for one write. A batch, not a window: a write
# sends what the pipe has room for, and the rest waits for the next one.
_WRITE_BYTES = 64 * 1024


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
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._proc.stdout, selectors.EVENT_READ)
        self._unsent = bytearray()  # request bytes the pipe has not taken yet
        self._lines = collections.deque()  # answer lines read, not yet used
        self._partial = b""  # the start of an answer line still arriving
        self._owed = 0  # requests whose newline went out, answers not yet read

    def __call__(self, prefix, candidate) -> tuple[float, int]:
        (answer,) = self.score_all([(prefix, candidate)])
        return answer

    def score_all(self, pairs):
        """Yield (nll, tokens) for each (prefix, candidate) pair, in order.

        While it waits for an answer, the client writes requests as far
        as the pipe has room. A failed write is raised only once the
        answers to the requests sent before it are used. One stream at a
        time: the answers an abandoned stream is still owed, its unsent
        requests' included, are dropped before the next one's.
        """
        todo = iter(pairs)
        drop = self._owed + self._unsent.count(b"\n")
        failure = None  # a ScorerError owed once the answers before it are used
        while True:
            deadline = time.monotonic() + RESPONSE_DEADLINE_S
            while not self._lines:
                if failure is None and len(self._unsent) < _WRITE_BYTES:
                    for pair in todo:
                        self._unsent += _request_line(*pair)
                        if len(self._unsent) >= _WRITE_BYTES:
                            break
                if not (self._owed or self._unsent):
                    if failure is not None:
                        raise failure
                    return
                failure = self._wait(deadline) or failure
            self._owed -= 1
            line = self._lines.popleft()
            if drop:
                drop -= 1
            else:
                yield _parse_answer(line)

    def _wait(self, deadline: float) -> ScorerError | None:
        """One wait for the pipes: write what the plugin's stdin takes of
        the unsent requests and read the answers that arrived. A failed
        write is returned, not raised. Past the deadline the plugin is
        killed and ScorerError raised; an answer line over _READ_SIZE
        bytes is a ScorerError too."""
        stdin, failure = self._proc.stdin, None
        watched = stdin in self._selector.get_map()
        if self._unsent and not watched:
            self._selector.register(stdin, selectors.EVENT_WRITE)
        elif watched and not self._unsent:
            self._selector.unregister(stdin)
        left = deadline - time.monotonic()
        if left < 0:
            self._proc.kill()
            self._proc.wait()
            raise ScorerError(f"plugin sent no answer within {RESPONSE_DEADLINE_S:g} s; killed")
        for key, _ in self._selector.select(left):
            if key.fileobj is stdin:
                try:
                    sent = os.write(stdin.fileno(), self._unsent)
                except BlockingIOError:
                    sent = 0
                except OSError as exc:  # BrokenPipeError once the plugin is gone
                    sent, failure = 0, ScorerError(f"plugin pipe failure: {exc}")
                    self._unsent.clear()
                self._owed += self._unsent.count(b"\n", 0, sent)
                del self._unsent[:sent]
                continue
            data = os.read(self._proc.stdout.fileno(), _READ_SIZE)
            if not data:
                raise ScorerError("plugin closed its stdout mid-protocol")
            *lines, self._partial = (self._partial + data).split(b"\n")
            if len(self._partial) > _READ_SIZE:
                raise ScorerError(f"plugin answer line longer than {_READ_SIZE} bytes")
            self._lines.extend(lines)
        return failure

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
