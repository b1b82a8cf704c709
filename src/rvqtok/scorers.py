"""Built-in scorers and the out-of-process scorer plugin protocol.

A scorer maps (prefix, candidate) to (total NLL, token count). Three
built-ins cover the test matrix: a content oracle whose NLL is the sum
of candidate ids (fixtures arrange for the positive candidate to have
the smallest mean id), a seeded hash scorer whose per-token NLL is an
iid uniform draw per (prefix, candidate), and an add-one-smoothed
bigram model fit on a toy corpus.

External scorers run as child processes speaking line-delimited JSON:
request {"prefix": [...], "candidate": [...]} followed by response
{"nll": <float>, "tokens": <int>}, one pair per line, in order.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field

from .errors import InvalidConfig, ScorerError

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
        if self.vocab_size < 1:
            raise InvalidConfig("vocab size must be >= 1")

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


def builtin_scorer(name: str, seed: int = 0, corpus=None, vocab_size: int = 0):
    """Construct a built-in scorer by name; bigram needs a fit corpus."""
    if name == "perfect":
        return perfect_scorer
    if name == "random":
        return RandomScorer(seed=seed)
    if name == "bigram":
        if corpus is None or vocab_size < 1:
            raise InvalidConfig("bigram scorer needs a corpus and vocab size")
        return BigramScorer(vocab_size=vocab_size).fit(corpus)
    raise InvalidConfig(f"unknown scorer {name!r}")


def run_plugin_loop(scorer, stdin=None, stdout=None) -> int:
    """Serve a scorer over the line-delimited JSON protocol until EOF.

    Each request line {"prefix", "candidate"} gets one response line
    {"nll", "tokens"}. Malformed requests produce an error response and
    a nonzero return.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    status = 0
    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            req = json.loads(line)
            prefix = tuple(int(t) for t in req["prefix"])
            candidate = tuple(int(t) for t in req["candidate"])
            nll, tokens = scorer(prefix, candidate)
            resp = {"nll": float(nll), "tokens": int(tokens)}
        except Exception as exc:
            resp = {"error": str(exc)}
            status = 1
        stdout.write(json.dumps(resp) + "\n")
        stdout.flush()
    return status


class SubprocessScorer:
    """Scorer backed by a child process speaking the plugin protocol.

    Requests go down stdin one JSON line at a time; responses come back
    in request order. Use as a context manager or call close().
    """

    def __init__(self, argv: list[str]):
        if not argv:
            raise InvalidConfig("plugin command must be non-empty")
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def __call__(self, prefix, candidate) -> tuple[float, int]:
        if self._proc.poll() is not None:
            raise ScorerError("plugin process has exited")
        req = json.dumps(
            {"prefix": list(map(int, prefix)), "candidate": list(map(int, candidate))}
        )
        try:
            self._proc.stdin.write(req + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise ScorerError(f"plugin pipe failure: {exc}") from exc
        if not line:
            raise ScorerError("plugin closed its stdout mid-protocol")
        try:
            resp = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ScorerError(f"plugin sent invalid JSON: {line!r}") from exc
        if "error" in resp:
            raise ScorerError(f"plugin error: {resp['error']}")
        if "nll" not in resp or "tokens" not in resp:
            raise ScorerError(f"plugin response missing fields: {resp!r}")
        return float(resp["nll"]), int(resp["tokens"])

    def close(self) -> None:
        """Close the plugin's stdin and reap it, killing it if it will not
        exit; its stdout is closed either way."""
        if self._proc.stdin and not self._proc.stdin.closed:
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
