"""Evaluation metrics.

Word error rate, the perplexity-comparison protocol (a prediction is
correct iff the positive continuation's per-token perplexity is
strictly the minimum), and token-stream statistics: codebook
utilization, index entropy, and inter-layer mutual information.

The language model behind perplexity scoring is out of scope; scorers
implement a small callable contract so any model, in-process or
external, can be plugged in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import EmptyInput, InvalidConfig, ScorerError


@dataclass(frozen=True)
class EvalRecord:
    """A prefix with >= 2 candidate continuations, one marked positive."""

    prefix: tuple[int, ...]
    candidates: tuple[tuple[int, ...], ...]
    positive_index: int

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(int(t) for t in self.prefix))
        object.__setattr__(
            self,
            "candidates",
            tuple(tuple(int(t) for t in c) for c in self.candidates),
        )
        if len(self.candidates) < 2:
            raise InvalidConfig("need at least 2 candidates")
        if not 0 <= self.positive_index < len(self.candidates):
            raise InvalidConfig(
                f"positive index {self.positive_index} outside "
                f"[0, {len(self.candidates)})"
            )
        if any(len(c) == 0 for c in self.candidates):
            raise InvalidConfig("candidates must be non-empty")


class Scorer(Protocol):
    """Callable contract: (prefix, candidate) -> (total NLL, token count)."""

    def __call__(
        self, prefix: tuple[int, ...], candidate: tuple[int, ...]
    ) -> tuple[float, int]: ...


def wer(reference, hypothesis) -> float:
    """Levenshtein distance (unit costs) over the reference length."""
    ref = list(reference)
    hyp = list(hypothesis)
    if not ref:
        raise InvalidConfig("reference must be non-empty")
    # two-row DP over the (|ref|+1) x (|hyp|+1) edit lattice
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, start=1):
            cost = 0 if r == h else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[len(hyp)] / len(ref)


def _score(scorer: Scorer, prefix, candidate) -> float:
    """Per-token NLL from one scorer call, with contract checks."""
    try:
        nll, tokens = scorer(prefix, candidate)
    except ScorerError:
        raise
    except Exception as exc:
        raise ScorerError(f"scorer raised: {exc}") from exc
    if isinstance(tokens, bool) or not isinstance(tokens, (int, np.integer)) or tokens < 1:
        raise ScorerError(f"scorer returned token count {tokens!r}")
    nll = float(nll)
    if not math.isfinite(nll):
        raise ScorerError(f"scorer returned non-finite NLL {nll}")
    return nll / tokens


def perplexity(nll: float, tokens: int) -> float:
    """exp of the mean per-token NLL."""
    if tokens < 1:
        raise InvalidConfig("token count must be >= 1")
    return math.exp(nll / tokens)


def perplexity_compare(record: EvalRecord, scorer: Scorer) -> bool:
    """True iff the positive candidate's perplexity is strictly minimal.

    Perplexity exp(NLL/tokens) is monotone in the per-token NLL, so the
    comparison happens in log space; ties count as incorrect.
    """
    per_token = [_score(scorer, record.prefix, c) for c in record.candidates]
    pos = per_token[record.positive_index]
    return all(
        pos < nll for i, nll in enumerate(per_token) if i != record.positive_index
    )


def accuracy(records: list[EvalRecord], scorer: Scorer) -> float:
    """Fraction of records where perplexity_compare holds."""
    if not records:
        raise EmptyInput("no eval records")
    correct = sum(perplexity_compare(r, scorer) for r in records)
    return correct / len(records)


def _layer_indices(frames, layer: int) -> np.ndarray:
    """Column of per-layer indices from a (T, L) array or sequence of rows."""
    idx = np.asarray(frames, dtype=np.int64)
    if idx.shape == (0,):
        return idx  # an empty sequence has no frames in any layer
    if idx.ndim != 2:
        raise InvalidConfig(f"index array must be T x L, got {idx.shape}")
    if not 0 <= layer < idx.shape[1]:
        raise InvalidConfig(f"layer {layer} outside [0, {idx.shape[1]})")
    return idx[:, layer]


def codebook_utilization(frames, layer: int, K: int) -> float:
    """Distinct indices seen at the layer over K; the EOA value K is excluded."""
    if K <= 0:
        raise InvalidConfig(f"codebook size must be positive, got {K}")
    idx = _layer_indices(frames, layer)
    idx = idx[idx != K]
    return float(np.unique(idx).size / K)


def token_entropy(frames, layer: int) -> float:
    """Shannon entropy (nats) of the empirical index distribution."""
    idx = _layer_indices(frames, layer)
    if idx.size == 0:
        raise EmptyInput("no frames to measure")
    _, counts = np.unique(idx, return_counts=True)
    p = counts / idx.size
    return float(-np.sum(p * np.log(p)))


def interlayer_mi(frames, layer_a: int, layer_b: int) -> float:
    """Plug-in mutual information (nats) between two layers' indices.

    Computed exactly on the empirical joint, so 0 <= MI <= min of the
    marginal entropies by construction. The plug-in estimator is biased
    upward on independent data by about (Ka-1)(Kb-1)/(2N) nats.
    """
    a = _layer_indices(frames, layer_a)
    b = _layer_indices(frames, layer_b)
    if a.size == 0:
        raise EmptyInput("no frames to measure")
    # joint histogram over the observed alphabet
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    joint = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(joint, (ai, bi), 1.0)
    joint /= a.size
    pa = joint.sum(axis=1, keepdims=True)
    pb = joint.sum(axis=0, keepdims=True)
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / (pa @ pb)[nz])))
    return max(mi, 0.0)
