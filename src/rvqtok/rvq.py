"""Residual vector quantization with EMA codebook learning.

A stack of codebooks quantizes a vector layer by layer: the first layer
quantizes the input, each later layer quantizes the running residual,
and the reconstruction is the sum of the selected codewords. Selection
scores rows in blocks of 512 with a float32 GEMM against codewords
taken relative to the codebook mean (16 MB of scores per block at
K = 8192); residuals and reconstruction stay float64. It may differ
from exact float64 selection only on near-ties, and features whose
scores pass the float32 range raise InvalidSample. Inference runs block
by block: ``encode_rows`` prepares every layer once and asks a reader
for 512 rows at a time, so a caller can stream features through in
bounded memory, and it may run several blocks' cascades at once, each
on a worker of its own; ``encode_frames`` is the same cascade over one
in-memory matrix. A ``Codebook`` keeps float32
codewords (as read from RVQ1) in float32 and holds anything else as
float64; ``copy`` is always float64, so training works in float64.
Codewords are learned without gradients, by an exponential-moving-average
update over the vectors assigned to each entry, optionally followed by
an L2-norm contraction of the whole book. ``train_rvq`` updates each
layer as soon as the cascade yields it, from that layer's input rows:
the cascade never reads the book again in the step, so with threads > 1
the update runs on a worker thread while the cascade goes on. A step
sums the vectors of the assigned entries only and makes no K x D
temporary: the decay, and the contraction when beta > 0, scale the book
in place, and selection writes the centred codewords straight into
float32.
``train_rvq`` copies the stack once and updates that private copy in
place, step by step; ``ema_update`` and ``restart_dead_entries`` apply
the same steps to a copy and return a new book, leaving their input
untouched.

Two EMA modes are provided. ``paper_literal`` adds the full assignment
mean on top of the decayed codeword:

    c  <-  (1 - beta) * (alpha * c_prev + mean(assigned))

``standard_ema`` weights the mean by (1 - alpha), the conventional
convex form:

    c  <-  (1 - beta) * (alpha * c_prev + (1 - alpha) * mean(assigned))

Entries with no assignments decay: c <- (1 - beta) * alpha * c_prev.
Note that in paper_literal mode the fixed point of a constantly
assigned entry is (1-beta)*m / (1 - (1-beta)*alpha), which for alpha
near 1 sits far beyond the assignment mean m; the norm contraction
(beta > 0) and the assignment dynamics are what keep books bounded.

Training-time stochasticity: Gumbel-softmax codeword selection (sampled
proportional to softmax(-d^2 / tau)), per-sample layerwise dropout of
layers >= 2, dead-entry restart from the current batch, and an
instance-level schedule that ramps the fraction of samples routed
through the quantizer.

Gradient flow is out of scope: consumers that need backpropagation
should treat quantization as identity for gradients (straight-through
convention). Nothing here builds an autodiff graph.
"""

from __future__ import annotations

import collections
import contextlib
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import EmptyInput, IndexOutOfRange, InvalidConfig, InvalidSample, ShapeMismatch
from .mel import FeatureSequence
from .metrics import codebook_utilization
from .parallel import one_worker, ordered_blocks
from .seeding import derive_seed, make_rng

# Codebook sizes decrease with depth under the default profile.
DEFAULT_LAYER_SIZES = (8192, 4096, 2048, 1024, 1024, 1024, 1024, 1024)

INACTIVE = -1  # sentinel index for layers deactivated by dropout

_ROW_CHUNK = 512  # rows per selection block; bounds scores to _ROW_CHUNK x K

EMA_MODES = ("paper_literal", "standard_ema")


def _require_finite(vectors: np.ndarray) -> None:
    if vectors.size and not np.isfinite(vectors).all():
        raise InvalidConfig("codewords must be finite")


def check_ema_decay(ema_decay: float) -> None:
    if not 0.0 <= ema_decay <= 1.0:
        raise InvalidConfig(f"ema_decay must be in [0, 1], got {ema_decay}")


def check_norm_beta(norm_beta: float) -> None:
    if not 0.0 <= norm_beta < 1.0:
        raise InvalidConfig(f"norm_beta must be in [0, 1), got {norm_beta}")


def _require_layers(n_layers: int) -> None:
    if n_layers < 1:
        raise InvalidConfig("stack needs at least one layer")


def check_layer_sizes(layer_sizes) -> None:
    """The layer sizes init_rvq_stack takes: at least one, each in [1,
    2**32), the u32 RVQ1 stores."""
    _require_layers(len(layer_sizes))
    for layer, k in enumerate(layer_sizes):
        if k <= 0:
            raise InvalidConfig(f"layer {layer} size must be positive, got {k}")
        if k >= 2**32:
            raise InvalidConfig(f"layer {layer} size {k} does not fit the u32 RVQ1 stores")


@dataclass(eq=False)
class Codebook:
    """One quantizer layer: K >= 1 codewords plus EMA bookkeeping.

    usage_counts[j] is the number of update steps since entry j was
    last assigned. vectors stays float32 when given as a float32 array
    (a read-only one from RVQ1 cannot be written into) and is float64
    otherwise.
    """

    vectors: np.ndarray
    ema_decay: float = 0.99
    norm_beta: float = 0.0
    usage_counts: np.ndarray | None = None

    def __post_init__(self):
        if not (isinstance(self.vectors, np.ndarray) and self.vectors.dtype == np.float32):
            self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[1] == 0:
            raise ShapeMismatch(f"codebook must be K x D with D >= 1, got {self.vectors.shape}")
        if self.size == 0:
            raise InvalidConfig("no codewords")
        _require_finite(self.vectors)
        check_ema_decay(self.ema_decay)
        check_norm_beta(self.norm_beta)
        if self.usage_counts is None:
            self.usage_counts = np.zeros(self.size, dtype=np.int64)
        else:
            self.usage_counts = np.asarray(self.usage_counts, dtype=np.int64)
        if self.usage_counts.shape != (self.size,) or (self.usage_counts < 0).any():
            raise InvalidConfig("usage_counts must be K non-negative integers")

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def copy(self) -> "Codebook":
        """A writable float64 copy."""
        return Codebook(
            vectors=self.vectors.astype(np.float64),
            ema_decay=self.ema_decay,
            norm_beta=self.norm_beta,
            usage_counts=self.usage_counts.copy(),
        )


@dataclass(eq=False)
class RvqStack:
    """Ordered codebook layers sharing one vector dimension."""

    layers: list[Codebook]

    def __post_init__(self):
        _require_layers(len(self.layers))
        dims = {book.dim for book in self.layers}
        if len(dims) != 1:
            raise ShapeMismatch(f"layers disagree on dimension: {sorted(dims)}")

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def dim(self) -> int:
        return self.layers[0].dim

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return tuple(book.size for book in self.layers)

    def copy(self) -> "RvqStack":
        return RvqStack([book.copy() for book in self.layers])


@dataclass(frozen=True)
class QuantizeResult:
    """Outcome of quantizing one vector.

    indices holds one codeword index per layer (INACTIVE for layers
    dropped by dropout); quantized is the sum of the selected codewords
    of active layers; residuals[l] is the running residual after layer
    l (unchanged across inactive layers).
    """

    indices: tuple[int, ...]
    quantized: np.ndarray
    residuals: tuple[np.ndarray, ...]
    active_layers: tuple[int, ...]


@dataclass(frozen=True)
class GumbelConfig:
    """Stochastic codeword selection: sample proportional to softmax(-d^2/tau)."""

    temperature: float = 1.0
    enabled: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.enabled and self.temperature <= 0:
            raise InvalidConfig("gumbel temperature must be positive when enabled")


GUMBEL_OFF = GumbelConfig(enabled=False)


@dataclass(frozen=True)
class DropoutConfig:
    """Layerwise dropout. The first layer is never dropped.

    mode "independent": each layer >= 2 survives a sample with
    keep_prob_per_layer independently. mode "suffix": layers are walked
    in order and the first failure drops that layer and everything
    after it.
    """

    keep_prob_per_layer: float = 0.5
    seed: int = 0
    mode: str = "independent"

    def __post_init__(self):
        if not 0.0 <= self.keep_prob_per_layer <= 1.0:
            raise InvalidConfig("keep_prob_per_layer must be in [0, 1]")
        if self.mode not in ("independent", "suffix"):
            raise InvalidConfig(f"unknown dropout mode {self.mode!r}")


@dataclass(frozen=True)
class TrainingSchedule:
    """Progressive replacement ramp.

    The fraction of instances routed through the quantizer rises
    linearly from replace_start to replace_end over total_steps.
    Replacement is instance-level: a whole sample is routed or not,
    never individual tokens.
    """

    replace_start: float = 0.10
    replace_end: float = 1.00
    total_steps: int = 1000

    def __post_init__(self):
        if not 0.0 <= self.replace_start <= self.replace_end <= 1.0:
            raise InvalidConfig(
                f"need 0 <= replace_start <= replace_end <= 1, got "
                f"{self.replace_start}, {self.replace_end}"
            )
        if self.total_steps < 0:
            raise InvalidConfig("total_steps must be >= 0")

    def replace_fraction_at(self, step: int) -> float:
        if not 0 <= step <= self.total_steps:
            raise InvalidConfig(f"step {step} outside [0, {self.total_steps}]")
        if self.total_steps == 0:
            return self.replace_end
        t = step / self.total_steps
        return self.replace_start + (self.replace_end - self.replace_start) * t


def _select_indices(
    dists: np.ndarray, gumbel: GumbelConfig, rng: np.random.Generator | None
) -> np.ndarray:
    """Row-wise argmin of dists, or with Gumbel enabled a draw from
    softmax(-dists / tau) by the Gumbel-max trick (Jang et al., arXiv
    1611.01144): argmin(dists / tau + log(-log u)) is argmax(-dists / tau
    + G) with G = -log(-log u) ~ Gumbel(0, 1) for u ~ U[0, 1).

    u is float32 and the logs run in place on it. u = 0 (probability
    2^-24 per score) gives G = -inf, so that score is never picked; the
    largest u below 1 caps G near 16.6, which cuts a tail of probability
    6e-8.

    A tau below the float32 range overflows dists / tau to +-inf (or NaN
    at 0 / 0). A row whose pick is then not finite takes argmin(dists),
    the limit of the law as tau -> 0.
    """
    if not gumbel.enabled:
        return np.argmin(dists, axis=1)
    noise = rng.random(dists.shape, dtype=np.float32)
    # log(0) = -inf is meant, and so are the overflows a tiny tau makes
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.log(noise, out=noise)
        np.negative(noise, out=noise)
        np.log(noise, out=noise)
        noise += dists / gumbel.temperature
    picks = np.argmin(noise, axis=1)
    stray = ~np.isfinite(noise[np.arange(len(picks)), picks])
    if stray.any():
        picks[stray] = np.argmin(dists[stray], axis=1)
    return picks


def _active_mask(
    n: int, n_layers: int, dropout: DropoutConfig | None, rng: np.random.Generator | None
) -> np.ndarray:
    active = np.ones((n, n_layers), dtype=bool)
    if dropout is None or n_layers == 1:
        return active
    rng = rng or np.random.Generator(np.random.PCG64(dropout.seed))
    draws = rng.random((n, n_layers - 1))
    keep = draws < dropout.keep_prob_per_layer
    if dropout.mode == "independent":
        active[:, 1:] = keep
    else:  # suffix: first failure drops that layer and all deeper ones
        active[:, 1:] = np.cumprod(keep, axis=1).astype(bool)
    return active


def _centred(book: Codebook):
    """A layer prepared for selection: (m, c - m as float32, ||c - m||^2),
    with m the codebook mean; float32 and float64 books give the same m.
    c - m is rounded once into the float32 array, with no K x D float64
    temporary."""
    center = book.vectors.mean(axis=0, dtype=np.float64)
    codes = np.empty(book.vectors.shape, dtype=np.float32)
    np.subtract(book.vectors, center, out=codes, casting="same_kind")
    return center, codes, np.einsum("kd,kd->k", codes, codes)


def _assign_layer(
    book: Codebook,
    prepared,
    residual: np.ndarray,
    rows,
    gumbel: GumbelConfig,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """One cascade layer: select a codeword for each of residual[rows] and
    subtract it from residual in place; returns the chosen indices.

    prepared is ``_centred(book)``. rows is slice(None) when every row is
    active (blocks are then views) or an index array. Rows are scored
    _ROW_CHUNK at a time in float32 as ||c - m||^2 - 2 (x - m).(c - m):
    that is ||x - c||^2 less the per-row constant ||x - m||^2, so argmin
    and Gumbel selection are unchanged, and centring keeps float32
    accurate when x and c sit far from the origin. A score past the
    float32 range raises InvalidSample rather than pick wrongly.
    """
    center, codes, norms = prepared
    whole = isinstance(rows, slice)
    n = residual.shape[0] if whole else rows.size
    chosen = np.empty(n, dtype=np.int64)
    for start in range(0, n, _ROW_CHUNK):
        part = slice(start, start + _ROW_CHUNK)
        block = part if whole else rows[part]
        try:
            # errstate is per thread, so it is set here, where the pool runs
            with np.errstate(over="raise", invalid="raise"):
                scores = ((residual[block] - center) * -2.0).astype(np.float32) @ codes.T
                scores += norms
            picks = _select_indices(scores, gumbel, rng)
            # an overflow in a BLAS thread of its own escapes errstate; a
            # score past the range is then inf or NaN, and so is a pick it
            # changed
            if not np.isfinite(scores[np.arange(len(picks)), picks]).all():
                raise FloatingPointError("a selected score is not finite")
        except FloatingPointError as exc:
            raise InvalidSample(
                f"features or codewords are too large for float32 selection: {exc}"
            ) from exc
        chosen[part] = picks
        residual[block] -= book.vectors[chosen[part]]
    return chosen


def _check_rows(stack: RvqStack, x: np.ndarray) -> None:
    if x.shape[1] != stack.dim:
        raise ShapeMismatch(f"feature dim {x.shape[1]} != codebook dim {stack.dim}")
    if not np.isfinite(x).all():
        raise InvalidSample("input vectors hold NaN or inf")


def _batch(stack: RvqStack, x: np.ndarray, dropout: DropoutConfig | None, rng=None):
    """A checked (T, D) batch as (float64 residual copy, (T, L) active mask)."""
    _check_rows(stack, x)
    return x.astype(np.float64), _active_mask(len(x), stack.n_layers, dropout, rng)


def _cascade(
    stack: RvqStack,
    residual: np.ndarray,
    active: np.ndarray | None = None,
    gumbel: GumbelConfig = GUMBEL_OFF,
    rng: np.random.Generator | None = None,
    prepared=None,
):
    """Run the residual cascade in place on a float64 (T, D) residual.

    Yields (layer, rows, chosen) after every layer, one with no active
    rows included: rows is slice(None) when all T rows are active in the
    layer (active is a (T, L) mask; None keeps every row), else the
    index array of the active ones, and chosen holds their indices.
    prepared yields each layer's ``_centred`` state and is read one
    layer at a time, when the cascade reaches that layer; without it a
    layer is prepared then. Either way the cascade never reads a book
    again once its layer is yielded, so a caller may update it then.
    The Gumbel RNG defaults to a fresh generator seeded from its config.
    """
    if gumbel.enabled and rng is None:
        rng = np.random.Generator(np.random.PCG64(gumbel.seed))
    layers = zip(stack.layers, prepared or map(_centred, stack.layers))
    for layer, (book, prep) in enumerate(layers):
        col = True if active is None else active[:, layer]
        rows = slice(None) if np.all(col) else np.flatnonzero(col)
        yield layer, rows, _assign_layer(book, prep, residual, rows, gumbel, rng)


def quantize(
    stack: RvqStack,
    input_vec: np.ndarray,
    gumbel: GumbelConfig = GUMBEL_OFF,
    dropout: DropoutConfig | None = None,
    *,
    gumbel_rng: np.random.Generator | None = None,
    dropout_rng: np.random.Generator | None = None,
) -> QuantizeResult:
    """Quantize one vector through the residual cascade.

    Selection is argmin squared distance, or Gumbel-softmax sampling
    when enabled. Dropout (if given) may deactivate layers >= 2 for
    this sample; inactive layers record the INACTIVE sentinel and do
    not contribute to the reconstruction. RNGs default to fresh
    generators seeded from the configs, so a bare call is deterministic.
    """
    x = np.asarray(input_vec, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeMismatch(f"expected a single vector, got shape {x.shape}")
    residual, active = _batch(stack, x[None, :], dropout, dropout_rng)
    indices, residuals = [], []
    for _, _, chosen in _cascade(stack, residual, active, gumbel, gumbel_rng):
        indices.append(int(chosen[0]) if chosen.size else INACTIVE)
        residuals.append(residual[0].copy())
    return QuantizeResult(
        indices=tuple(indices),
        quantized=x - residual[0],
        residuals=tuple(residuals),
        active_layers=tuple(int(l) for l in np.flatnonzero(active[0])),
    )


def quantize_batch(
    stack: RvqStack,
    vectors: np.ndarray,
    gumbel: GumbelConfig = GUMBEL_OFF,
    dropout: DropoutConfig | None = None,
    *,
    gumbel_rng: np.random.Generator | None = None,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized cascade over a (T, D) batch.

    Returns (indices, quantized): indices is (T, L) with INACTIVE
    sentinels, quantized is (T, D).
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"expected a T x D batch, got shape {x.shape}")
    residual, active = _batch(stack, x, dropout, dropout_rng)
    indices = np.full(active.shape, INACTIVE, dtype=np.int64)
    for layer, rows, chosen in _cascade(stack, residual, active, gumbel, gumbel_rng):
        indices[rows, layer] = chosen
    return indices, x - residual


def commitment_loss(input_vec: np.ndarray, result: QuantizeResult) -> float:
    """Squared L2 distance between the input and its quantization."""
    x = np.asarray(input_vec, dtype=np.float64)
    if x.shape != result.quantized.shape:
        raise ShapeMismatch(f"shapes differ: {x.shape} vs {result.quantized.shape}")
    diff = x - result.quantized
    return float(np.sum(diff * diff))


def mean_commitment_loss(vectors: np.ndarray, quantized: np.ndarray) -> float:
    """Batch commitment loss: mean over vectors of the squared L2 residual."""
    x = np.asarray(vectors, dtype=np.float64)
    q = np.asarray(quantized, dtype=np.float64)
    if x.shape != q.shape:
        raise ShapeMismatch(f"shapes differ: {x.shape} vs {q.shape}")
    diff = x - q
    return float(np.mean(np.sum(diff * diff, axis=1)))


def check_mode(mode: str) -> None:
    if mode not in EMA_MODES:
        raise InvalidConfig(f"unknown EMA mode {mode!r}")


def check_epochs(epochs: int) -> None:
    if epochs < 0:
        raise InvalidConfig("epochs must be >= 0")


def check_dead_threshold(dead_threshold: int) -> None:
    # at 0 every entry counts as dead on every step, so training would
    # overwrite the whole book from the batch each time
    if dead_threshold < 1:
        raise InvalidConfig(f"dead_threshold must be >= 1, got {dead_threshold}")


def _ema_step(book: Codebook, chosen: np.ndarray, vectors: np.ndarray, mode: str) -> None:
    """One EMA step, in place, from row-aligned entry indices and assigned vectors.

    Only the assigned entries are summed: each row is added, in row
    order, onto its entry's row of an (assigned entries, D) array of
    +0.0, so the result does not depend on thread count and no K x D
    temporary is made. These are the adds np.add.at makes, with the same
    bytes, but one row at a time is about 5x faster at T = 100 rows. The
    caller has checked mode.
    """
    entries, inverse = np.unique(chosen, return_inverse=True)
    sums = np.zeros((entries.size, book.dim))
    for j, row in zip(inverse, vectors):
        sums[j] += row
    means = sums / np.bincount(inverse)[:, None]

    alpha, beta = book.ema_decay, book.norm_beta
    book.vectors *= alpha
    if mode == "paper_literal":
        book.vectors[entries] += means
    else:
        book.vectors[entries] += (1.0 - alpha) * means
    if beta:
        book.vectors *= 1.0 - beta

    book.usage_counts += 1
    book.usage_counts[entries] = 0


def ema_update(book: Codebook, assignments, mode: str = "paper_literal") -> Codebook:
    """One EMA step from an {entry index: [assigned vectors]} map.

    Per-entry means are reduced in the order the vectors appear
    (ascending sample index by convention), so results do not depend on
    thread count. Returns a new Codebook; the input is untouched.
    usage_counts reset for assigned entries and increment otherwise.
    """
    chosen: list[int] = []
    rows: list[np.ndarray] = []
    for j in sorted(assignments):
        vecs = assignments[j]
        if len(vecs) == 0:
            continue
        if not 0 <= j < book.size:
            raise IndexOutOfRange(f"entry {j} outside codebook of size {book.size}")
        for v in vecs:
            v = np.asarray(v, dtype=np.float64)
            if v.shape != (book.dim,):
                raise ShapeMismatch(f"assigned vector has shape {v.shape}, want ({book.dim},)")
            rows.append(v)
        chosen.extend([j] * len(vecs))
    vectors = np.array(rows, dtype=np.float64).reshape(len(rows), book.dim)
    check_mode(mode)
    new = book.copy()
    _ema_step(new, np.asarray(chosen, dtype=np.int64), vectors, mode)
    _require_finite(new.vectors)
    return new


def _restart_dead(
    book: Codebook, batch: np.ndarray, dead_threshold: int, rng_seed: int
) -> np.ndarray:
    """Overwrite, in place, entries unused for >= dead_threshold steps with
    uniformly sampled batch rows and reset their counters; returns their
    indices. Live entries are untouched."""
    dead = np.flatnonzero(book.usage_counts >= dead_threshold)
    if dead.size == 0:
        return dead
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise EmptyInput("dead entries present but the batch is empty")
    if batch.shape[1] != book.dim:
        raise ShapeMismatch(f"batch dim {batch.shape[1]} != codebook dim {book.dim}")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    picks = rng.integers(0, batch.shape[0], size=dead.size)
    book.vectors[dead] = batch[picks]
    book.usage_counts[dead] = 0
    return dead


def restart_dead_entries(
    book: Codebook,
    batch: np.ndarray,
    dead_threshold: int,
    rng_seed: int,
) -> tuple[Codebook, list[int]]:
    """Replace entries unused for >= dead_threshold steps with batch vectors.

    Each dead entry is overwritten by a uniformly sampled batch vector
    (sampling with replacement across entries) and its counters reset.
    Live entries are untouched. Returns (new book, replaced indices);
    with nothing dead, the new book is the input itself.
    """
    check_dead_threshold(dead_threshold)
    if not (book.usage_counts >= dead_threshold).any():
        return book, []
    new = book.copy()
    dead = _restart_dead(new, np.asarray(batch, dtype=np.float64), dead_threshold, rng_seed)
    _require_finite(new.vectors)
    return new, dead.tolist()


def total_loss(
    recon_loss: float,
    llm_loss: float,
    commit_loss_value: float,
    weight_recon: float,
    weight_llm: float,
    weight_commit: float,
) -> float:
    """Weighted sum of the three training terms.

    The language-model alignment loss is an externally supplied scalar
    (default 0 upstream); this function only combines.
    """
    weights = (weight_recon, weight_llm, weight_commit)
    for w in weights:
        if not np.isfinite(w) or w < 0:
            raise InvalidConfig(f"loss weights must be finite and >= 0, got {weights}")
    return (
        weight_recon * recon_loss
        + weight_llm * llm_loss
        + weight_commit * commit_loss_value
    )


def vq_replacement_gate(
    schedule: TrainingSchedule, step: int, rng_seed: int, n_instances: int
) -> np.ndarray:
    """Instance-level replacement mask at the schedule's current fraction.

    Each instance (a whole sample, never a single token) is marked
    independently with probability p = the linear ramp value at step.
    """
    p = schedule.replace_fraction_at(step)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    return rng.random(n_instances) < p


def init_rvq_stack(
    layer_sizes,
    features: np.ndarray,
    *,
    ema_decay: float = 0.99,
    norm_beta: float = 0.0,
    seed: int = 0,
) -> RvqStack:
    """Initialize a stack from a batch of feature vectors.

    Layer l's codewords are rows sampled uniformly from the residuals
    left after quantizing the batch through layers < l; which rows are
    picked depends only on the row count, the layer sizes and the seed.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise EmptyInput("initialization needs a T x D batch with T, D >= 1")
    if not np.isfinite(x).all():
        raise InvalidSample("initialization features hold NaN or inf")
    check_layer_sizes(layer_sizes)

    rng = make_rng(seed, "init")
    residual = x.copy()
    layers = []
    for k in layer_sizes:
        picks = rng.choice(residual.shape[0], size=k, replace=residual.shape[0] < k)
        vectors = residual[picks]
        # fancy indexing copied the picks, so the in-place cascade step
        # below cannot alias the book
        book = Codebook(vectors=vectors, ema_decay=ema_decay, norm_beta=norm_beta)
        layers.append(book)
        _assign_layer(book, _centred(book), residual, slice(None), GUMBEL_OFF, None)
    return RvqStack(layers)


def encode_rows(stack: RvqStack, n_rows: int, read, threads: int = 1):
    """Deterministic inference over n_rows feature rows that ``read(start,
    stop)`` returns in order as (stop - start, D) float arrays, the
    ``fileformats.Rows.read`` contract: argmin cascade, no Gumbel, no
    dropout. Yields the (n, L) indices of each block of _ROW_CHUNK rows;
    the last block may be shorter, and 0 rows give one empty block.

    Every layer is prepared once, however many blocks follow, and the
    blocks hold the row groups selection scores together, so the indices
    equal those of ``encode_frames`` over the whole matrix. This thread
    reads and checks the blocks in order; up to ``threads`` of them (no
    more than the usable CPUs) run their cascades at once, each holding
    its own _ROW_CHUNK x K scores, and the indices are the same at any
    ``threads``.
    """
    prepared = [_centred(book) for book in stack.layers]

    def residuals():
        for start in range(0, max(n_rows, 1), _ROW_CHUNK):
            residual, _ = _batch(stack, read(start, min(start + _ROW_CHUNK, n_rows)), None)
            yield (residual,)

    def cascade(residual):
        indices = np.empty((len(residual), stack.n_layers), dtype=np.int64)
        for layer, _, chosen in _cascade(stack, residual, prepared=prepared):
            indices[:, layer] = chosen
        return indices

    yield from ordered_blocks(cascade, residuals(), threads)


def encode_frames(stack: RvqStack, vectors: np.ndarray) -> np.ndarray:
    """Deterministic inference path: the argmin cascade over a (T, D)
    matrix, no Gumbel, no dropout; returns (T, L) indices."""
    return quantize_batch(stack, vectors)[0]


def decode_frames(stack: RvqStack, indices: np.ndarray) -> np.ndarray:
    """Sum each frame's selected codewords; shape (T, L) -> (T, D)."""
    idx = np.asarray(indices)
    if idx.ndim != 2 or idx.shape[1] != stack.n_layers:
        raise ShapeMismatch(
            f"indices must be T x {stack.n_layers}, got {idx.shape}"
        )
    out = np.zeros((idx.shape[0], stack.dim))
    for layer, book in enumerate(stack.layers):
        col = idx[:, layer]
        if (col < 0).any() or (col >= book.size).any():
            raise IndexOutOfRange(
                f"layer {layer} has indices outside [0, {book.size})"
            )
        out += book.vectors[col]
    return out


@dataclass(frozen=True)
class StepRecord:
    step: int
    commit_loss: float
    feature_mae: float
    utilization: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "utilization", tuple(self.utilization))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


@dataclass(frozen=True)
class TrainingReport:
    steps: tuple[StepRecord, ...] = ()

    def to_jsonl(self) -> str:
        return "".join(rec.to_json() + "\n" for rec in self.steps)

    @classmethod
    def from_jsonl(cls, text: str) -> "TrainingReport":
        """Parse to_jsonl output; blank lines and unknown keys are ignored."""
        names = [f.name for f in fields(StepRecord)]
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        return cls(steps=tuple(StepRecord(**{n: row[n] for n in names}) for row in rows))


def train_rvq(
    stack: RvqStack,
    corpus: list[FeatureSequence],
    schedule: TrainingSchedule,
    gumbel: GumbelConfig = GUMBEL_OFF,
    dropout: DropoutConfig | None = None,
    epochs: int = 1,
    *,
    mode: str = "paper_literal",
    dead_threshold: int = 256,
    restart: bool = True,
    seed: int = 0,
    threads: int = 1,
) -> tuple[RvqStack, TrainingReport]:
    """Train the stack over the corpus; returns (new stack, report).

    One step processes one FeatureSequence: its vectors run through the
    cascade (Gumbel and dropout per configs) and, on a routed step, each
    layer takes an EMA update from its residual inputs as soon as the
    cascade yields it, then restarts dead entries from those inputs. A
    layer no row reaches still decays and ages. The replacement schedule
    gates whole steps at instance granularity: a sequence not routed
    through VQ this step is still quantized for reporting, but
    contributes no codebook update. Each sequence's width and values are
    checked once, by ``_check_rows``, before the first step.

    Each layer's ``_centred`` state is held across steps and rebuilt by
    the layer's update, so an unrouted step prepares nothing. With
    min(threads, usable CPUs) >= 2 the updates (EMA, restart, the new
    state) run in order on one worker thread while this thread goes on
    to the next layer's selection; the next step's cascade waits for
    layer l's update only when it reaches layer l. The bytes are those of
    a serial run at any ``threads``: an update writes only its own book,
    which the cascade does not read again in the step, and reads only
    its layer's input copy and picks; the Gumbel and dropout draws stay
    on this thread, and each restart seeds its own generator. An error
    from an update comes out with its own class, and when this returns
    or raises, no update is still running.

    Deterministic given (seed, corpus order, configs); the input stack
    is not modified: training updates one private copy in place.
    """
    check_epochs(epochs)
    check_mode(mode)
    check_dead_threshold(dead_threshold)
    if len(corpus) == 0:
        raise EmptyInput("training corpus is empty")
    for seq in corpus:
        _check_rows(stack, seq.vectors)
        if seq.n_vectors == 0:
            raise EmptyInput("training corpus holds a sequence with no vectors")
    if epochs == 0:
        return stack, TrainingReport()

    work = stack.copy()
    gumbel_rng = make_rng(seed, "gumbel") if gumbel.enabled else None
    dropout_rng = make_rng(seed, "dropout") if dropout is not None else None
    held = [_centred(book) for book in work.layers]
    pending = collections.deque()  # (layer, future) of updates not waited on, oldest first

    def update(layer, step, chosen, batch):
        book = work.layers[layer]
        _ema_step(book, chosen, batch, mode)
        if restart and len(batch):
            restart_seed = derive_seed(seed, f"restart:{step}:{layer}")
            _restart_dead(book, batch, dead_threshold, restart_seed)
        return _centred(book)

    def prepared():
        # a layer's last update, if not yet waited on, is the oldest one
        # pending when the cascade reaches that layer
        for layer in range(work.n_layers):
            if pending and pending[0][0] == layer:
                held[layer] = pending[0][1].result()
                pending.popleft()
            yield held[layer]

    records, sizes = [], work.layer_sizes
    with one_worker(threads) or contextlib.nullcontext() as pool:
        try:
            for step in range(epochs * len(corpus)):
                x = corpus[step % len(corpus)].vectors
                gate_seed = derive_seed(seed, f"gate:{step}")
                gate_step = min(step, schedule.total_steps)
                routed = vq_replacement_gate(schedule, gate_step, gate_seed, 1)[0]
                residual = x.astype(np.float64)
                active = _active_mask(len(x), work.n_layers, dropout, dropout_rng)
                layer_input, utilization = x, []  # x is the first layer's input
                cascade = _cascade(work, residual, active, gumbel, gumbel_rng, prepared())
                for layer, rows, chosen in cascade:
                    utilization.append(codebook_utilization(chosen[:, None], 0, sizes[layer]))
                    if routed:
                        # an idle layer (no rows) still decays and ages
                        job = (layer, step, chosen, layer_input[rows])
                        if pool is None:
                            held[layer] = update(*job)
                        else:
                            pending.append((layer, pool.submit(update, *job)))
                        layer_input = residual.copy()
                quantized = x - residual
                fmae = float(np.mean(np.abs(x - quantized)))
                loss = mean_commitment_loss(x, quantized)
                records.append(StepRecord(step, loss, fmae, utilization))
        finally:
            # the last step's updates; or, after an error here, the updates
            # a serial run would have met first, so the first to fail wins
            for _, future in pending:
                future.result()

    # the steps skip Codebook validation, so an overflow is caught here
    for book in work.layers:
        _require_finite(book.vectors)
    return work, TrainingReport(steps=tuple(records))
