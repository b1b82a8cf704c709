"""Binary and JSON artifact formats.

All binary formats are little-endian with a 4-byte magic:

  AFV1  feature matrices: u32 T, u32 D, f64 frame_rate, T*D float32 rows
  ATK1  token streams: u32 L, L per-layer u32 K, u32 frame count T,
        then a T x L u32 index matrix, frame by frame; read and
        written as one (T, L) integer array (int64 when read)
  RVQ1  codebook stacks: u32 n_layers, then per layer u32 K, u32 D,
        f64 ema_decay, f64 norm_beta, K*D float32 codewords,
        K u64 usage counters

Writers are bit-deterministic: the same in-memory values always give
the same bytes. Every file is written through ``staged``: into a
temporary file beside it, which replaces it only once the block that
writes it succeeds, so a failed write leaves no output and an existing
file untouched. A command stages all of its outputs in one block.
``afv1_writer`` and ``atk1_writer`` take rows block by block, count
them, and write the header's T once the block ends. ``open_afv1`` and
``open_atk1`` parse a header and hand out the body as ``Rows``, read by
row range from a file, or in order from a pipe, a block at a time.
``read_rvq1`` returns the codewords as the read-only float32 array they
are stored as.
WAV and raw float32 audio open as a ``SampleSource`` whose samples are
read by range, never all at once. JSON sidecars: interleaved records,
each laid out by ``record_doc`` alone, eval records, and pack manifests
as JSON-lines; stats as a single object. ``read_afv1_manifest`` alone
reads a train-rvq manifest, one path a line, its lines split at b"\\n"
only, as JSON-lines are.
``check_fields`` checks the fields of every JSON document (configs,
manifest lines, eval and stream records, and both ends of the scorer
plugin wire) against one table of type names, which token lists share.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import re
import struct
import sys
import wave
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    EmptyInput,
    IndexOutOfRange,
    InvalidConfig,
    MalformedWire,
    ShapeMismatch,
)
from .mel import AudioBuffer, FeatureSequence, SampleSource
from .rvq import Codebook, RvqStack
from .streams import (
    InterleavedStream,
    LossMask,
    Segment,
    SegmentKind,
    audio_segment,
    build_loss_mask,
    text_segment,
)
from .metrics import EvalRecord

AFV1_MAGIC = b"AFV1"
ATK1_MAGIC = b"ATK1"
RVQ1_MAGIC = b"RVQ1"

_RVQ1_LAYER_HEADER = struct.Struct("<IIdd")


# the most bytes _read_exact asks of a file that cannot seek in one read
_PIPE_PIECE = 1 << 20


def _read_exact(fh, n: int, what: str) -> bytes:
    # a header size past the data is refused before n bytes are allocated:
    # a file that can seek is checked against its size, and a pipe is read
    # in pieces until it ends
    if fh.seekable():
        short = n > os.fstat(fh.fileno()).st_size - fh.tell()
        data = b"" if short else fh.read(n)
    else:
        pieces, left = [], n
        while left and (piece := fh.read(min(left, _PIPE_PIECE))):
            pieces.append(piece)
            left -= len(piece)
        data = b"".join(pieces)
    if len(data) != n:
        raise MalformedWire(f"truncated file while reading {what}")
    return data


def _header(fh, magic: bytes, fmt: str) -> list:
    """The fields of the header ``"<4s" + fmt`` at the start of fh, after
    its magic; another magic is MalformedWire."""
    header = struct.Struct("<4s" + fmt)
    got, *fields = header.unpack(_read_exact(fh, header.size, f"{magic.decode()} header"))
    if got != magic:
        raise MalformedWire(f"bad magic {got!r}, expected {magic.decode()}")
    return fields


class Rows(NamedTuple):
    """The body of an open AFV1 or ATK1: ``read(start, stop)`` returns rows
    [start, stop) as a read-only (stop - start, width) array in the dtype
    the file stores. A file that cannot seek, such as a pipe, is read in
    order."""

    n_rows: int
    seekable: bool
    read: Callable[[int, int], np.ndarray]


def _rows(fh, path, n_rows: int, dtype: str, width: int, what: str) -> Rows:
    """The n_rows rows of width dtype items that follow the header read
    from fh. A file that can seek is checked against its size before any
    row is read; a pipe is checked as it is read, up to the byte after the
    last row. Errors name the body as ``what``."""
    row_bytes = np.dtype(dtype).itemsize * width
    if seekable := fh.seekable():
        body_at = fh.tell()  # a pipe cannot tell
        extra = os.fstat(fh.fileno()).st_size - body_at - row_bytes * n_rows
        if extra < 0:
            raise MalformedWire(f"truncated file while reading {what}")
        if extra > 0:
            raise MalformedWire(f"trailing bytes after {what}")
    at = 0  # the row the file position is at

    def read(start: int, stop: int) -> np.ndarray:
        nonlocal at
        if not 0 <= start <= stop <= n_rows:
            raise ShapeMismatch(f"cannot read rows [{start}, {stop}) of {n_rows}")
        if start != at:
            if not seekable:
                raise OSError(f"{path}: {what} of a pipe must be read in order")
            fh.seek(body_at + row_bytes * start)
        body = _read_exact(fh, row_bytes * (stop - start), what)
        at = stop
        if stop == n_rows and not seekable and fh.read(1):
            raise MalformedWire(f"trailing bytes after {what}")
        # read-only, as a view of bytes
        return np.frombuffer(body, dtype=dtype).reshape(stop - start, width)

    return Rows(n_rows, seekable, read)


def check_not_inputs(outputs, inputs) -> None:
    """InvalidConfig if an output that exists is the same file as one of
    inputs: the same path, a symlink or a hard link to it."""
    for path in filter(os.path.exists, map(os.fspath, outputs)):
        if any(os.path.exists(p) and os.path.samefile(path, p) for p in inputs):
            raise InvalidConfig(f"output path {path} is also an input")


_LIVE_TMPS: set[str] = set()  # the temporaries of running staged blocks


@contextlib.contextmanager
def staged(*paths, inputs=()):
    """Yield a temporary path ``<path>.<pid>.tmp`` beside each target path.
    When the block exits cleanly, the temporaries replace their targets in
    the order given; a failure in the block removes every temporary and
    leaves every target untouched. Two paths naming one file, or a target
    that is the same file as one of ``inputs`` (the paths the command
    reads), are InvalidConfig before the block runs; a target that is a
    directory is IsADirectoryError before any rename. An OSError on a
    temporary names its target instead. Paths that are all temporaries of
    running blocks are yielded unchanged, for those blocks to commit, so
    each output gets exactly one temporary."""
    targets = [os.fspath(p) for p in paths]
    if _LIVE_TMPS.issuperset(targets):
        yield targets
        return
    real = [os.path.realpath(p) for p in targets]
    for i, path in enumerate(real):
        if path in real[:i]:
            raise InvalidConfig(f"output path {targets[i]} is given twice")
    check_not_inputs(targets, inputs)
    tmps = [f"{p}.{os.getpid()}.tmp" for p in targets]
    _LIVE_TMPS.update(tmps)
    try:
        yield tmps
        for path in targets:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for tmp, path in zip(tmps, targets):
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename in tmps:
            path = targets[tmps.index(exc.filename)]
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise
    finally:
        _LIVE_TMPS.difference_update(tmps)


@contextlib.contextmanager
def _staged_rows(path, header, rows, what: str, inputs):
    """Yield ``write(block)``: rows(block) checks a block and returns it as
    a 2-D array in file byte order, whose bytes follow header(0) in the
    staged ``path``; header(n), the header for n rows, is written over it
    once the block ends. n rows of 2**32 or more are ShapeMismatch."""
    written = 0

    def write(block) -> None:
        nonlocal written
        arr = rows(block)
        if written + len(arr) >= 2**32:
            raise ShapeMismatch(f"{written + len(arr)} {what} rows do not fit the u32 T")
        fh.write(arr.tobytes())
        written += len(arr)

    with staged(path, inputs=inputs) as [tmp], open(tmp, "wb") as fh:
        fh.write(header(0))
        yield write
        fh.seek(0)
        fh.write(header(written))


@contextlib.contextmanager
def line_writer(path):
    """Yield ``write(line)``, which writes a string and a newline after it
    to ``path``, staged."""
    with staged(path) as [tmp], open(tmp, "w") as fh:
        yield lambda line: fh.write(line + "\n")


def write_lines(path, lines) -> None:
    """Write each string of ``lines`` and a newline after it to ``path``,
    staged."""
    with line_writer(path) as write:
        for line in lines:
            write(line)


# ---------------------------------------------------------------- AFV1

def check_frame_rate(frame_rate: float) -> None:
    """The frame rate an AFV1 is written with: finite and positive."""
    if not 0 < frame_rate < math.inf:
        raise InvalidConfig(f"AFV1 frame rate must be finite and positive, got {frame_rate}")


def afv1_writer(path, dim: int, frame_rate: float, inputs=()):
    """Context manager yielding ``write(rows)``, which appends (k, dim)
    rows to an AFV1; ``path`` appears only once the block ends, and must
    not be one of ``inputs``."""

    def rows(block) -> np.ndarray:
        arr = np.ascontiguousarray(block, dtype="<f4")
        if arr.ndim != 2 or arr.shape[1] != dim:
            raise ShapeMismatch(f"rows of shape {arr.shape} do not fit T x {dim}")
        return arr

    if not 0 < dim < 2**32:
        raise ShapeMismatch(f"AFV1 stores a dim of 1 or more as u32, got {dim}")
    check_frame_rate(frame_rate)
    return _staged_rows(
        path, lambda n: struct.pack("<4sIId", AFV1_MAGIC, n, dim, frame_rate), rows, "AFV1", inputs
    )


def write_afv1(path, vectors: np.ndarray, frame_rate: float) -> None:
    arr = np.ascontiguousarray(vectors, dtype="<f4")
    if arr.ndim != 2:
        raise ShapeMismatch(f"feature matrix must be T x D, got {arr.shape}")
    with afv1_writer(path, arr.shape[1], frame_rate) as write:
        write(arr)


@contextlib.contextmanager
def open_afv1(path):
    """An AFV1 as (dim, frame_rate, rows): its ``Rows`` are read by range as
    read-only float32 arrays."""
    with open(path, "rb") as fh:
        t, d, frame_rate = _header(fh, AFV1_MAGIC, "IId")
        if d == 0:
            raise MalformedWire("AFV1 with zero-width rows")
        if not 0 < frame_rate < math.inf:
            raise MalformedWire(f"AFV1 frame rate {frame_rate} is not finite and positive")
        yield d, frame_rate, _rows(fh, path, t, "<f4", d, "AFV1 body")


def read_afv1(path) -> tuple[np.ndarray, float]:
    """The (T, D) float64 rows and the frame rate."""
    with open_afv1(path) as (_, frame_rate, rows):
        # a signalling NaN warns as it is cast; callers refuse NaN rows
        with np.errstate(invalid="ignore"):
            return rows.read(0, rows.n_rows).astype(np.float64), frame_rate


def read_afv1_manifest(path) -> tuple[list[str], np.ndarray, list[FeatureSequence]]:
    """The AFV1 paths a train-rvq manifest lists, their rows as one float64
    matrix, and each file's FeatureSequence, a view of it. A line lists a
    path stripped of the whitespace around it, or none if blank or led by
    #; one that is not UTF-8 or holds a NUL is MalformedWire naming it."""
    paths = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                text = line.decode().strip()
            except UnicodeDecodeError as exc:
                raise MalformedWire(f"train-rvq manifest line {line_no}: not UTF-8") from exc
            if "\0" in text:
                raise MalformedWire(f"train-rvq manifest line {line_no}: NUL in path")
            if text and not text.startswith("#"):
                paths.append(text)
    if not paths:
        raise EmptyInput("manifest lists no feature files")
    files = [read_afv1(afv1) for afv1 in paths]
    for afv1, (vectors, _) in zip(paths, files):
        if not len(vectors):
            raise EmptyInput(f"{afv1} holds no feature rows")
    dims = {vectors.shape[1] for vectors, _ in files}
    if len(dims) != 1:
        raise ShapeMismatch(f"corpus dimensions disagree: {sorted(dims)}")
    features = np.concatenate([vectors for vectors, _ in files])
    features.flags.writeable = False  # each sequence is a view of it
    views = np.split(features, np.cumsum([len(vectors) for vectors, _ in files])[:-1])
    corpus = [FeatureSequence(view, frame_rate, 1) for view, (_, frame_rate) in zip(views, files)]
    return paths, features, corpus


# ---------------------------------------------------------------- ATK1

def atk1_writer(path, layer_sizes, inputs=()):
    """Context manager yielding ``write(frames)``, which appends (k, L)
    indices to an ATK1; ``path`` appears only once the block ends, and
    must not be one of ``inputs``. InvalidConfig for a layer size outside
    [0, 2**32), ShapeMismatch unless a block is k x L, IndexOutOfRange for
    an index that is negative or does not fit u32 (>= 2**32)."""
    sizes = tuple(int(k) for k in layer_sizes)
    if not sizes:
        raise InvalidConfig("layer sizes must be non-empty")
    for layer, k in enumerate(sizes):
        if not 0 <= k < 2**32:
            raise InvalidConfig(f"ATK1 layer {layer} size {k} is outside the u32 range [0, 2**32)")

    def rows(frames) -> np.ndarray:
        arr = np.asarray(frames)
        if arr.ndim != 2 or arr.shape[1] != len(sizes):
            raise ShapeMismatch(f"frames must be T x {len(sizes)}, got {arr.shape}")
        if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= 2**32):
            raise IndexOutOfRange("ATK1 indices must be integers in [0, 2**32)")
        return arr.astype("<u4")

    head = struct.pack(f"<4sI{len(sizes)}I", ATK1_MAGIC, len(sizes), *sizes)
    return _staged_rows(path, lambda n: head + struct.pack("<I", n), rows, "ATK1", inputs)


def write_atk1(path, frames: np.ndarray, layer_sizes) -> None:
    """Write (T, L) indices; InvalidConfig without layer sizes, and the
    checks of ``atk1_writer``."""
    with atk1_writer(path, layer_sizes) as write:
        write(frames)


@contextlib.contextmanager
def open_atk1(path):
    """An ATK1 as (sizes, frames): its L layer sizes, and its ``Rows`` read
    by frame range as read-only (n, L) uint32 arrays."""
    with open(path, "rb") as fh:
        (n_layers,) = _header(fh, ATK1_MAGIC, "I")
        if n_layers == 0:
            raise MalformedWire("ATK1 with zero layers")
        sizes = struct.unpack(
            f"<{n_layers}I", _read_exact(fh, 4 * n_layers, "ATK1 layer sizes")
        )
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "ATK1 frame count"))
        yield sizes, _rows(fh, path, count, "<u4", n_layers, "ATK1 frames")


def read_atk1(path) -> tuple[np.ndarray, tuple[int, ...]]:
    """The (T, L) int64 index array and the L layer sizes."""
    with open_atk1(path) as (sizes, frames):
        return frames.read(0, frames.n_rows).astype(np.int64), sizes


# ---------------------------------------------------------------- RVQ1

def write_rvq1(path, stack: RvqStack) -> None:
    with staged(path) as [tmp], open(tmp, "wb") as fh:
        fh.write(struct.pack("<4sI", RVQ1_MAGIC, stack.n_layers))
        for book in stack.layers:
            fh.write(
                _RVQ1_LAYER_HEADER.pack(
                    book.size, book.dim, book.ema_decay, book.norm_beta
                )
            )
            fh.write(np.ascontiguousarray(book.vectors, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(book.usage_counts, dtype="<u8").tobytes())


def read_rvq1(path) -> RvqStack:
    layers = []
    with open(path, "rb") as fh:
        (n_layers,) = _header(fh, RVQ1_MAGIC, "I")
        if n_layers == 0:
            raise MalformedWire("RVQ1 with zero layers")
        for layer in range(n_layers):
            k, d, alpha, beta = _RVQ1_LAYER_HEADER.unpack(
                _read_exact(fh, _RVQ1_LAYER_HEADER.size, "RVQ1 layer header")
            )
            if d == 0:
                raise MalformedWire("RVQ1 layer with zero-width codewords")
            vec = np.frombuffer(
                _read_exact(fh, 4 * k * d, "RVQ1 codewords"), dtype="<f4"
            ).reshape(k, d)
            usage = np.frombuffer(
                _read_exact(fh, 8 * k, "RVQ1 usage counters"), dtype="<u8"
            )
            try:
                book = Codebook(
                    vectors=vec,  # read-only float32, as stored
                    ema_decay=alpha,
                    norm_beta=beta,
                    usage_counts=usage.astype(np.int64),
                )
                RvqStack([*layers[:1], book])  # its width is the first layer's
            except (InvalidConfig, ShapeMismatch) as exc:
                raise MalformedWire(f"RVQ1 layer {layer}: {exc}") from exc
            layers.append(book)
        if fh.read(1):
            raise MalformedWire("trailing bytes after RVQ1 layers")
    return RvqStack(layers)


# ----------------------------------------------------------- audio I/O

@contextlib.contextmanager
def open_wav(path):
    """A 16-bit LE mono WAV as a SampleSource of samples scaled into
    [-1, 1); n_samples is the header's frame count, and a read past the
    end of the data actually present is MalformedWire. A file that cannot
    seek, such as a pipe, is an OSError."""
    with open(path, "rb") as fh:
        if not fh.seekable():
            raise OSError(f"{path}: WAV input must be a seekable file")
        try:
            wav = wave.open(fh, "rb")
        except (wave.Error, EOFError, RuntimeError) as exc:
            # EOFError: the file ends inside a header; RuntimeError: a chunk
            # size runs past the chunk that holds it
            reason = str(exc) or type(exc).__name__
            raise MalformedWire(f"not a readable PCM WAV file: {reason}") from exc
        with wav:
            if wav.getnchannels() != 1:
                raise InvalidConfig("only mono WAV is supported")
            if wav.getsampwidth() != 2:
                raise InvalidConfig("only 16-bit WAV is supported")
            n = wav.getnframes()
            truncated = f"WAV data ends before the {n} frames its header declares"
            # an oversize frame count is refused before anything is allocated
            if 2 * n > os.fstat(fh.fileno()).st_size:
                raise MalformedWire(truncated)

            def read(start: int, stop: int) -> np.ndarray:
                wav.setpos(start)
                raw = wav.readframes(stop - start)
                if len(raw) != 2 * (stop - start):
                    raise MalformedWire(truncated)
                return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0

            yield SampleSource(n, wav.getframerate(), read)


def read_wav(path) -> AudioBuffer:
    """16-bit LE mono WAV to samples scaled into [-1, 1]."""
    with open_wav(path) as source:
        return AudioBuffer(source.read(0, source.n_samples), source.sample_rate)


def write_wav(path, audio: AudioBuffer) -> None:
    clipped = np.clip(audio.samples, -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with staged(path) as [tmp], open(tmp, "wb") as fh, wave.open(fh, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(audio.sample_rate)
        wav.writeframes(pcm.tobytes())


@contextlib.contextmanager
def open_raw_f32(path, sample_rate: int):
    """Headerless little-endian float32 samples as a SampleSource; a
    ragged tail is malformed."""
    with open(path, "rb") as fh:
        if not fh.seekable():
            raise OSError(f"{path}: raw float32 input must be a seekable file")
        size = os.fstat(fh.fileno()).st_size
        if size % 4:
            raise MalformedWire(f"raw float32 file of {size} bytes ends mid-sample")

        def read(start: int, stop: int) -> np.ndarray:
            fh.seek(4 * start)
            raw = _read_exact(fh, 4 * (stop - start), "raw float32 samples")
            # a signalling NaN warns as it is cast; mel refuses NaN samples
            with np.errstate(invalid="ignore"):
                return np.frombuffer(raw, dtype="<f4").astype(np.float64)

        yield SampleSource(size // 4, sample_rate, read)


def read_raw_f32(path, sample_rate: int) -> AudioBuffer:
    """Headerless little-endian float32 samples; a ragged tail is malformed."""
    with open_raw_f32(path, sample_rate) as source:
        return AudioBuffer(source.read(0, source.n_samples), sample_rate)


# ------------------------------------------------------------- JSON

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _is_int64_list(v) -> bool:
    # one C-level pass each for the types, the least and the greatest value
    return (
        type(v) is list
        and {int}.issuperset(map(type, v))
        and (not v or _INT64_MIN <= min(v) and max(v) <= _INT64_MAX)
    )


# the code points UTF-8 cannot encode; json.loads takes them as "\ud800"
_SURROGATE = re.compile("[\ud800-\udfff]")

# What each field type name accepts of a JSON value: a str must encode as
# UTF-8, a path is a str without NUL, a bool is not a number, an int
# passes where a float is wanted, a float must be finite, and every number
# must fit the int64 or float64 it is read into.
_JSON_TESTS = {
    "str": lambda v: type(v) is str and not _SURROGATE.search(v),
    "path": lambda v: _JSON_TESTS["str"](v) and "\0" not in v,
    "bool": lambda v: type(v) is bool,
    "int": lambda v: type(v) is int and _INT64_MIN <= v <= _INT64_MAX,
    "float": lambda v: (
        math.isfinite(v) if type(v) is float else type(v) is int and abs(v) <= sys.float_info.max
    ),
    "list of int": _is_int64_list,
    "list of list of int": lambda v: type(v) is list and all(map(_is_int64_list, v)),
    "list of object": lambda v: type(v) is list and {dict}.issuperset(map(type, v)),
    "object": lambda v: type(v) is dict,
    "object or null": lambda v: v is None or type(v) is dict,
}


def check_fields(doc, types: dict[str, str], what: str, required=()) -> dict:
    """doc, once it is a JSON object whose keys in types hold values of the
    named types (keys of _JSON_TESTS) and which lacks none of the keys of
    types named in required; anything else is InvalidConfig naming the
    key. Keys outside types are left alone."""
    if type(doc) is not dict:
        raise InvalidConfig(f"{what} must be a JSON object")
    for key, want in types.items():
        if key in doc:
            if not _JSON_TESTS[want](doc[key]):
                raise InvalidConfig(f"{key} must be {want} in {what}")
        elif key in required:
            raise InvalidConfig(f"{key} missing from {what}")
    return doc


def _read_jsonl(path, what: str):
    """Yield (line number, value) for each non-blank line of a JSON-lines
    file; a line that is not JSON is MalformedWire naming it."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode())
            except (ValueError, RecursionError) as exc:
                # UnicodeDecodeError, JSONDecodeError, an integer of too many
                # digits, or arrays nested too deep for the decoder
                raise MalformedWire(f"{what} line {line_no}: {exc}") from exc
            yield line_no, obj


def read_token_lists(path, vocab_size: int) -> list[list[int]]:
    """A JSON-lines file of token-id lists in [0, vocab_size), such as a
    bigram corpus."""
    lists = []
    for line_no, obj in _read_jsonl(path, "token list"):
        if not (_JSON_TESTS["list of int"](obj) and all(0 <= t < vocab_size for t in obj)):
            raise MalformedWire(f"token list line {line_no}: want ids in [0, {vocab_size})")
        lists.append(obj)
    return lists


def record_doc(tag: str, segments) -> dict:
    """One interleaved record as the dict a records line holds: each of
    segments, in stream order, is a text segment's token ids (a list) or
    an audio segment's frames ref {path, start, end} into an ATK1 (a
    dict). The loss mask is not stored: it follows from the format tag."""
    return {"format": tag, "segments": [
        {"kind": "audio", "frames_ref": s} if type(s) is dict else {"kind": "text", "tokens": s}
        for s in segments
    ]}


def stream_record(stream: InterleavedStream, audio_refs: list[dict]) -> dict:
    """One interleaved record as ``record_doc`` lays it out.

    Audio segments are stored by reference: audio_refs carries one
    {path, start, end} per audio segment, in stream order, indexing the
    named ATK1 file's frame array.
    """
    n_audio = sum(1 for s in stream.segments if s.kind is SegmentKind.AUDIO)
    if n_audio != len(audio_refs):
        raise ShapeMismatch(
            f"{n_audio} audio segments but {len(audio_refs)} frame refs"
        )
    refs = iter(audio_refs)
    segments = []
    for seg in stream.segments:
        if seg.kind is SegmentKind.TEXT:
            segments.append(list(seg.tokens))
        else:
            ref = next(refs)
            start, end = int(ref["start"]), int(ref["end"])
            if end - start != len(seg):
                raise ShapeMismatch(f"frame ref {ref} does not cover {len(seg)} frames")
            segments.append({"path": str(ref["path"]), "start": start, "end": end})
    return record_doc(stream.format_tag, segments)


_RECORD_FIELDS = {"format": "str", "segments": "list of object"}
_SEGMENT_FIELDS = {"kind": "str", "tokens": "list of int", "frames_ref": "object"}
_FRAMES_REF_FIELDS = {"path": "path", "start": "int", "end": "int"}


def _record_segment(seg, frames_by_path) -> Segment:
    check_fields(seg, _SEGMENT_FIELDS, "segment", required=("kind",))
    if seg["kind"] == "text":
        return text_segment(seg["tokens"])
    if seg["kind"] != "audio":
        raise MalformedWire(f"unknown segment kind {seg['kind']!r}")
    ref = check_fields(seg["frames_ref"], _FRAMES_REF_FIELDS, "frames_ref", _FRAMES_REF_FIELDS)
    frames = frames_by_path[ref["path"]]
    start, end = ref["start"], ref["end"]
    if not 0 <= start <= end <= len(frames):
        raise MalformedWire(f"frame range [{start}, {end}) outside ATK1 of {len(frames)}")
    return audio_segment(frames[start:end])


def load_stream_record(obj: dict, frames_by_path) -> tuple[InterleavedStream, LossMask]:
    """Rebuild a stream from a record dict and loaded (T, L) ATK1 frames,
    and return it with its ``build_loss_mask``.

    A record that is not a dict stream_record writes (a field missing
    or of the wrong type, a frames_ref path not in frames_by_path, a
    frame range outside its ATK1) raises MalformedWire; a key it does not
    name, such as the "mask" older records stored, is ignored. A stream
    its format does not allow raises InvalidStream, an unknown format
    InvalidConfig.
    """
    try:
        check_fields(obj, _RECORD_FIELDS, "stream record", ("format", "segments"))
        segments = tuple(_record_segment(seg, frames_by_path) for seg in obj["segments"])
    except (KeyError, InvalidConfig) as exc:
        raise MalformedWire(f"stream record: {exc!r}") from exc
    stream = InterleavedStream(format_tag=obj["format"], segments=segments)
    return stream, build_loss_mask(stream)


def write_eval_records(path, records: list[EvalRecord]) -> None:
    docs = (
        {"prefix": list(r.prefix), "candidates": [list(c) for c in r.candidates],
         "positive": r.positive_index}
        for r in records
    )
    write_lines(path, map(json.dumps, docs))


_EVAL_FIELDS = {"prefix": "list of int", "candidates": "list of list of int", "positive": "int"}


def read_eval_records(path) -> list[EvalRecord]:
    """Eval-record lines {prefix, candidates, positive}; a line that does not
    hold a valid record is MalformedWire naming it."""
    records = []
    for line_no, obj in _read_jsonl(path, "eval record"):
        try:
            check_fields(obj, _EVAL_FIELDS, "eval record", _EVAL_FIELDS)
            candidates = tuple(map(tuple, obj["candidates"]))
            records.append(EvalRecord(tuple(obj["prefix"]), candidates, obj["positive"]))
        except InvalidConfig as exc:
            raise MalformedWire(f"eval record line {line_no}: {exc}") from exc
    if not records:
        raise EmptyInput("no eval records in file")
    return records


_MANIFEST_FIELDS = {
    "text": "str", "atk1_path": "path", "frame_range": "list of int", "duration_s": "float",
    "provenance": "str",
}
_MANIFEST_REQUIRED = ("text", "atk1_path", "frame_range", "duration_s")
_PROVENANCE_TAGS = ("crawl", "synthetic")


def read_manifest(path):
    """Yield pack-manifest rows {text, atk1_path, frame_range, duration_s,
    provenance} with their ``line_no``, one line at a time. A line with a
    field missing or of the wrong type, a duration that is not positive or
    a provenance other than crawl or synthetic (the default) is
    MalformedWire naming it."""
    for line_no, obj in _read_jsonl(path, "manifest"):
        try:
            check_fields(obj, _MANIFEST_FIELDS, "manifest row", _MANIFEST_REQUIRED)
            if len(obj["frame_range"]) != 2:
                raise InvalidConfig("frame_range must be two integers")
            if obj["duration_s"] <= 0:
                raise InvalidConfig(f"duration must be positive, got {float(obj['duration_s'])}")
            if obj.setdefault("provenance", "synthetic") not in _PROVENANCE_TAGS:
                raise InvalidConfig(f"provenance must be one of {_PROVENANCE_TAGS}")
        except InvalidConfig as exc:
            raise MalformedWire(f"manifest line {line_no}: {exc}") from exc
        obj["line_no"] = line_no
        yield obj
