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
the same bytes. AFV1 and ATK1 are written incrementally: ``afv1_writer``
and ``atk1_writer`` take the header's T up front and rows block by
block, into a temporary file beside the output that replaces it only
once all T rows are in, so a failed write leaves no output and an
existing file untouched. ``open_afv1`` reads AFV1 rows in order, a
block at a time, from a file or a pipe. ``read_rvq1`` returns the
codewords as the read-only float32 array they are stored as.
WAV and raw float32 audio open as a ``SampleSource`` whose samples are
read by range, never all at once. JSON sidecars: interleaved records,
eval records, and manifests as JSON-lines; special tokens and stats as
single objects.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import wave
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    EmptyInput,
    IndexOutOfRange,
    InvalidConfig,
    MalformedWire,
    ShapeMismatch,
)
from .mel import AudioBuffer, SampleSource
from .rvq import Codebook, RvqStack
from .streams import (
    InterleavedStream,
    LossMask,
    Segment,
    SegmentKind,
    SpecialTokens,
    audio_segment,
    text_segment,
)
from .metrics import EvalRecord

AFV1_MAGIC = b"AFV1"
ATK1_MAGIC = b"ATK1"
RVQ1_MAGIC = b"RVQ1"

_AFV1_HEADER = struct.Struct("<4sIId")
_RVQ1_LAYER_HEADER = struct.Struct("<IIdd")


def _read_exact(fh, n: int, what: str) -> bytes:
    # an oversize header size is refused before anything is allocated
    if fh.seekable() and n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise MalformedWire(f"truncated file while reading {what}")
    data = fh.read(n)
    if len(data) != n:
        raise MalformedWire(f"truncated file while reading {what}")
    return data


@contextlib.contextmanager
def _staged_rows(path, header: bytes, n_rows: int, rows, what: str):
    """Yield ``write(block)``: rows(block) checks a block and returns it as
    a 2-D array in file byte order, whose bytes follow the header. They go
    into ``<path>.<pid>.tmp``, which replaces ``path`` only once exactly
    n_rows rows are in; on any failure the temporary file is removed."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    written = 0

    def write(block) -> None:
        nonlocal written
        arr = rows(block)
        if written + len(arr) > n_rows:
            raise ShapeMismatch(f"{written + len(arr)} {what} rows, more than {n_rows}")
        fh.write(arr.tobytes())
        written += len(arr)

    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            yield write
            if written != n_rows:
                raise ShapeMismatch(f"{written} of {n_rows} {what} rows written")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------- AFV1

def afv1_writer(path, n_rows: int, dim: int, frame_rate: float):
    """Context manager yielding ``write(rows)``, which appends (k, dim)
    rows to an AFV1 of n_rows rows; ``path`` appears only once exactly
    n_rows are written."""

    def rows(block) -> np.ndarray:
        arr = np.ascontiguousarray(block, dtype="<f4")
        if arr.ndim != 2 or arr.shape[1] != dim:
            raise ShapeMismatch(f"rows of shape {arr.shape} do not fit {n_rows} x {dim}")
        return arr

    header = _AFV1_HEADER.pack(AFV1_MAGIC, n_rows, dim, frame_rate)
    return _staged_rows(path, header, n_rows, rows, "AFV1")


def write_afv1(path, vectors: np.ndarray, frame_rate: float) -> None:
    arr = np.ascontiguousarray(vectors, dtype="<f4")
    if arr.ndim != 2:
        raise ShapeMismatch(f"feature matrix must be T x D, got {arr.shape}")
    with afv1_writer(path, arr.shape[0], arr.shape[1], frame_rate) as write:
        write(arr)


class Afv1Rows(NamedTuple):
    """An open AFV1: ``read(n)`` returns its next n rows as an (n, dim)
    float64 array, for n up to the rows not yet read."""

    n_rows: int
    dim: int
    frame_rate: float
    read: Callable[[int], np.ndarray]


@contextlib.contextmanager
def open_afv1(path):
    """An AFV1 whose rows are read in order, as ``Afv1Rows``. A file that
    can seek is checked against its header before any row is read; a pipe
    is checked as it is read, up to the byte after the last row."""
    with open(path, "rb") as fh:
        magic, t, d, frame_rate = _AFV1_HEADER.unpack(
            _read_exact(fh, _AFV1_HEADER.size, "AFV1 header")
        )
        if magic != AFV1_MAGIC:
            raise MalformedWire(f"bad magic {magic!r}, expected AFV1")
        if fh.seekable():
            extra = os.fstat(fh.fileno()).st_size - fh.tell() - 4 * t * d
            if extra < 0:
                raise MalformedWire("truncated file while reading AFV1 body")
            if extra > 0:
                raise MalformedWire("trailing bytes after AFV1 body")
        left = t

        def read(n: int) -> np.ndarray:
            nonlocal left
            if not 0 <= n <= left:
                raise ShapeMismatch(f"cannot read {n} rows, {left} of {t} left")
            body = _read_exact(fh, 4 * n * d, "AFV1 body")
            left -= n
            if left == 0 and fh.read(1):
                raise MalformedWire("trailing bytes after AFV1 body")
            return np.frombuffer(body, dtype="<f4").reshape(n, d).astype(np.float64)

        yield Afv1Rows(t, d, frame_rate, read)


def read_afv1(path) -> tuple[np.ndarray, float]:
    with open_afv1(path) as rows:
        return rows.read(rows.n_rows), rows.frame_rate


# ---------------------------------------------------------------- ATK1

def atk1_writer(path, n_frames: int, layer_sizes):
    """Context manager yielding ``write(frames)``, which appends (k, L)
    indices to an ATK1 of n_frames frames; ``path`` appears only once
    exactly n_frames are written. ShapeMismatch unless a block is k x L,
    IndexOutOfRange for an index that is negative or does not fit u32
    (>= 2**32)."""
    sizes = tuple(int(k) for k in layer_sizes)
    if not sizes:
        raise InvalidConfig("layer sizes must be non-empty")

    def rows(frames) -> np.ndarray:
        arr = np.asarray(frames)
        if arr.ndim != 2 or arr.shape[1] != len(sizes):
            raise ShapeMismatch(f"frames must be T x {len(sizes)}, got {arr.shape}")
        if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= 2**32):
            raise IndexOutOfRange("ATK1 indices must be integers in [0, 2**32)")
        return arr.astype("<u4")

    header = struct.pack(f"<4sI{len(sizes)}II", ATK1_MAGIC, len(sizes), *sizes, n_frames)
    return _staged_rows(path, header, n_frames, rows, "ATK1")


def write_atk1(path, frames: np.ndarray, layer_sizes) -> None:
    """Write (T, L) indices; InvalidConfig without layer sizes, and the
    checks of ``atk1_writer``."""
    arr = np.asarray(frames)
    with atk1_writer(path, arr.shape[0] if arr.ndim == 2 else 0, layer_sizes) as write:
        write(arr)


def read_atk1(path) -> tuple[np.ndarray, tuple[int, ...]]:
    """The (T, L) int64 index array and the L layer sizes."""
    with open(path, "rb") as fh:
        magic, n_layers = struct.unpack("<4sI", _read_exact(fh, 8, "ATK1 header"))
        if magic != ATK1_MAGIC:
            raise MalformedWire(f"bad magic {magic!r}, expected ATK1")
        if n_layers == 0:
            raise MalformedWire("ATK1 with zero layers")
        sizes = struct.unpack(
            f"<{n_layers}I", _read_exact(fh, 4 * n_layers, "ATK1 layer sizes")
        )
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "ATK1 frame count"))
        body = _read_exact(fh, 4 * n_layers * count, "ATK1 frames")
        if fh.read(1):
            raise MalformedWire("trailing bytes after ATK1 frames")
    frames = np.frombuffer(body, dtype="<u4").reshape(count, n_layers).astype(np.int64)
    return frames, sizes


# ---------------------------------------------------------------- RVQ1

def write_rvq1(path, stack: RvqStack) -> None:
    with open(path, "wb") as fh:
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
        magic, n_layers = struct.unpack("<4sI", _read_exact(fh, 8, "RVQ1 header"))
        if magic != RVQ1_MAGIC:
            raise MalformedWire(f"bad magic {magic!r}, expected RVQ1")
        if n_layers == 0:
            raise MalformedWire("RVQ1 with zero layers")
        for _ in range(n_layers):
            k, d, alpha, beta = _RVQ1_LAYER_HEADER.unpack(
                _read_exact(fh, _RVQ1_LAYER_HEADER.size, "RVQ1 layer header")
            )
            vec = np.frombuffer(
                _read_exact(fh, 4 * k * d, "RVQ1 codewords"), dtype="<f4"
            ).reshape(k, d)
            usage = np.frombuffer(
                _read_exact(fh, 8 * k, "RVQ1 usage counters"), dtype="<u8"
            )
            layers.append(
                Codebook(
                    vectors=vec,  # read-only float32, as stored
                    ema_decay=alpha,
                    norm_beta=beta,
                    usage_counts=usage.astype(np.int64),
                )
            )
        if fh.read(1):
            raise MalformedWire("trailing bytes after RVQ1 layers")
    return RvqStack(layers)


# ----------------------------------------------------------- audio I/O

@contextlib.contextmanager
def open_wav(path):
    """A 16-bit LE mono WAV as a SampleSource of samples scaled into
    [-1, 1); n_samples is the header's frame count, and a read past the
    end of the data actually present is MalformedWire."""
    try:
        wav = wave.open(str(path), "rb")
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
        truncated = f"WAV data ends before the {wav.getnframes()} frames its header declares"
        # an oversize frame count is refused before anything is allocated
        if 2 * wav.getnframes() > os.path.getsize(path):
            raise MalformedWire(truncated)

        def read(start: int, stop: int) -> np.ndarray:
            wav.setpos(start)
            raw = wav.readframes(stop - start)
            if len(raw) != 2 * (stop - start):
                raise MalformedWire(truncated)
            return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0

        yield SampleSource(wav.getnframes(), wav.getframerate(), read)


def read_wav(path) -> AudioBuffer:
    """16-bit LE mono WAV to samples scaled into [-1, 1]."""
    with open_wav(path) as source:
        return AudioBuffer(source.read(0, source.n_samples), source.sample_rate)


def write_wav(path, audio: AudioBuffer) -> None:
    clipped = np.clip(audio.samples, -1.0, 1.0)
    pcm = np.round(clipped * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as wav:
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
            return np.frombuffer(raw, dtype="<f4").astype(np.float64)

        yield SampleSource(size // 4, sample_rate, read)


def read_raw_f32(path, sample_rate: int) -> AudioBuffer:
    """Headerless little-endian float32 samples; a ragged tail is malformed."""
    with open_raw_f32(path, sample_rate) as source:
        return AudioBuffer(source.read(0, source.n_samples), sample_rate)


# ------------------------------------------------------------- JSONL

def write_special_tokens(path, special: SpecialTokens) -> None:
    Path(path).write_text(
        json.dumps({"switch_ta": special.switch_ta, "switch_at": special.switch_at})
        + "\n"
    )


def read_special_tokens(path) -> SpecialTokens:
    """The {"switch_ta": int, "switch_at": int} table; any other document is
    InvalidConfig."""
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise InvalidConfig(f"special-token table is not JSON: {exc}") from exc
    if not (
        isinstance(obj, dict)
        and obj.keys() == {"switch_ta", "switch_at"}
        and _is_int_list(list(obj.values()))
    ):
        raise InvalidConfig('special-token table must be {"switch_ta": int, "switch_at": int}')
    return SpecialTokens(**obj)


def _read_jsonl(path, what: str):
    """Yield (line number, value) for each non-blank line of a JSON-lines
    file; a line that is not JSON is MalformedWire naming it."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode())
            except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
                raise MalformedWire(f"{what} line {line_no}: {exc}") from exc
            yield line_no, obj


_INT_ONLY = frozenset((int,))


def _is_int_list(values) -> bool:
    """values is a JSON list of integers; a bool is not an integer here."""
    return type(values) is list and _INT_ONLY.issuperset(map(type, values))


def _read_token_lists(path, vocab_size: int) -> list[list[int]]:
    """A JSON-lines file of token-id lists in [0, vocab_size), such as a
    bigram corpus."""
    lists = []
    for line_no, obj in _read_jsonl(path, "token list"):
        if not _is_int_list(obj):
            raise MalformedWire(f"token list line {line_no}: want a list of integer ids")
        for tok in obj:
            if not 0 <= tok < vocab_size:
                raise MalformedWire(f"token list line {line_no}: token {tok} outside vocab")
        lists.append(obj)
    return lists


def stream_record(
    stream: InterleavedStream,
    mask: LossMask,
    audio_refs: list[dict],
) -> dict:
    """One interleaved record as a JSON-able dict.

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
            segments.append({"kind": "text", "tokens": list(seg.tokens)})
        else:
            ref = next(refs)
            start, end = int(ref["start"]), int(ref["end"])
            if end - start != len(seg):
                raise ShapeMismatch(f"frame ref {ref} does not cover {len(seg)} frames")
            frames_ref = {"path": str(ref["path"]), "start": start, "end": end}
            segments.append({"kind": "audio", "frames_ref": frames_ref})
    return {
        "format": stream.format_tag,
        "segments": segments,
        "mask": [bool(f) for f in mask.flags],
    }


def load_stream_record(obj: dict, frames_by_path) -> tuple[InterleavedStream, LossMask]:
    """Rebuild a stream from a record dict and loaded (T, L) ATK1 frames."""
    segments: list[Segment] = []
    for seg in obj["segments"]:
        if seg["kind"] == "text":
            segments.append(text_segment(seg["tokens"]))
        elif seg["kind"] == "audio":
            ref = seg["frames_ref"]
            frames = frames_by_path[ref["path"]]
            start, end = int(ref["start"]), int(ref["end"])
            if not 0 <= start <= end <= len(frames):
                raise MalformedWire(
                    f"frame range [{start}, {end}) outside ATK1 of {len(frames)}"
                )
            segments.append(audio_segment(frames[start:end]))
        else:
            raise MalformedWire(f"unknown segment kind {seg['kind']!r}")
    stream = InterleavedStream(format_tag=obj["format"], segments=tuple(segments))
    return stream, LossMask(flags=tuple(bool(f) for f in obj["mask"]))


def write_eval_records(path, records: list[EvalRecord]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(
                json.dumps(
                    {
                        "prefix": list(rec.prefix),
                        "candidates": [list(c) for c in rec.candidates],
                        "positive": rec.positive_index,
                    }
                )
                + "\n"
            )


def _eval_record(obj) -> EvalRecord:
    prefix, candidates, positive = obj["prefix"], obj["candidates"], obj["positive"]
    if not (
        _is_int_list(prefix)
        and type(candidates) is list
        and all(map(_is_int_list, candidates))
        and type(positive) is int
    ):
        raise TypeError("prefix and candidates must hold integer ids, positive an integer")
    return EvalRecord(tuple(prefix), tuple(map(tuple, candidates)), positive)


def read_eval_records(path) -> list[EvalRecord]:
    """Eval-record lines {prefix, candidates, positive}; a line that does not
    hold a valid record is MalformedWire naming it."""
    records = []
    for line_no, obj in _read_jsonl(path, "eval record"):
        try:
            records.append(_eval_record(obj))
        except (KeyError, TypeError, InvalidConfig) as exc:
            raise MalformedWire(f"eval record line {line_no}: {exc}") from exc
    if not records:
        raise EmptyInput("no eval records in file")
    return records


_MANIFEST_KEYS = frozenset(("text", "atk1_path", "frame_range", "duration_s"))


def _manifest_problem(obj) -> str | None:
    if not isinstance(obj, dict):
        return "not a JSON object"
    if not _MANIFEST_KEYS <= obj.keys():
        return f"missing {sorted(_MANIFEST_KEYS - obj.keys())}"
    if not (
        type(obj["text"]) is str
        and type(obj["atk1_path"]) is str
        and type(obj.get("provenance", "")) is str
    ):
        return "text, atk1_path and provenance must be strings"
    frame_range = obj["frame_range"]
    if not (_is_int_list(frame_range) and len(frame_range) == 2):
        return "frame_range must be two integers"
    duration = obj["duration_s"]
    if type(duration) not in (int, float) or not math.isfinite(duration):
        return "duration_s must be a finite number"
    return None


def read_manifest(path) -> list[dict]:
    """Pack-manifest lines {text, atk1_path, frame_range, duration_s, provenance};
    a line with a field missing or of the wrong type is MalformedWire naming it."""
    rows = []
    for line_no, obj in _read_jsonl(path, "manifest"):
        problem = _manifest_problem(obj)
        if problem:
            raise MalformedWire(f"manifest line {line_no}: {problem}")
        obj.setdefault("provenance", "synthetic")
        obj["line_no"] = line_no
        rows.append(obj)
    return rows
