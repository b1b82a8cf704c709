"""Interleaved text/audio token streams.

Audio arrives as a (T, L) integer array: T frames of L codeword indices
(one per quantizer layer). Text tokens are opaque integer ids from an
external tokenizer. A stream is an alternating run of text and audio
segments whose layout is fixed by its format tag; on the wire, where
each audio frame is a tuple of L ints, modality boundaries are marked
by switch tokens and every audio run ends with one end-of-audio frame.

The end-of-audio marker is frame-shaped: layer l uses the special index
K_l, one past its codebook, so each layer's embedding vocabulary is
K_l + 1 and the terminator embeds like any other frame.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, InvalidStream, MalformedWire

FORMAT_TAGS = ("ASR", "AQA", "S2TT", "INTLV", "TTS", "ITTS", "PURE_AUDIO")


class SegmentKind(enum.Enum):
    TEXT = "text"
    AUDIO = "audio"


def eoa_frame(layer_sizes) -> tuple[int, ...]:
    """The end-of-audio frame: index K_l in every layer."""
    return tuple(int(k) for k in layer_sizes)


def frame_array(frames) -> np.ndarray:
    """Frames as a read-only int64 (n, L) copy; an empty sequence is (0, 0)."""
    try:
        arr = np.array(frames, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidStream(f"frames must be an (n, L) integer array: {exc}") from exc
    if arr.shape == (0,):
        arr = arr.reshape(0, 0)
    if arr.ndim != 2:
        raise InvalidStream(f"frames must be an (n, L) integer array, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def validate_frames(frames, layer_sizes) -> np.ndarray:
    """Check an (n, L) block column by column; return its end-of-audio rows.

    Layer l takes indices in [0, K_l]; K_l is the end-of-audio value,
    which a frame uses in every layer or in none.
    """
    arr = np.asarray(frames)
    sizes = np.array(eoa_frame(layer_sizes), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != sizes.size:
        raise InvalidStream(f"frames must be n x {sizes.size}, got {arr.shape}")
    at_eoa = arr == sizes
    eoa = at_eoa.all(axis=1)
    for bad, what in (
        ((arr < 0).any(axis=1), "negative index"),
        ((arr > sizes).any(axis=1), "index past the end-of-audio value"),
        (at_eoa.any(axis=1) & ~eoa, "end-of-audio value in some layers but not all"),
    ):
        if bad.any():
            raise InvalidStream(f"{what} in frame {arr[bad.argmax()].tolist()}")
    return eoa


@dataclass(frozen=True, eq=False)
class Segment:
    """A maximal run of one modality; payload must be non-empty.

    Frames are a read-only int64 (n, L) array, compared and hashed by
    value: uint32 frames equal the same values given as int64 or tuples.
    """

    kind: SegmentKind
    tokens: tuple[int, ...] = ()
    frames: np.ndarray = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        object.__setattr__(self, "frames", frame_array(self.frames))
        if self.kind is SegmentKind.TEXT:
            if not self.tokens or len(self.frames):
                raise InvalidStream("text segment needs tokens and no frames")
            if any(t < 0 for t in self.tokens):
                raise InvalidStream("text token ids must be non-negative")
        else:
            if not len(self.frames) or self.tokens:
                raise InvalidStream("audio segment needs frames and no tokens")

    def __len__(self) -> int:
        return len(self.tokens) if self.kind is SegmentKind.TEXT else len(self.frames)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Segment):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.tokens == other.tokens
            and self.frames.shape == other.frames.shape
            and np.array_equal(self.frames, other.frames)
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.tokens, self.frames.shape, self.frames.tobytes()))


def text_segment(tokens) -> Segment:
    return Segment(kind=SegmentKind.TEXT, tokens=tuple(tokens))


def audio_segment(frames) -> Segment:
    return Segment(kind=SegmentKind.AUDIO, frames=frames)


def _check_grammar(tag: str, kinds: list[SegmentKind]) -> None:
    T, A = SegmentKind.TEXT, SegmentKind.AUDIO
    if not kinds:
        return  # the empty stream is a degenerate member of every format
    if tag in ("ASR", "AQA", "S2TT"):
        if kinds != [T, A, T]:
            raise InvalidStream(f"{tag} layout must be text, audio, text")
    elif tag == "TTS":
        if kinds != [T, A]:
            raise InvalidStream("TTS layout must be text, audio")
    elif tag == "PURE_AUDIO":
        if kinds != [A]:
            raise InvalidStream("PURE_AUDIO layout must be a single audio segment")
    elif tag == "ITTS":
        # one or more (text, audio) pairs
        if len(kinds) % 2 != 0 or any(
            k is not (T if i % 2 == 0 else A) for i, k in enumerate(kinds)
        ):
            raise InvalidStream("ITTS layout must be text-audio pairs")
    elif tag == "INTLV":
        # strict alternation with >= 2 segments; either modality may lead
        if len(kinds) < 2:
            raise InvalidStream("INTLV needs at least two segments")


@dataclass(frozen=True)
class InterleavedStream:
    """Alternating text/audio segments under a Table-style format tag."""

    format_tag: str
    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.format_tag not in FORMAT_TAGS:
            raise InvalidConfig(f"unknown format tag {self.format_tag!r}")
        for prev, cur in zip(self.segments, self.segments[1:]):
            if prev.kind is cur.kind:
                raise InvalidStream("adjacent segments share a modality")
        _check_grammar(self.format_tag, [s.kind for s in self.segments])

    def n_audio_frames(self) -> int:
        return sum(len(s.frames) for s in self.segments)

    def n_text_tokens(self) -> int:
        return sum(len(s.tokens) for s in self.segments)


@dataclass(frozen=True)
class SpecialTokens:
    """Modality-switch ids, distinct and in the text-id space.

    switch_ta opens an audio run (text-to-audio), switch_at opens a
    text run (audio-to-text). Two tokens keep deserialization free of
    lookahead.
    """

    switch_ta: int
    switch_at: int

    def __post_init__(self):
        if self.switch_ta < 0 or self.switch_at < 0:
            raise InvalidConfig("switch token ids must be non-negative")
        if self.switch_ta == self.switch_at:
            raise InvalidConfig("switch tokens must be distinct")

    @property
    def ids(self) -> frozenset[int]:
        return frozenset((self.switch_ta, self.switch_at))


@dataclass(frozen=True)
class LossMask:
    """One flag per wire position; true = position contributes to loss."""

    flags: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "flags", tuple(bool(f) for f in self.flags))

    def __len__(self) -> int:
        return len(self.flags)


def serialize(
    stream: InterleavedStream,
    special: SpecialTokens,
    layer_sizes,
    *,
    edge_switches: bool = False,
) -> list:
    """Flatten a stream to wire tokens: ints for text, L-tuples for audio.

    Each interior modality boundary emits its switch token and every
    audio run is closed by one end-of-audio frame. edge_switches adds
    an opening switch before the first segment and a closing one after
    the last; the default wire has no switches at the edges.
    """
    eoa = eoa_frame(layer_sizes)
    wire: list = []

    def opening_switch(kind: SegmentKind) -> int:
        return special.switch_ta if kind is SegmentKind.AUDIO else special.switch_at

    for pos, seg in enumerate(stream.segments):
        if pos > 0 or edge_switches:
            wire.append(opening_switch(seg.kind))
        if seg.kind is SegmentKind.TEXT:
            clash = [t for t in seg.tokens if t in special.ids]
            if clash:
                raise InvalidStream(f"text payload contains switch token id {clash[0]}")
            wire.extend(seg.tokens)
        else:
            if validate_frames(seg.frames, eoa).any():
                raise InvalidStream("end-of-audio frame inside an audio run")
            wire.extend(map(tuple, seg.frames.tolist()))
            wire.append(eoa)
    if edge_switches and stream.segments:
        last = stream.segments[-1].kind
        # the switch that would transition out of the final modality
        wire.append(
            special.switch_ta if last is SegmentKind.TEXT else special.switch_at
        )
    return wire


def deserialize(
    wire: list,
    format_tag: str,
    special: SpecialTokens,
    layer_sizes,
    *,
    edge_switches: bool = False,
) -> InterleavedStream:
    """Parse wire tokens back into a stream; inverse of serialize.

    The tag is supplied by the caller since the wire does not carry it.
    Raises MalformedWire on framing violations: a switch with nothing
    after it, an audio run without its end-of-audio frame, a frame in
    text position, or a switch pointing the wrong way. Each audio run is
    validated as one block once its end-of-audio tuple closes it.
    """
    eoa = eoa_frame(layer_sizes)
    tokens = list(wire)
    if edge_switches and tokens:
        first, last = tokens[0], tokens[-1]
        if isinstance(first, int) and first in special.ids:
            tokens = tokens[1:]
        if tokens and isinstance(last, int) and last in special.ids:
            tokens = tokens[:-1]

    segments: list[Segment] = []
    text_run: list[int] = []
    frame_run: list[tuple] = []
    mode: SegmentKind | None = None  # set by the first payload token
    run_closed = False  # audio mode only: saw EOA, awaiting switch or end

    def flush_text():
        if not text_run:
            raise MalformedWire("empty text run")
        segments.append(text_segment(text_run))
        text_run.clear()

    def flush_audio():
        if not frame_run:
            raise MalformedWire("empty audio run")
        try:
            segment = audio_segment(frame_run)
            validate_frames(segment.frames, eoa)
        except InvalidStream as exc:
            raise MalformedWire(str(exc)) from exc
        segments.append(segment)
        frame_run.clear()

    for item in tokens:
        if isinstance(item, tuple):
            if mode is SegmentKind.TEXT:
                raise MalformedWire("audio frame inside a text run")
            if run_closed:
                raise MalformedWire("audio frame after end-of-audio")
            mode = SegmentKind.AUDIO
            if item == eoa:
                flush_audio()
                run_closed = True
            else:
                frame_run.append(item)
        elif isinstance(item, (int, np.integer)):
            item = int(item)
            if item == special.switch_ta:
                if mode is not SegmentKind.TEXT:
                    raise MalformedWire("text-to-audio switch outside a text run")
                flush_text()
                mode = SegmentKind.AUDIO
                run_closed = False
            elif item == special.switch_at:
                if mode is not SegmentKind.AUDIO or not run_closed:
                    raise MalformedWire("audio-to-text switch outside a closed audio run")
                mode = SegmentKind.TEXT
                run_closed = False
            else:
                if mode is SegmentKind.AUDIO:
                    if not run_closed:
                        raise MalformedWire("text token inside an audio run")
                    raise MalformedWire("text token after audio without a switch")
                mode = SegmentKind.TEXT
                text_run.append(item)
        else:
            raise MalformedWire(f"unrecognized wire item {item!r}")

    # a dangling trailing switch dies here: switch_ta leaves an open audio
    # run, switch_at leaves an empty text run
    if mode is SegmentKind.TEXT:
        flush_text()
    elif mode is SegmentKind.AUDIO and not run_closed:
        raise MalformedWire("wire ends mid-audio-run without end-of-audio")

    return InterleavedStream(format_tag=format_tag, segments=tuple(segments))


def _segment_flags(stream: InterleavedStream) -> list[bool]:
    tag = stream.format_tag
    flags = []
    for pos, seg in enumerate(stream.segments):
        if tag == "INTLV":
            flags.append(seg.kind is SegmentKind.TEXT)
        elif tag == "ITTS":
            flags.append(pos > 0)
        elif tag in ("ASR", "AQA", "S2TT"):
            flags.append(pos == 2)
        elif tag == "TTS":
            flags.append(seg.kind is SegmentKind.AUDIO)
        else:  # PURE_AUDIO
            flags.append(True)
    return flags


def build_loss_mask(stream: InterleavedStream) -> LossMask:
    """Per-wire-position loss flags following the format's masking rule.

    INTLV trains on text only; ITTS on everything after the first text
    segment; ASR/AQA/S2TT on the final (response) text; TTS on audio;
    PURE_AUDIO on all positions. A switch token inherits the flag of
    the segment it opens, and an end-of-audio frame the flag of its
    run. Mask length equals the default serialized length.
    """
    seg_flags = _segment_flags(stream)
    flags: list[bool] = []
    for pos, (seg, flag) in enumerate(zip(stream.segments, seg_flags)):
        if pos > 0:
            flags.append(flag)  # the switch opening this segment
        flags.extend([flag] * len(seg))
        if seg.kind is SegmentKind.AUDIO:
            flags.append(flag)  # the end-of-audio frame
    return LossMask(flags=tuple(flags))
