"""Interleaved text/audio token streams.

Audio arrives as a (T, L) integer array: T frames of L codeword indices
(one per quantizer layer). Text tokens are opaque integer ids from an
external tokenizer. A stream is an alternating run of text and audio
segments whose layout is fixed by its format tag; on the wire, where
each audio frame is a tuple of L ints, modality boundaries are marked
by switch tokens and every audio run ends with one end-of-audio frame.
deserialize cuts the wire at its switch tokens and accepts only what
serialize writes: with edge_switches the wire must open and close with
the switches serialize puts there.

The end-of-audio marker is frame-shaped: layer l uses the special index
K_l, one past its codebook, so each layer's embedding vocabulary is
K_l + 1 and the terminator embeds like any other frame.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InvalidConfig, InvalidStream, MalformedWire


class SegmentKind(enum.Enum):
    TEXT = "text"
    AUDIO = "audio"


# Per format tag: its segment layout, a regex over one letter per segment
# (T text, A audio), and its loss rule, whether the segment at a position
# and of a kind contributes to the loss. The empty stream fits every layout.
_FORMATS = {
    "ASR": ("TAT", lambda pos, kind: pos == 2),
    "AQA": ("TAT", lambda pos, kind: pos == 2),
    "S2TT": ("TAT", lambda pos, kind: pos == 2),
    "INTLV": ("[TA]{2,}", lambda pos, kind: kind is SegmentKind.TEXT),
    "TTS": ("TA", lambda pos, kind: kind is SegmentKind.AUDIO),
    "ITTS": ("(TA)+", lambda pos, kind: pos > 0),
    "PURE_AUDIO": ("A", lambda pos, kind: True),
}
FORMAT_TAGS = tuple(_FORMATS)


def eoa_frame(layer_sizes) -> tuple[int, ...]:
    """The end-of-audio frame: index K_l in every layer."""
    return tuple(int(k) for k in layer_sizes)


def frame_array(frames) -> np.ndarray:
    """Frames as a read-only int64 (n, L) copy; an empty sequence is (0, 0).
    The safe cast refuses entries that are not integers, such as floats."""
    try:
        arr = np.asarray(frames)
        if arr.shape == (0,):
            arr = np.empty((0, 0), dtype=np.int64)
        else:
            arr = arr.astype(np.int64, casting="safe")
    except (TypeError, ValueError) as exc:
        raise InvalidStream(f"frames must be an (n, L) integer array: {exc}") from exc
    if arr.ndim != 2:
        raise InvalidStream(f"frames must be an (n, L) integer array, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def frame_faults(frames, layer_sizes) -> tuple[np.ndarray, np.ndarray]:
    """The ATK1 frame rule, as two row masks of an (n, L) block: its
    end-of-audio frames, which hold K_l in every layer l, and the other
    frames that hold an index outside [0, K_l) in some layer."""
    sizes = np.asarray(layer_sizes, dtype=np.int64)
    eoa = (frames == sizes).all(axis=1)
    return eoa, ((frames < 0) | (frames >= sizes)).any(axis=1) & ~eoa


def validate_frames(frames, layer_sizes) -> np.ndarray:
    """Check an (n, L) block by ``frame_faults``: layer l takes indices in
    [0, K_l], and K_l, the end-of-audio value, in every layer or in none.
    Return its end-of-audio rows."""
    arr = np.asarray(frames)
    sizes = eoa_frame(layer_sizes)
    if arr.ndim != 2 or arr.shape[1] != len(sizes):
        raise InvalidStream(f"frames must be n x {len(sizes)}, got {arr.shape}")
    eoa, bad = frame_faults(arr, sizes)
    if bad.any():
        raise InvalidStream(f"index outside [0, K_l) in frame {arr[bad.argmax()].tolist()}")
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
        tokens = tuple(self.tokens)
        if not all(map(isinstance, tokens, repeat((int, np.integer)))):
            raise InvalidStream("text tokens must be integer ids")
        object.__setattr__(self, "tokens", tuple(map(int, tokens)))
        object.__setattr__(self, "frames", frame_array(self.frames))
        if self.kind is SegmentKind.TEXT:
            if not self.tokens or len(self.frames):
                raise InvalidStream("text segment needs tokens and no frames")
            if min(self.tokens) < 0:
                raise InvalidStream("text token ids must be non-negative")
        elif self.kind is not SegmentKind.AUDIO or not len(self.frames) or self.tokens:
            raise InvalidStream("a non-text segment must be audio, with frames and no tokens")

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


def _check_grammar(tag: str, layout: str) -> None:
    if layout and not re.fullmatch(_FORMATS[tag][0], layout):
        raise InvalidStream(f"{tag} layout must be {_FORMATS[tag][0]}, not {layout}")


@dataclass(frozen=True)
class InterleavedStream:
    """Alternating text/audio segments under a Table-style format tag."""

    format_tag: str
    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.format_tag not in FORMAT_TAGS:
            raise InvalidConfig(f"unknown format tag {self.format_tag!r}")
        layout = "".join("T" if s.kind is SegmentKind.TEXT else "A" for s in self.segments)
        if "TT" in layout or "AA" in layout:
            raise InvalidStream("adjacent segments share a modality")
        _check_grammar(self.format_tag, layout)

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


def _switch_kinds(special: SpecialTokens) -> dict[int, SegmentKind]:
    """Each switch id and the kind of run it opens."""
    return {special.switch_ta: SegmentKind.AUDIO, special.switch_at: SegmentKind.TEXT}


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
    switch = {kind: sid for sid, kind in _switch_kinds(special).items()}
    ids = special.ids
    wire: list = []
    for pos, seg in enumerate(stream.segments):
        if pos > 0 or edge_switches:
            wire.append(switch[seg.kind])
        if seg.kind is SegmentKind.TEXT:
            clash = [t for t in seg.tokens if t in ids]
            if clash:
                raise InvalidStream(f"text payload contains switch token id {clash[0]}")
            wire.extend(seg.tokens)
        else:
            if validate_frames(seg.frames, eoa).any():
                raise InvalidStream("end-of-audio frame inside an audio run")
            wire.extend(map(tuple, seg.frames.tolist()))
            wire.append(eoa)
    if edge_switches and stream.segments:
        # the switch that would transition out of the final modality
        text_last = stream.segments[-1].kind is SegmentKind.TEXT
        wire.append(switch[SegmentKind.AUDIO if text_last else SegmentKind.TEXT])
    return wire


def _audio_run(run: list, layer_sizes) -> Segment:
    """Frames closed by exactly one end-of-audio frame, checked as one block."""
    if not all(map(isinstance, run, repeat(tuple))):
        raise MalformedWire("an audio run holds only frame tuples")
    try:
        frames = frame_array(run)
        eoa = validate_frames(frames, layer_sizes)
    except InvalidStream as exc:
        raise MalformedWire(f"bad audio run: {exc}") from exc
    if len(run) < 2 or not eoa[-1] or eoa.sum() > 1:
        raise MalformedWire("an audio run is frames closed by one end-of-audio frame")
    return audio_segment(frames[:-1])


def deserialize(
    wire: list,
    format_tag: str,
    special: SpecialTokens,
    layer_sizes,
    *,
    edge_switches: bool = False,
) -> InterleavedStream:
    """Parse wire tokens back into a stream; the inverse of serialize.

    The tag is supplied by the caller since the wire does not carry it.
    The wire is cut into runs at its switch tokens: a text run must be
    all ids, an audio run frames closed by exactly one end-of-audio
    frame (validated as one block), and each switch must open the other
    modality than the run before it. With edge_switches a non-empty wire
    must open and close with the switches serialize writes there. Other
    wires raise MalformedWire; a layout the tag forbids, InvalidStream.
    """
    wire = list(wire)
    if not wire:
        return InterleavedStream(format_tag=format_tag, segments=())
    opens = _switch_kinds(special)
    # runs[i] and runs[i + 1] lie either side of a switch opening kinds[i]
    runs: list[list] = [[]]
    kinds: list[SegmentKind] = []
    for item in wire:
        if isinstance(item, (int, np.integer)) and int(item) in opens:
            kinds.append(opens[int(item)])
            runs.append([])
        else:
            runs[-1].append(item)
    if edge_switches:
        if runs[0] or runs[-1] or len(runs) < 3:
            raise MalformedWire("wire must open and close with a switch token")
        kind, runs, closers = kinds[0], runs[1:-1], kinds[1:]
    else:
        audio_first = runs[0] and isinstance(runs[0][0], tuple)
        kind = SegmentKind.AUDIO if audio_first else SegmentKind.TEXT
        closers = [*kinds, None]

    segments: list[Segment] = []
    for run, closer in zip(runs, closers):
        if closer is kind:
            raise MalformedWire(f"switch into {kind.value} after a {kind.value} run")
        if kind is SegmentKind.AUDIO:
            segments.append(_audio_run(run, layer_sizes))
        elif run and all(map(isinstance, run, repeat((int, np.integer)))):
            segments.append(text_segment(run))
        else:
            raise MalformedWire("a text run is one or more token ids")
        kind = closer
    return InterleavedStream(format_tag=format_tag, segments=tuple(segments))


def build_loss_mask(stream: InterleavedStream) -> LossMask:
    """Per-wire-position loss flags following the format's masking rule.

    INTLV trains on text only; ITTS on everything after the first text
    segment; ASR/AQA/S2TT on the final (response) text; TTS on audio;
    PURE_AUDIO on all positions. A switch token inherits the flag of
    the segment it opens, and an end-of-audio frame the flag of its
    run. Mask length equals the default serialized length.
    """
    rule = _FORMATS[stream.format_tag][1]
    flags: list[bool] = []
    for pos, seg in enumerate(stream.segments):
        # the opening switch (none at pos 0), payload and end-of-audio frame
        n_wire = (pos > 0) + len(seg) + (seg.kind is SegmentKind.AUDIO)
        flags += [rule(pos, seg.kind)] * n_wire
    return LossMask(flags=tuple(flags))
