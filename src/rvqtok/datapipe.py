"""Desk-scale interleaved-data assembly.

Aligned pairs, each a (text, frames) tuple of a transcript and its
(n, L) audio-token frames, become INTLV or ITTS records: INTLV
alternates whole utterances across modalities, audio first, and ITTS
emits each pair as text followed by its audio. Utterances are never
split; upstream text normalization is out of scope. A pair's duration
and provenance are pack-manifest fields, checked by
``fileformats.read_manifest``; neither is written to the records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, InvalidConfig, InvalidStream, MalformedWire
from .streams import InterleavedStream, Segment, audio_segment, text_segment


def byte_tokenizer(text: str) -> list[int]:
    """UTF-8 bytes as token ids (0..255); a stand-in, not a tokenizer."""
    return list(text.encode("utf-8"))


def build_intlv(pairs: list[tuple[str, np.ndarray]]) -> InterleavedStream:
    """Interleave consecutive pairs into an INTLV record, audio first.

    Even pairs contribute their frames and odd pairs their text: pair 0
    gives audio, pair 1 text, and so on. The layout is fixed, so the
    audio of a record always comes from pairs 0, 2, 4, ...
    """
    if len(pairs) < 2:
        raise InsufficientData(f"INTLV needs at least 2 pairs, got {len(pairs)}")
    segments: list[Segment] = []
    for i, (text, frames) in enumerate(pairs):
        if i % 2:
            ids = byte_tokenizer(text)
            if not ids:
                raise InvalidStream(f"pair {i} supplies no text tokens")
            segments.append(text_segment(ids))
        else:
            if not len(frames):
                raise InvalidStream(f"pair {i} supplies no frames")
            segments.append(audio_segment(frames))
    return InterleavedStream(format_tag="INTLV", segments=tuple(segments))


def build_itts(pairs: list[tuple[str, np.ndarray]]) -> InterleavedStream:
    """Emit each pair as text followed by its frames; format ITTS."""
    if not pairs:
        raise InsufficientData("ITTS needs at least 1 pair")
    segments: list[Segment] = []
    for i, (text, frames) in enumerate(pairs):
        ids = byte_tokenizer(text)
        if not ids or not len(frames):
            raise InvalidStream(f"pair {i} must carry both text and frames")
        segments.append(text_segment(ids))
        segments.append(audio_segment(frames))
    return InterleavedStream(format_tag="ITTS", segments=tuple(segments))


@dataclass
class CorpusStats:
    """Per-format record counts plus corpus-level totals."""

    records_per_format: dict[str, int] = field(default_factory=dict)
    audio_hours: float = 0.0
    text_tokens: int = 0
    audio_frames: int = 0

    def to_dict(self) -> dict:
        return {
            "records_per_format": {
                tag: self.records_per_format[tag]
                for tag in sorted(self.records_per_format)
            },
            "audio_hours": self.audio_hours,
            "text_tokens": self.text_tokens,
            "audio_frames": self.audio_frames,
        }


def corpus_stats(records: list[tuple[InterleavedStream, float]]) -> CorpusStats:
    """Single-pass totals over (stream, duration_s) records; audio hours
    that sum past the float64 range are MalformedWire naming the record."""
    counts: dict[str, int] = {}
    hours = 0.0
    text_tokens = 0
    audio_frames = 0
    for n, (stream, duration_s) in enumerate(records, start=1):
        if duration_s < 0:
            raise InvalidConfig("record duration must be >= 0")
        counts[stream.format_tag] = counts.get(stream.format_tag, 0) + 1
        hours += duration_s / 3600.0
        if not math.isfinite(hours):
            raise MalformedWire(f"record {n}: audio hours sum past the float64 range")
        text_tokens += stream.n_text_tokens()
        audio_frames += stream.n_audio_frames()
    return CorpusStats(
        records_per_format=counts,
        audio_hours=hours,
        text_tokens=text_tokens,
        audio_frames=audio_frames,
    )
