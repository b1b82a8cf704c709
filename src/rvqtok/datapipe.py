"""Desk-scale interleaved-data assembly.

Aligned pairs of a transcript and its audio become INTLV or ITTS records:
INTLV alternates whole utterances across modalities, audio first, and
ITTS emits each pair as text followed by its audio. Utterances are never
split; upstream text normalization is out of scope. ``MIN_PAIRS``
alone says how few pairs a record may hold, ``record_layout`` alone lays
a record out and ``CorpusStats.add`` alone counts it: pack groups its
pairs by the first and writes its records from the other two, through
``fileformats.record_doc``. The builders and ``corpus_stats`` make
the same records as streams, the reference pack is checked against. A
pair's duration and provenance are pack-manifest fields, checked by
``fileformats.read_manifest``; neither is written to the records.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InsufficientData, InvalidConfig, InvalidStream, MalformedWire
from .streams import InterleavedStream, audio_segment, text_segment


def byte_tokenizer(text: str) -> list[int]:
    """UTF-8 bytes as token ids (0..255); a stand-in, not a tokenizer."""
    return list(text.encode("utf-8"))


MIN_PAIRS = {"INTLV": 2, "ITTS": 1}  # INTLV takes audio from one pair, text from the next


def record_layout(tag: str, texts):
    """Yield the segments of an INTLV or ITTS record over pairs with these
    texts: (i, text ids) for pair i's text, (i, None) for its audio. INTLV
    takes audio from pairs 0, 2, 4, ... and text from the rest; ITTS text,
    then audio, from each. Fewer than MIN_PAIRS[tag] pairs is
    InsufficientData; a pair with no text where text is taken,
    InvalidStream when its segment is due."""
    least = MIN_PAIRS[tag]
    if len(texts) < least:
        pairs = "pairs" if least > 1 else "pair"
        raise InsufficientData(f"{tag} needs at least {least} {pairs}, got {len(texts)}")
    for i, text in enumerate(texts):
        if tag == "ITTS" or i % 2:
            ids = byte_tokenizer(text)
            if not ids and tag == "ITTS":
                raise InvalidStream(f"pair {i} must carry both text and frames")
            if not ids:
                raise InvalidStream(f"pair {i} supplies no text tokens")
            yield i, ids
        if tag == "ITTS" or not i % 2:
            yield i, None


def _build(tag: str, pairs: list[tuple[str, np.ndarray]], no_frames: str) -> InterleavedStream:
    segments = []
    for i, ids in record_layout(tag, [text for text, _ in pairs]):
        if ids is None and not len(pairs[i][1]):
            raise InvalidStream(f"pair {i} {no_frames}")
        segments.append(text_segment(ids) if ids else audio_segment(pairs[i][1]))
    return InterleavedStream(format_tag=tag, segments=tuple(segments))


def build_intlv(pairs: list[tuple[str, np.ndarray]]) -> InterleavedStream:
    """Interleave consecutive pairs into an INTLV record, audio first."""
    return _build("INTLV", pairs, "supplies no frames")


def build_itts(pairs: list[tuple[str, np.ndarray]]) -> InterleavedStream:
    """Emit each pair as text followed by its frames; format ITTS."""
    return _build("ITTS", pairs, "must carry both text and frames")


@dataclass
class CorpusStats:
    """Per-format record counts plus corpus-level totals."""

    records_per_format: dict[str, int] = field(default_factory=dict)
    audio_hours: float = 0.0
    text_tokens: int = 0
    audio_frames: int = 0

    def add(self, tag: str, duration_s: float, text_tokens: int, audio_frames: int) -> None:
        """Count one record; audio hours that sum past the float64 range
        are MalformedWire naming the record."""
        if duration_s < 0:
            raise InvalidConfig("record duration must be >= 0")
        self.records_per_format[tag] = self.records_per_format.get(tag, 0) + 1
        self.audio_hours += duration_s / 3600.0
        if not math.isfinite(self.audio_hours):
            n = sum(self.records_per_format.values())
            raise MalformedWire(f"record {n}: audio hours sum past the float64 range")
        self.text_tokens += text_tokens
        self.audio_frames += audio_frames

    def to_dict(self) -> dict:
        counts = dict(sorted(self.records_per_format.items()))  # in tag order
        return {**asdict(self), "records_per_format": counts}


def corpus_stats(records: list[tuple[InterleavedStream, float]]) -> CorpusStats:
    """Single-pass totals over (stream, duration_s) records."""
    stats = CorpusStats()
    for stream, duration_s in records:
        stats.add(stream.format_tag, duration_s, stream.n_text_tokens(), stream.n_audio_frames())
    return stats
