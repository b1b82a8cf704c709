import numpy as np
import pytest

from rvqtok.datapipe import (
    CorpusStats,
    build_intlv,
    build_itts,
    byte_tokenizer,
    corpus_stats,
)
from rvqtok.errors import InsufficientData, InvalidConfig, InvalidStream, MalformedWire
from rvqtok.streams import SegmentKind, audio_segment, text_segment


def pair(text="hi", n_frames=2):
    return text, np.array([(i, i) for i in range(n_frames)])


class TestByteTokenizer:
    def test_ascii(self):
        assert byte_tokenizer("ab") == [97, 98]

    def test_multibyte(self):
        assert byte_tokenizer("é") == [0xC3, 0xA9]

    def test_empty(self):
        assert byte_tokenizer("") == []


class TestBuildIntlv:
    def test_default_starts_with_audio(self):
        pairs = [pair(text="a"), pair(text="b"), pair(text="c")]
        s = build_intlv(pairs)
        kinds = [seg.kind for seg in s.segments]
        assert kinds == [SegmentKind.AUDIO, SegmentKind.TEXT, SegmentKind.AUDIO]
        assert s.format_tag == "INTLV"
        # pair 0 contributes frames, pair 1 its text
        assert s.segments[0] == audio_segment(pairs[0][1])
        assert s.segments[1].tokens == tuple(byte_tokenizer("b"))

    def test_needs_two_pairs(self):
        with pytest.raises(InsufficientData):
            build_intlv([pair()])
        with pytest.raises(InsufficientData):
            build_intlv([])

    def test_missing_text_rejected(self):
        pairs = [pair(text="a"), ("", np.array([(0,)]))]
        with pytest.raises(InvalidStream):
            build_intlv(pairs)  # pair 1 is the text slot but has no text

    def test_missing_frames_rejected(self):
        pairs = [("a", np.empty((0, 1), dtype=np.int64)), pair(text="b")]
        with pytest.raises(InvalidStream):
            build_intlv(pairs)  # pair 0 is the audio slot but has no frames


class TestBuildItts:
    def test_pairs_become_text_audio(self):
        pairs = [pair(text="a", n_frames=1), pair(text="b", n_frames=2)]
        s = build_itts(pairs)
        assert s.format_tag == "ITTS"
        kinds = [seg.kind for seg in s.segments]
        assert kinds == [SegmentKind.TEXT, SegmentKind.AUDIO] * 2
        assert s.segments[0].tokens == tuple(byte_tokenizer("a"))
        assert s.segments[1] == audio_segment(pairs[0][1])
        assert s.segments[3] == audio_segment(pairs[1][1])

    def test_frames_as_pack_reads_them(self):
        # a read-only uint32 ATK1 slice; its segment holds an int64 copy
        frames = np.arange(6, dtype="<u4").reshape(3, 2)
        frames.setflags(write=False)
        audio = build_itts([("a", frames)]).segments[1]
        assert audio.frames.dtype == np.int64 and np.array_equal(audio.frames, frames)

    def test_single_pair(self):
        s = build_itts([pair()])
        assert len(s.segments) == 2

    def test_needs_one_pair(self):
        with pytest.raises(InsufficientData):
            build_itts([])

    def test_each_pair_needs_both_modalities(self):
        with pytest.raises(InvalidStream):
            build_itts([("a", np.empty((0, 1), dtype=np.int64))])
        with pytest.raises(InvalidStream):
            build_itts([("", np.array([(0,)]))])


def intlv_record(n_pairs=2, duration_s=60.0):
    pairs = [pair(text=f"p{i}", n_frames=3) for i in range(n_pairs)]
    return build_intlv(pairs), duration_s


class TestCorpusStats:
    def test_empty(self):
        stats = corpus_stats([])
        assert stats == CorpusStats()

    def test_totals_oracle(self):
        s1, d1 = intlv_record(2, 3600.0)
        s2 = build_itts([pair(text="ab", n_frames=4)])
        stats = corpus_stats([(s1, d1), (s2, 1800.0)])
        assert stats.records_per_format == {"INTLV": 1, "ITTS": 1}
        assert stats.audio_hours == pytest.approx(1.5)
        assert stats.text_tokens == s1.n_text_tokens() + s2.n_text_tokens()
        assert stats.audio_frames == s1.n_audio_frames() + s2.n_audio_frames()

    def test_negative_duration_rejected(self):
        s, _ = intlv_record()
        with pytest.raises(InvalidConfig):
            corpus_stats([(s, -1.0)])

    def test_hours_past_float64_rejected(self):
        # every duration is finite; their sum in hours is not
        s, _ = intlv_record()
        with pytest.raises(MalformedWire, match="record 6472: audio hours"):
            corpus_stats([(s, 1e308)] * 7000)

    def test_to_dict_sorted(self):
        s1, _ = intlv_record()
        s2 = build_itts([pair()])
        d = corpus_stats([(s2, 1.0), (s1, 1.0)]).to_dict()
        assert list(d["records_per_format"]) == ["INTLV", "ITTS"]
        assert set(d) == {
            "records_per_format",
            "audio_hours",
            "text_tokens",
            "audio_frames",
        }
