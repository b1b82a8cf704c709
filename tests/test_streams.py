import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rvqtok.errors import (
    IndexOutOfRange,
    InvalidConfig,
    InvalidStream,
    MalformedWire,
    ShapeMismatch,
)
from rvqtok.streams import (
    FORMAT_TAGS,
    EmbeddingSpec,
    InterleavedStream,
    LossMask,
    Segment,
    SegmentKind,
    SpecialTokens,
    audio_segment,
    build_loss_mask,
    deserialize,
    eoa_frame,
    is_eoa,
    serialize,
    sum_embeddings,
    text_segment,
    validate_frames,
)

SIZES = (8, 4, 4)
SPECIAL = SpecialTokens(switch_ta=100, switch_at=101)
EOA = eoa_frame(SIZES)


def frame(*indices):
    return tuple(indices)


def stream(tag, *segments):
    return InterleavedStream(format_tag=tag, segments=tuple(segments))


class TestEoa:
    def test_eoa_frame_values(self):
        assert EOA == SIZES

    def test_is_eoa(self):
        assert is_eoa(EOA, SIZES)
        assert is_eoa(np.array(SIZES, dtype=np.uint32), SIZES)
        assert not is_eoa(frame(0, 0, 0), SIZES)

    def test_is_eoa_layer_count(self):
        with pytest.raises(ShapeMismatch):
            is_eoa(frame(0, 0), SIZES)

    def test_validate_accepts_max_index(self):
        eoa = validate_frames([frame(7, 3, 3), EOA, frame(0, 0, 0)], SIZES)
        assert eoa.tolist() == [False, True, False]
        assert validate_frames(np.zeros((0, 3), dtype=np.uint32), SIZES).size == 0

    def test_validate_rejects_overflow(self):
        with pytest.raises(InvalidStream):
            validate_frames([frame(0, 0, 0), frame(9, 0, 0)], SIZES)

    def test_validate_rejects_partial_eoa(self):
        # the terminator uses K_l in every layer or none
        with pytest.raises(InvalidStream):
            validate_frames([frame(8, 0, 0)], SIZES)
        with pytest.raises(InvalidStream):
            validate_frames([EOA, frame(1, 4, 4)], SIZES)

    def test_validate_layer_count(self):
        with pytest.raises(InvalidStream):
            validate_frames([frame(0)], SIZES)

    def test_validate_rejects_empty_frame(self):
        with pytest.raises(InvalidStream):
            validate_frames([frame()], SIZES)

    def test_validate_rejects_negative(self):
        with pytest.raises(InvalidStream):
            validate_frames([frame(0, -1, 0)], SIZES)
        s = stream("PURE_AUDIO", audio_segment([frame(0, -1, 0)]))
        with pytest.raises(InvalidStream):
            serialize(s, SPECIAL, SIZES)


class TestSegment:
    def test_text_payload(self):
        seg = text_segment([5, 6])
        assert seg.kind is SegmentKind.TEXT
        assert len(seg) == 2

    def test_audio_payload(self):
        seg = audio_segment([frame(0, 0, 0)])
        assert seg.kind is SegmentKind.AUDIO
        assert len(seg) == 1

    def test_text_needs_tokens(self):
        with pytest.raises(InvalidStream):
            text_segment([])

    def test_audio_needs_frames(self):
        with pytest.raises(InvalidStream):
            audio_segment([])

    def test_text_rejects_negative_ids(self):
        with pytest.raises(InvalidStream):
            text_segment([-3])

    def test_mixed_payload_rejected(self):
        with pytest.raises(InvalidStream):
            Segment(kind=SegmentKind.TEXT, tokens=(1,), frames=(frame(0, 0, 0),))

    def test_frames_are_read_only_int64(self):
        source = np.array([[0, 1, 2]])
        seg = audio_segment(source)
        source[0, 0] = 5  # the segment holds a copy
        assert seg.frames.dtype == np.int64
        assert seg.frames.tolist() == [[0, 1, 2]]
        with pytest.raises(ValueError):
            seg.frames[0, 0] = 1

    def test_equality_and_hash_follow_values(self):
        values = [[0, 1, 2], [7, 3, 3]]
        body = np.array(values, dtype="<u4").tobytes()
        from_file = audio_segment(np.frombuffer(body, dtype="<u4").reshape(2, 3))
        from_list = audio_segment([tuple(v) for v in values])
        assert from_file == from_list
        assert hash(from_file) == hash(from_list)
        assert from_file != audio_segment([[0, 1, 2]])
        assert from_file != audio_segment([[0, 1, 2], [7, 3, 2]])
        # same values, different frame shape
        assert audio_segment([[1, 2]]) != audio_segment([[1], [2]])
        assert audio_segment([[1]]) != text_segment([1])

    def test_frames_must_be_a_matrix(self):
        with pytest.raises(InvalidStream):
            audio_segment([(0, 1), (2,)])
        with pytest.raises(InvalidStream):
            audio_segment([0, 1])


T1 = text_segment([1, 2])
T2 = text_segment([3])
A1 = audio_segment([frame(0, 1, 2), frame(7, 3, 3)])
A2 = audio_segment([frame(2, 2, 2)])


class TestGrammar:
    def test_unknown_tag(self):
        with pytest.raises(InvalidConfig):
            stream("BANJO", T1)

    def test_empty_stream_valid_everywhere(self):
        for tag in FORMAT_TAGS:
            assert stream(tag).segments == ()

    def test_adjacent_same_modality(self):
        with pytest.raises(InvalidStream):
            stream("INTLV", T1, T2)

    def test_transcription_layouts(self):
        for tag in ("ASR", "AQA", "S2TT"):
            stream(tag, T1, A1, T2)
            with pytest.raises(InvalidStream):
                stream(tag, T1, A1)
            with pytest.raises(InvalidStream):
                stream(tag, A1, T1, A2)

    def test_tts_layout(self):
        stream("TTS", T1, A1)
        with pytest.raises(InvalidStream):
            stream("TTS", A1, T1)
        with pytest.raises(InvalidStream):
            stream("TTS", T1, A1, T2)

    def test_pure_audio_layout(self):
        stream("PURE_AUDIO", A1)
        with pytest.raises(InvalidStream):
            stream("PURE_AUDIO", T1)
        with pytest.raises(InvalidStream):
            stream("PURE_AUDIO", A1, T1)

    def test_itts_pairs(self):
        stream("ITTS", T1, A1)
        stream("ITTS", T1, A1, T2, A2)
        with pytest.raises(InvalidStream):
            stream("ITTS", T1, A1, T2)  # trailing unpaired text
        with pytest.raises(InvalidStream):
            stream("ITTS", A1, T1)  # audio first

    def test_intlv_either_start(self):
        stream("INTLV", T1, A1)
        stream("INTLV", A1, T1)
        stream("INTLV", A1, T1, A2)
        with pytest.raises(InvalidStream):
            stream("INTLV", T1)  # a single segment is not interleaved

    def test_counts(self):
        s = stream("ITTS", T1, A1, T2, A2)
        assert s.n_audio_frames() == 3
        assert s.n_text_tokens() == 3


class TestSpecialTokens:
    def test_distinct(self):
        with pytest.raises(InvalidConfig):
            SpecialTokens(switch_ta=5, switch_at=5)

    def test_non_negative(self):
        with pytest.raises(InvalidConfig):
            SpecialTokens(switch_ta=-1, switch_at=0)

    def test_ids(self):
        assert SPECIAL.ids == frozenset((100, 101))


class TestSerialize:
    def test_tts_wire_layout(self):
        s = stream("TTS", text_segment([1, 2]), A2)
        wire = serialize(s, SPECIAL, SIZES)
        assert wire == [1, 2, SPECIAL.switch_ta, frame(2, 2, 2), EOA]

    def test_transcription_wire_layout(self):
        s = stream("ASR", text_segment([1]), A2, text_segment([9]))
        wire = serialize(s, SPECIAL, SIZES)
        assert wire == [
            1,
            SPECIAL.switch_ta,
            frame(2, 2, 2),
            EOA,
            SPECIAL.switch_at,
            9,
        ]

    def test_pure_audio_has_no_switches(self):
        # a single-segment stream serializes without any switch tokens
        wire = serialize(stream("PURE_AUDIO", A1), SPECIAL, SIZES)
        assert wire == [frame(0, 1, 2), frame(7, 3, 3), EOA]
        assert not any(isinstance(w, int) for w in wire)

    def test_itts_wire_layout(self):
        s = stream("ITTS", text_segment([4]), A2, text_segment([5]), A2)
        wire = serialize(s, SPECIAL, SIZES)
        assert wire == [
            4,
            SPECIAL.switch_ta,
            frame(2, 2, 2),
            EOA,
            SPECIAL.switch_at,
            5,
            SPECIAL.switch_ta,
            frame(2, 2, 2),
            EOA,
        ]

    def test_edge_switches(self):
        s = stream("TTS", text_segment([1]), A2)
        wire = serialize(s, SPECIAL, SIZES, edge_switches=True)
        assert wire == [
            SPECIAL.switch_at,
            1,
            SPECIAL.switch_ta,
            frame(2, 2, 2),
            EOA,
            SPECIAL.switch_at,
        ]

    def test_empty_stream(self):
        assert serialize(stream("TTS"), SPECIAL, SIZES) == []
        assert serialize(stream("TTS"), SPECIAL, SIZES, edge_switches=True) == []

    def test_switch_collision_in_text(self):
        s = stream("TTS", text_segment([SPECIAL.switch_ta]), A2)
        with pytest.raises(InvalidStream):
            serialize(s, SPECIAL, SIZES)

    def test_interior_eoa_rejected(self):
        s = stream("PURE_AUDIO", audio_segment([EOA]))
        with pytest.raises(InvalidStream):
            serialize(s, SPECIAL, SIZES)

    def test_out_of_range_frame_rejected(self):
        s = stream("PURE_AUDIO", audio_segment([frame(20, 0, 0)]))
        with pytest.raises(InvalidStream):
            serialize(s, SPECIAL, SIZES)


REPRESENTATIVE = {
    "ASR": (T1, A1, T2),
    "AQA": (T1, A1, T2),
    "S2TT": (T1, A1, T2),
    "INTLV": (A1, T1, A2, T2),
    "TTS": (T1, A1),
    "ITTS": (T1, A1, T2, A2),
    "PURE_AUDIO": (A1,),
}


class TestDeserialize:
    @pytest.mark.parametrize("tag", FORMAT_TAGS)
    def test_round_trip(self, tag):
        s = stream(tag, *REPRESENTATIVE[tag])
        wire = serialize(s, SPECIAL, SIZES)
        assert deserialize(wire, tag, SPECIAL, SIZES) == s

    @pytest.mark.parametrize("tag", FORMAT_TAGS)
    def test_round_trip_edge_switches(self, tag):
        s = stream(tag, *REPRESENTATIVE[tag])
        wire = serialize(s, SPECIAL, SIZES, edge_switches=True)
        assert deserialize(wire, tag, SPECIAL, SIZES, edge_switches=True) == s

    def test_empty_wire(self):
        s = deserialize([], "TTS", SPECIAL, SIZES)
        assert s == stream("TTS")

    def test_numpy_ints_accepted(self):
        wire = [np.int64(1), np.int64(SPECIAL.switch_ta), frame(0, 0, 0), EOA]
        s = deserialize(wire, "TTS", SPECIAL, SIZES)
        assert s.segments[0].tokens == (1,)

    def test_frame_in_text_run(self):
        with pytest.raises(MalformedWire):
            deserialize([1, frame(0, 0, 0)], "TTS", SPECIAL, SIZES)

    def test_missing_eoa(self):
        with pytest.raises(MalformedWire):
            deserialize([1, SPECIAL.switch_ta, frame(0, 0, 0)], "TTS", SPECIAL, SIZES)

    def test_frame_after_eoa(self):
        wire = [frame(0, 0, 0), EOA, frame(1, 1, 1)]
        with pytest.raises(MalformedWire):
            deserialize(wire, "PURE_AUDIO", SPECIAL, SIZES)

    def test_text_inside_audio_run(self):
        wire = [1, SPECIAL.switch_ta, frame(0, 0, 0), 2]
        with pytest.raises(MalformedWire):
            deserialize(wire, "TTS", SPECIAL, SIZES)

    def test_text_after_eoa_without_switch(self):
        wire = [frame(0, 0, 0), EOA, 7]
        with pytest.raises(MalformedWire):
            deserialize(wire, "INTLV", SPECIAL, SIZES)

    def test_switch_ta_outside_text(self):
        with pytest.raises(MalformedWire):
            deserialize([SPECIAL.switch_ta], "TTS", SPECIAL, SIZES)

    def test_switch_at_without_closed_run(self):
        wire = [1, SPECIAL.switch_ta, frame(0, 0, 0), SPECIAL.switch_at]
        with pytest.raises(MalformedWire):
            deserialize(wire, "TTS", SPECIAL, SIZES)

    def test_dangling_trailing_switch(self):
        base = serialize(stream("TTS", T1, A2), SPECIAL, SIZES)
        with pytest.raises(MalformedWire):
            deserialize(base + [SPECIAL.switch_at], "TTS", SPECIAL, SIZES)
        with pytest.raises(MalformedWire):
            deserialize([1, SPECIAL.switch_ta], "TTS", SPECIAL, SIZES)

    def test_partial_eoa_frame(self):
        with pytest.raises(MalformedWire):
            deserialize([frame(8, 0, 0)], "PURE_AUDIO", SPECIAL, SIZES)

    def test_unrecognized_item(self):
        with pytest.raises(MalformedWire):
            deserialize(["text"], "TTS", SPECIAL, SIZES)

    def test_malformed_frame_tuples(self):
        for bad in [(0, 0), (0, 0, 0, 0), (0, "a", 0), (0, None, 0), (0, 2**70, 0)]:
            with pytest.raises(MalformedWire):
                deserialize([frame(1, 1, 1), bad, EOA], "PURE_AUDIO", SPECIAL, SIZES)
        with pytest.raises(MalformedWire):
            deserialize([frame(0, -1, 0), EOA], "PURE_AUDIO", SPECIAL, SIZES)
        with pytest.raises(MalformedWire):
            deserialize([frame(0, 5, 0), EOA], "PURE_AUDIO", SPECIAL, SIZES)

    def test_grammar_enforced_on_result(self):
        # well-formed wire, wrong layout for the claimed tag
        wire = serialize(stream("TTS", T1, A1), SPECIAL, SIZES)
        with pytest.raises(InvalidStream):
            deserialize(wire, "PURE_AUDIO", SPECIAL, SIZES)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_round_trip_fuzz(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        tag = FORMAT_TAGS[int(rng.integers(len(FORMAT_TAGS)))]
        s = random_stream(tag, rng)
        wire = serialize(s, SPECIAL, SIZES)
        assert deserialize(wire, tag, SPECIAL, SIZES) == s
        assert len(build_loss_mask(s)) == len(wire)


def random_text(rng):
    n = int(rng.integers(1, 5))
    return text_segment([int(t) for t in rng.integers(0, 90, size=n)])


def random_audio(rng):
    n = int(rng.integers(1, 4))
    frames = [
        frame(*(int(rng.integers(0, k)) for k in SIZES)) for _ in range(n)
    ]
    return audio_segment(frames)


def random_stream(tag, rng):
    if tag in ("ASR", "AQA", "S2TT"):
        kinds = [SegmentKind.TEXT, SegmentKind.AUDIO, SegmentKind.TEXT]
    elif tag == "TTS":
        kinds = [SegmentKind.TEXT, SegmentKind.AUDIO]
    elif tag == "PURE_AUDIO":
        kinds = [SegmentKind.AUDIO]
    elif tag == "ITTS":
        kinds = [SegmentKind.TEXT, SegmentKind.AUDIO] * int(rng.integers(1, 4))
    else:  # INTLV
        n = int(rng.integers(2, 7))
        first = SegmentKind.TEXT if rng.integers(2) else SegmentKind.AUDIO
        other = (
            SegmentKind.AUDIO if first is SegmentKind.TEXT else SegmentKind.TEXT
        )
        kinds = [first if i % 2 == 0 else other for i in range(n)]
    segs = [
        random_text(rng) if k is SegmentKind.TEXT else random_audio(rng)
        for k in kinds
    ]
    return stream(tag, *segs)


class TestLossMask:
    def mask(self, s):
        return build_loss_mask(s).flags

    def test_intlv_text_only(self):
        # audio first: frames and EOA false, switch into text true
        s = stream("INTLV", A2, text_segment([5]))
        assert self.mask(s) == (False, False, True, True)

    def test_intlv_text_first(self):
        s = stream("INTLV", text_segment([5]), A2)
        # text true, then switch/frame/EOA of the audio run all false
        assert self.mask(s) == (True, False, False, False)

    def test_itts_first_text_unsupervised(self):
        s = stream("ITTS", text_segment([4]), A2, text_segment([5]), A2)
        assert self.mask(s) == (
            False,  # first text
            True, True, True,  # switch, frame, EOA
            True, True,  # switch, second text
            True, True, True,
        )

    def test_transcription_supervises_response_only(self):
        s = stream("ASR", text_segment([1, 2]), A2, text_segment([9]))
        assert self.mask(s) == (
            False, False,  # prompt text
            False, False, False,  # switch, frame, EOA
            True, True,  # switch into response, response token
        )

    def test_tts_supervises_audio(self):
        s = stream("TTS", text_segment([1]), A2)
        assert self.mask(s) == (False, True, True, True)

    def test_pure_audio_all_supervised(self):
        s = stream("PURE_AUDIO", A1)
        assert self.mask(s) == (True, True, True)

    def test_empty_stream(self):
        assert self.mask(stream("TTS")) == ()

    def test_length_matches_wire(self):
        for tag, segs in REPRESENTATIVE.items():
            s = stream(tag, *segs)
            assert len(build_loss_mask(s)) == len(serialize(s, SPECIAL, SIZES))

    def test_mask_coercion(self):
        m = LossMask(flags=(1, 0))
        assert m.flags == (True, False)
        assert len(m) == 2


class TestEmbeddings:
    def test_vocab_adds_eoa_row(self):
        spec = EmbeddingSpec(layer_sizes=(8, 4))
        assert spec.vocab_sizes == (9, 5)
        assert spec.n_layers == 2

    def test_spec_rejects_bad_sizes(self):
        with pytest.raises(InvalidConfig):
            EmbeddingSpec(layer_sizes=())
        with pytest.raises(InvalidConfig):
            EmbeddingSpec(layer_sizes=(4, 0))

    def test_sum_oracle(self, rng):
        tables = [rng.standard_normal((9, 6)), rng.standard_normal((5, 6))]
        f = frame(3, 4)
        got = sum_embeddings(f, tables)
        assert np.allclose(got, tables[0][3] + tables[1][4], atol=1e-12)

    def test_eoa_embeds_like_any_frame(self, rng):
        spec = EmbeddingSpec(layer_sizes=(8, 4))
        tables = [rng.standard_normal((n, 3)) for n in spec.vocab_sizes]
        got = sum_embeddings(eoa_frame((8, 4)), tables, spec)
        assert np.allclose(got, tables[0][8] + tables[1][4], atol=1e-12)

    def test_linearity(self, rng):
        a = [rng.standard_normal((9, 4)), rng.standard_normal((5, 4))]
        b = [rng.standard_normal((9, 4)), rng.standard_normal((5, 4))]
        f = frame(2, 1)
        combined = sum_embeddings(f, [a[0] + b[0], a[1] + b[1]])
        assert np.allclose(
            combined, sum_embeddings(f, a) + sum_embeddings(f, b), atol=1e-12
        )

    def test_index_out_of_range(self, rng):
        tables = [rng.standard_normal((4, 2))]
        with pytest.raises(IndexOutOfRange):
            sum_embeddings(frame(4), tables)

    def test_negative_index_rejected(self, rng):
        # a negative index would otherwise select a row from the end
        tables = [rng.standard_normal((4, 2))]
        with pytest.raises(IndexOutOfRange):
            sum_embeddings(frame(-1), tables)

    def test_table_count_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            sum_embeddings(frame(0, 0), [rng.standard_normal((4, 2))])

    def test_width_mismatch(self, rng):
        tables = [rng.standard_normal((4, 2)), rng.standard_normal((4, 3))]
        with pytest.raises(ShapeMismatch):
            sum_embeddings(frame(0, 0), tables)

    def test_spec_row_check(self, rng):
        spec = EmbeddingSpec(layer_sizes=(8,))
        with pytest.raises(ShapeMismatch):
            sum_embeddings(frame(0), [rng.standard_normal((8, 2))], spec)
