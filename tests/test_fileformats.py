import json
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rvqtok.errors import (
    EmptyInput,
    IndexOutOfRange,
    InvalidConfig,
    MalformedWire,
    ShapeMismatch,
)
from rvqtok.fileformats import (
    AFV1_MAGIC,
    ATK1_MAGIC,
    RVQ1_MAGIC,
    atk1_writer,
    load_stream_record,
    open_afv1,
    read_afv1,
    read_atk1,
    read_eval_records,
    read_manifest,
    read_raw_f32,
    read_rvq1,
    read_special_tokens,
    read_wav,
    stream_record,
    write_afv1,
    write_atk1,
    write_eval_records,
    write_rvq1,
    write_special_tokens,
    write_wav,
)
from rvqtok.mel import AudioBuffer
from rvqtok.metrics import EvalRecord
from rvqtok.rvq import Codebook, RvqStack
from rvqtok.streams import (
    InterleavedStream,
    SpecialTokens,
    audio_segment,
    build_loss_mask,
    text_segment,
)


def through_a_pipe(tmp_path, data: bytes, read):
    """read(fifo) while another thread writes data into the FIFO."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


class TestAfv1:
    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "x.afv1"
        vec = rng.standard_normal((13, 5)).astype(np.float32).astype(np.float64)
        write_afv1(path, vec, 12.5)
        back, rate = read_afv1(path)
        assert rate == 12.5
        assert np.array_equal(back, vec)

    def test_zero_frames(self, tmp_path):
        path = tmp_path / "empty.afv1"
        write_afv1(path, np.zeros((0, 4)), 100.0)
        back, rate = read_afv1(path)
        assert back.shape == (0, 4)

    def test_rejects_non_matrix(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            write_afv1(tmp_path / "x.afv1", np.zeros(5), 1.0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.afv1"
        path.write_bytes(struct.pack("<4sIId", b"NOPE", 0, 0, 1.0))
        with pytest.raises(MalformedWire):
            read_afv1(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "x.afv1"
        write_afv1(path, np.ones((3, 3)), 1.0)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(MalformedWire):
            read_afv1(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "x.afv1"
        write_afv1(path, np.ones((2, 2)), 1.0)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(MalformedWire):
            read_afv1(path)

    def test_reads_from_a_pipe(self, tmp_path, rng):
        # the header-size check needs a file length; a pipe has none
        x = rng.standard_normal((3, 4)).astype(np.float32).astype(np.float64)
        write_afv1(tmp_path / "x.afv1", x, 12.5)
        data = (tmp_path / "x.afv1").read_bytes()
        back, rate = through_a_pipe(tmp_path, data, read_afv1)
        assert np.array_equal(back, x)
        assert rate == 12.5

    def test_header_layout(self, tmp_path):
        # pinned byte layout: magic, u32 T, u32 D, f64 rate, then f32 LE
        path = tmp_path / "x.afv1"
        write_afv1(path, np.array([[1.5]]), 25.0)
        data = path.read_bytes()
        assert data[:4] == AFV1_MAGIC
        assert struct.unpack("<II", data[4:12]) == (1, 1)
        assert struct.unpack("<d", data[12:20]) == (25.0,)
        assert struct.unpack("<f", data[20:24]) == (1.5,)

    def test_deterministic_bytes(self, tmp_path, rng):
        vec = rng.standard_normal((6, 4))
        a, b = tmp_path / "a.afv1", tmp_path / "b.afv1"
        write_afv1(a, vec, 12.5)
        write_afv1(b, vec, 12.5)
        assert a.read_bytes() == b.read_bytes()


class TestOpenAfv1:
    def test_rows_in_order(self, tmp_path, rng):
        path = tmp_path / "x.afv1"
        x = rng.standard_normal((10, 3)).astype(np.float32).astype(np.float64)
        write_afv1(path, x, 25.0)
        with open_afv1(path) as rows:
            assert (rows.n_rows, rows.dim, rows.frame_rate) == (10, 3, 25.0)
            parts = [rows.read(4), rows.read(0), rows.read(6)]
            with pytest.raises(ShapeMismatch):
                rows.read(1)
        assert all(p.dtype == np.float64 for p in parts)
        assert np.array_equal(np.concatenate(parts), x)

    @pytest.mark.parametrize("edit", [lambda d: d[:-1], lambda d: d + b"\x00"])
    def test_size_checked_before_any_row(self, tmp_path, edit):
        path = tmp_path / "x.afv1"
        write_afv1(path, np.ones((3, 2)), 1.0)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(MalformedWire, match="AFV1 body"):
            with open_afv1(path):
                pytest.fail("rows offered from a file of the wrong size")

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda d: d + b"\x00", "trailing bytes"), (lambda d: d[:-1], "truncated")],
    )
    def test_pipe_checked_as_read(self, tmp_path, edit, message):
        write_afv1(tmp_path / "x.afv1", np.ones((3, 2)), 1.0)
        data = edit((tmp_path / "x.afv1").read_bytes())

        def read(fifo):
            with open_afv1(fifo) as rows:
                rows.read(1)  # a pipe has no size to check up front
                rows.read(2)

        with pytest.raises(MalformedWire, match=message):
            through_a_pipe(tmp_path, data, read)


class TestAtk1:
    def test_round_trip(self, tmp_path):
        frames = np.array([(0, 3), (7, 1), (8, 4)])
        path = tmp_path / "x.atk1"
        write_atk1(path, frames, (8, 4))
        back, sizes = read_atk1(path)
        assert back.dtype == np.int64
        assert np.array_equal(back, frames)
        assert sizes == (8, 4)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "x.atk1"
        write_atk1(path, np.zeros((0, 2), dtype=np.int64), (8, 4))
        back, sizes = read_atk1(path)
        assert back.shape == (0, 2)
        assert sizes == (8, 4)

    def test_layer_count_enforced(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            write_atk1(tmp_path / "x.atk1", [(0,)], (8, 4))
        with pytest.raises(ShapeMismatch):
            write_atk1(tmp_path / "x.atk1", [0, 1], (8, 4))

    def test_rejects_indices_outside_u32(self, tmp_path):
        path = tmp_path / "x.atk1"
        for bad in (-1, 2**32):
            with pytest.raises(IndexOutOfRange):
                write_atk1(path, np.array([[0, bad]], dtype=np.int64), (8, 4))
        with pytest.raises(IndexOutOfRange):
            write_atk1(path, np.array([[0.0, 1.0]]), (8, 4))
        assert not path.exists()
        write_atk1(path, np.array([[0, 2**32 - 1]], dtype=np.uint64), (8, 4))
        assert read_atk1(path)[0].tolist() == [[0, 2**32 - 1]]

    def test_needs_layer_sizes(self, tmp_path):
        with pytest.raises(InvalidConfig):
            write_atk1(tmp_path / "x.atk1", [], ())

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.atk1"
        path.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(MalformedWire):
            read_atk1(path)

    def test_zero_layers_rejected(self, tmp_path):
        path = tmp_path / "x.atk1"
        path.write_bytes(struct.pack("<4sI", ATK1_MAGIC, 0))
        with pytest.raises(MalformedWire):
            read_atk1(path)

    def test_truncated_frame(self, tmp_path):
        path = tmp_path / "x.atk1"
        write_atk1(path, [(1, 2)], (8, 4))
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(MalformedWire):
            read_atk1(path)

    def test_byte_layout(self, tmp_path):
        path = tmp_path / "x.atk1"
        write_atk1(path, [(5, 2)], (8, 4))
        data = path.read_bytes()
        assert data[:4] == ATK1_MAGIC
        assert struct.unpack("<I", data[4:8]) == (2,)  # L
        assert struct.unpack("<II", data[8:16]) == (8, 4)  # K per layer
        assert struct.unpack("<I", data[16:20]) == (1,)  # frame count
        assert struct.unpack("<II", data[20:28]) == (5, 2)

    def test_writer_in_blocks_equals_write_atk1(self, tmp_path):
        frames = np.array([(0, 3), (7, 1), (8, 4), (2, 2), (5, 0)])
        write_atk1(tmp_path / "whole.atk1", frames, (8, 4))
        with atk1_writer(tmp_path / "blocks.atk1", 5, (8, 4)) as write:
            for block in (frames[:2], frames[2:2], frames[2:]):
                write(block)
        assert (tmp_path / "blocks.atk1").read_bytes() == (tmp_path / "whole.atk1").read_bytes()

    @pytest.mark.parametrize(
        "blocks, error",
        [
            ([[(0, 1)]], ShapeMismatch),  # one frame of two
            ([[(0, 1)], [(1, 1), (2, 2)]], ShapeMismatch),  # three of two
            ([[(0, 1)], [(1, -1)]], IndexOutOfRange),
        ],
    )
    def test_failed_writer_leaves_old_file(self, tmp_path, blocks, error):
        path = tmp_path / "x.atk1"
        path.write_bytes(b"an older output")
        with pytest.raises(error):
            with atk1_writer(path, 2, (8, 4)) as write:
                for block in blocks:
                    write(np.array(block))
        assert path.read_bytes() == b"an older output"
        assert [p.name for p in tmp_path.iterdir()] == ["x.atk1"]


def atk1_bytes(seed, tmp_dir):
    """A valid ATK1 file from a seed: 1-4 layers, 0-5 frames, any u32 index."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_layers = int(rng.integers(1, 5))
    sizes = tuple(int(k) for k in rng.integers(1, 2**32, size=n_layers))
    frames = rng.integers(0, 2**32, size=(int(rng.integers(0, 6)), n_layers))
    path = tmp_dir / "valid.atk1"
    write_atk1(path, frames, sizes)
    return path.read_bytes(), frames, sizes


def read_atk1_bytes(data, tmp_dir):
    path = tmp_dir / "fuzz.atk1"
    path.write_bytes(data)
    return read_atk1(path)


class TestAtk1Fuzz:
    """Hostile ATK1 bytes raise MalformedWire and nothing else."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60)
    def test_every_truncation(self, seed, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("atk1")
        data, frames, sizes = atk1_bytes(seed, tmp_dir)
        back, back_sizes = read_atk1_bytes(data, tmp_dir)
        assert np.array_equal(back, frames) and back_sizes == sizes
        for cut in range(len(data)):
            with pytest.raises(MalformedWire):
                read_atk1_bytes(data[:cut], tmp_dir)

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=60)
    def test_oversize_layer_count_or_frame_count(self, seed, data, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("atk1")
        valid, frames, sizes = atk1_bytes(seed, tmp_dir)
        # claim more layer sizes than the file holds, or more frames
        n_layers = data.draw(st.integers((len(valid) - 8) // 4 + 1, 2**32 - 1))
        with pytest.raises(MalformedWire):
            read_atk1_bytes(valid[:4] + struct.pack("<I", n_layers) + valid[8:], tmp_dir)
        count_at = 8 + 4 * len(sizes)
        count = data.draw(st.integers(len(frames) + 1, 2**32 - 1))
        hostile = valid[:count_at] + struct.pack("<I", count) + valid[count_at + 4 :]
        with pytest.raises(MalformedWire):
            read_atk1_bytes(hostile, tmp_dir)

    @given(seed=st.integers(0, 10_000), extra=st.binary(min_size=1, max_size=16))
    @settings(max_examples=60)
    def test_appended_bytes(self, seed, extra, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("atk1")
        valid, _, _ = atk1_bytes(seed, tmp_dir)
        with pytest.raises(MalformedWire):
            read_atk1_bytes(valid + extra, tmp_dir)

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=100)
    def test_bit_flips(self, seed, data, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("atk1")
        valid, frames, sizes = atk1_bytes(seed, tmp_dir)
        bit = data.draw(st.integers(0, 8 * len(valid) - 1))
        flipped = bytearray(valid)
        flipped[bit // 8] ^= 1 << (bit % 8)
        body_at = 12 + 4 * len(sizes)
        if bit // 8 >= body_at:
            # every u32 is a valid index: a body flip reads back as flipped
            back, back_sizes = read_atk1_bytes(bytes(flipped), tmp_dir)
            want = np.frombuffer(bytes(flipped[body_at:]), dtype="<u4")
            assert np.array_equal(back.ravel(), want) and back_sizes == sizes
            assert np.count_nonzero(back != frames) == 1
        else:
            try:
                read_atk1_bytes(bytes(flipped), tmp_dir)
            except MalformedWire:
                pass


class TestRvq1:
    def make_stack(self, rng):
        return RvqStack(
            [
                Codebook(
                    rng.standard_normal((4, 3)).astype(np.float32).astype(np.float64),
                    ema_decay=0.97,
                    norm_beta=0.01,
                    usage_counts=np.array([0, 5, 2, 0]),
                ),
                Codebook(
                    rng.standard_normal((2, 3)).astype(np.float32).astype(np.float64)
                ),
            ]
        )

    def test_round_trip(self, tmp_path, rng):
        stack = self.make_stack(rng)
        path = tmp_path / "x.rvq1"
        write_rvq1(path, stack)
        back = read_rvq1(path)
        assert back.layer_sizes == stack.layer_sizes
        for src, dst in zip(stack.layers, back.layers):
            assert np.array_equal(src.vectors, dst.vectors)
            assert np.array_equal(src.usage_counts, dst.usage_counts)
            assert dst.ema_decay == src.ema_decay
            assert dst.norm_beta == src.norm_beta

    def test_deterministic_bytes(self, tmp_path, rng):
        stack = self.make_stack(rng)
        a, b = tmp_path / "a.rvq1", tmp_path / "b.rvq1"
        write_rvq1(a, stack)
        write_rvq1(b, stack)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.rvq1"
        path.write_bytes(b"WHAT" + b"\x00" * 8)
        with pytest.raises(MalformedWire):
            read_rvq1(path)

    def test_zero_layers(self, tmp_path):
        path = tmp_path / "x.rvq1"
        path.write_bytes(struct.pack("<4sI", RVQ1_MAGIC, 0))
        with pytest.raises(MalformedWire):
            read_rvq1(path)

    def test_truncated_codewords(self, tmp_path, rng):
        path = tmp_path / "x.rvq1"
        write_rvq1(path, self.make_stack(rng))
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(MalformedWire):
            read_rvq1(path)


class TestWav:
    def test_round_trip(self, tmp_path, rng):
        samples = np.clip(rng.standard_normal(800) * 0.3, -1, 1)
        audio = AudioBuffer(samples=samples, sample_rate=16000)
        path = tmp_path / "x.wav"
        write_wav(path, audio)
        back = read_wav(path)
        assert back.sample_rate == 16000
        # 16-bit quantization plus the 32767/32768 scale asymmetry
        assert np.abs(back.samples - samples).max() < 1.0 / 16000

    def test_clipping_on_write(self, tmp_path):
        audio = AudioBuffer(samples=np.array([2.0, -2.0]), sample_rate=8000)
        path = tmp_path / "x.wav"
        write_wav(path, audio)
        back = read_wav(path)
        assert np.abs(back.samples).max() <= 1.0

    def test_hostile_bytes(self, tmp_path):
        # every truncation, and byte changes across the 44-byte header,
        # either read or raise MalformedWire (InvalidConfig for a valid
        # header that is not 16-bit mono) and nothing else
        path = tmp_path / "x.wav"
        write_wav(path, AudioBuffer(np.linspace(-0.5, 0.5, 50), 16000))
        good = path.read_bytes()
        hostile = [good[:cut] for cut in range(len(good))]
        hostile += [
            good[:i] + bytes([v]) + good[i + 1 :] for i in range(44) for v in (0, 1, 0x80, 0xFF)
        ]
        outcomes = set()
        for data in hostile:
            path.write_bytes(data)
            try:
                read_wav(path)
                outcomes.add("read")
            except (MalformedWire, InvalidConfig) as exc:
                outcomes.add(type(exc).__name__)
        assert outcomes == {"read", "MalformedWire", "InvalidConfig"}

    def test_raw_f32(self, tmp_path):
        samples = np.array([0.5, -0.25, 0.0], dtype="<f4")
        path = tmp_path / "x.f32"
        samples.tofile(path)
        back = read_raw_f32(path, 16000)
        assert np.array_equal(back.samples, samples.astype(np.float64))
        assert back.sample_rate == 16000


class TestSpecialTokens:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "special.json"
        write_special_tokens(path, SpecialTokens(switch_ta=300, switch_at=301))
        back = read_special_tokens(path)
        assert back == SpecialTokens(switch_ta=300, switch_at=301)


def sample_stream():
    return InterleavedStream(
        format_tag="TTS",
        segments=(
            text_segment([1, 2]),
            audio_segment([(0, 1), (3, 2)]),
        ),
    )


class TestStreamRecord:
    def test_round_trip(self):
        s = sample_stream()
        mask = build_loss_mask(s)
        obj = stream_record(
            s, mask, [{"path": "a.atk1", "start": 10, "end": 12}]
        )
        frames = np.array([(9, 9)] * 10 + [(0, 1), (3, 2)], dtype=np.int64)
        back, back_mask = load_stream_record(obj, {"a.atk1": frames})
        assert back == s
        assert back_mask == mask

    def test_json_serializable(self):
        s = sample_stream()
        obj = stream_record(
            s, build_loss_mask(s), [{"path": "a.atk1", "start": 0, "end": 2}]
        )
        assert json.loads(json.dumps(obj)) == obj

    def test_ref_count_check(self):
        s = sample_stream()
        with pytest.raises(ShapeMismatch):
            stream_record(s, build_loss_mask(s), [])

    def test_ref_coverage_check(self):
        s = sample_stream()
        with pytest.raises(ShapeMismatch):
            stream_record(
                s, build_loss_mask(s), [{"path": "a.atk1", "start": 0, "end": 5}]
            )

    def test_load_rejects_bad_range(self):
        s = sample_stream()
        obj = stream_record(
            s, build_loss_mask(s), [{"path": "a.atk1", "start": 0, "end": 2}]
        )
        with pytest.raises(MalformedWire):
            load_stream_record(obj, {"a.atk1": np.zeros((1, 2), dtype=np.int64)})

    def test_load_rejects_unknown_kind(self):
        with pytest.raises(MalformedWire):
            load_stream_record(
                {"format": "TTS", "segments": [{"kind": "video"}], "mask": []}, {}
            )


class TestEvalRecordsFile:
    def records(self):
        return [
            EvalRecord(prefix=(1,), candidates=((2,), (3,)), positive_index=0),
            EvalRecord(prefix=(), candidates=((4, 5), (6,)), positive_index=1),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        write_eval_records(path, self.records())
        assert read_eval_records(path) == self.records()

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        write_eval_records(path, self.records())
        path.write_text(path.read_text() + "\n\n")
        assert len(read_eval_records(path)) == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        write_eval_records(path, self.records())
        path.write_text(path.read_text() + "{bad json\n")
        with pytest.raises(MalformedWire, match="line 3"):
            read_eval_records(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        path.write_text(json.dumps({"prefix": [], "candidates": [[1], [2]]}) + "\n")
        with pytest.raises(MalformedWire):
            read_eval_records(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "eval.jsonl"
        path.write_text("")
        with pytest.raises(EmptyInput):
            read_eval_records(path)


class TestManifest:
    def row(self, **over):
        base = {
            "text": "hello.",
            "atk1_path": "clips.atk1",
            "frame_range": [0, 4],
            "duration_s": 1.5,
        }
        base.update(over)
        return base

    def test_reads_rows_with_line_numbers(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(
            json.dumps(self.row()) + "\n" + json.dumps(self.row(text="two.")) + "\n"
        )
        rows = read_manifest(path)
        assert [r["line_no"] for r in rows] == [1, 2]
        assert rows[1]["text"] == "two."

    def test_provenance_defaults(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(self.row()) + "\n")
        assert read_manifest(path)[0]["provenance"] == "synthetic"

    def test_provenance_preserved(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(self.row(provenance="crawl")) + "\n")
        assert read_manifest(path)[0]["provenance"] == "crawl"

    def test_missing_key_reports_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        row = self.row()
        del row["duration_s"]
        path.write_text(json.dumps(self.row()) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(MalformedWire, match="line 2"):
            read_manifest(path)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text("{oops\n")
        with pytest.raises(MalformedWire, match="line 1"):
            read_manifest(path)

    def test_empty_manifest_is_empty_list(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text("")
        assert read_manifest(path) == []
