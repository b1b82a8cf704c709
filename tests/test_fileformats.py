import contextlib
import errno
import json
import os
import re
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rvqtok import cli, fileformats
from rvqtok.errors import (
    EmptyInput,
    IndexOutOfRange,
    InvalidConfig,
    InvalidSample,
    MalformedWire,
    RvqtokError,
    ShapeMismatch,
)
from rvqtok.fileformats import (
    AFV1_MAGIC,
    ATK1_MAGIC,
    RVQ1_MAGIC,
    afv1_writer,
    atk1_writer,
    check_fields,
    load_stream_record,
    open_afv1,
    open_atk1,
    read_afv1,
    read_atk1,
    read_eval_records,
    read_manifest,
    read_raw_f32,
    read_rvq1,
    read_token_lists,
    read_wav,
    staged,
    stream_record,
    write_afv1,
    write_atk1,
    write_eval_records,
    write_rvq1,
    write_wav,
)
from rvqtok.mel import AudioBuffer
from rvqtok.metrics import EvalRecord
from rvqtok.rvq import Codebook, RvqStack, init_rvq_stack
from rvqtok.streams import (
    InterleavedStream,
    audio_segment,
    build_loss_mask,
    text_segment,
)
from rvqtok.synth import make_random_eval_records


def through_a_pipe(tmp_path, data: bytes, read):
    """read(fifo) while another thread writes data into the FIFO; read may
    close it before it takes all of data."""
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)

    def write():
        with contextlib.suppress(BrokenPipeError):
            fifo.write_bytes(data)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return read(fifo)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


class FailsAfterFirstWrite:
    """A file whose first write goes through and whose later ones fail."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "injected failure")
        return self.fh.write(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def write_through(writer, block):
    with writer as write:
        write(block)


WRITERS = [
    pytest.param(
        lambda p: write_through(atk1_writer(p, (8, 4)), np.array([(0, 1), (3, 2)])),
        id="atk1_writer",
    ),
    pytest.param(
        lambda p: write_through(afv1_writer(p, 3, 12.5), np.ones((2, 3))), id="afv1_writer"
    ),
    pytest.param(lambda p: write_rvq1(p, RvqStack([Codebook(np.ones((2, 3)))])), id="write_rvq1"),
    pytest.param(
        lambda p: write_eval_records(p, make_random_eval_records(3)), id="write_eval_records"
    ),
    pytest.param(lambda p: write_wav(p, AudioBuffer(np.zeros(100), 16000)), id="write_wav"),
]


class TestStaged:
    def test_commits_in_the_order_given(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        replace, replaced = os.replace, []

        def recorded(src, dst):
            replaced.append(dst)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recorded)
        with staged(a, b) as tmps:
            assert tmps == [f"{a}.{os.getpid()}.tmp", f"{b}.{os.getpid()}.tmp"]
            for tmp, text in zip(tmps, ("first", "second")):
                with open(tmp, "w") as fh:
                    fh.write(text)
            assert not a.exists() and not b.exists()
        assert replaced == [str(a), str(b)]
        assert (a.read_text(), b.read_text()) == ("first", "second")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]

    def test_a_link_to_another_target_is_the_same_file(self, tmp_path):
        a, link = tmp_path / "a", tmp_path / "link"
        link.symlink_to(a)
        with pytest.raises(InvalidConfig, match="given twice"):
            with staged(a, link):
                raise AssertionError("the block must not run")
        assert [p.name for p in tmp_path.iterdir()] == ["link"]

    @pytest.mark.parametrize("alias", ["path", "symlink", "hardlink"])
    def test_a_target_that_is_an_input(self, tmp_path, alias):
        source, target = tmp_path / "in", tmp_path / "out"
        source.write_text("input")
        if alias == "path":
            target = tmp_path / "." / "in"
        elif alias == "symlink":
            target.symlink_to(source)
        else:
            os.link(source, target)
        with pytest.raises(InvalidConfig, match="is also an input"):
            with staged(tmp_path / "other", target, inputs=[tmp_path / "missing", source]):
                raise AssertionError("the block must not run")
        assert source.read_text() == "input"
        # a target that does not exist yet is no input
        with staged(tmp_path / "other", inputs=[source]) as [tmp], open(tmp, "w") as fh:
            fh.write("output")
        assert (tmp_path / "other").read_text() == "output"

    @pytest.mark.parametrize("fails", [False, True])
    def test_a_running_blocks_temporary_is_staged_once(self, tmp_path, fails):
        # a writer handed a temporary writes it in place, and the block
        # that made it commits it, or removes it on a failure
        out = tmp_path / "out"
        with contextlib.suppress(OSError):
            with staged(out) as [tmp]:
                with staged(tmp) as [inner], open(inner, "w") as fh:
                    assert inner == tmp
                    fh.write("output")
                assert os.listdir(tmp_path) == [os.path.basename(tmp)]
                if fails:
                    raise OSError("injected failure")
        assert os.listdir(tmp_path) == ([] if fails else ["out"])
        # once its block has ended, a temporary is a path like any other
        with staged(tmp) as [again], open(again, "w"):
            assert again == f"{tmp}.{os.getpid()}.tmp"

    @pytest.mark.parametrize("writer", WRITERS)
    def test_failed_writer_leaves_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "out"
        writer(path)
        older = path.read_bytes()
        monkeypatch.setattr(
            fileformats, "open", lambda *a, **k: FailsAfterFirstWrite(open(*a, **k)),
            raising=False,
        )
        with pytest.raises(OSError, match="injected failure"):
            writer(path)
        assert path.read_bytes() == older
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


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

    def test_writer_refuses_rows_of_another_width(self, tmp_path):
        with pytest.raises(ShapeMismatch, match=r"do not fit T x 3"):
            write_through(afv1_writer(tmp_path / "x.afv1", 3, 12.5), np.ones((2, 4)))
        assert list(tmp_path.iterdir()) == []

    def test_zero_width_rows(self, tmp_path):
        # neither written nor read: no D = 0 row reaches a codebook or an MAE
        with pytest.raises(ShapeMismatch):
            write_afv1(tmp_path / "x.afv1", np.zeros((10, 0)), 12.5)
        assert list(tmp_path.iterdir()) == []
        path = tmp_path / "hand.afv1"
        path.write_bytes(struct.pack("<4sIId", AFV1_MAGIC, 10, 0, 12.5))
        with pytest.raises(MalformedWire, match="zero-width rows"):
            read_afv1(path)

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
        x = rng.standard_normal((10, 3)).astype(np.float32)
        write_afv1(path, x, 25.0)
        with open_afv1(path) as (dim, frame_rate, rows):
            assert (rows.n_rows, dim, frame_rate) == (10, 3, 25.0)
            parts = [rows.read(0, 4), rows.read(4, 4), rows.read(4, 10)]
            with pytest.raises(ShapeMismatch):
                rows.read(10, 11)
        assert all(p.dtype == np.float32 for p in parts)
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
            with open_afv1(fifo) as (*_, rows):
                rows.read(0, 1)  # a pipe has no size to check up front
                rows.read(1, 3)

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

    @pytest.mark.parametrize("bad", [2**32, -1])
    def test_rejects_layer_sizes_outside_u32(self, tmp_path, bad):
        # refused, naming the layer, before anything is staged
        with pytest.raises(InvalidConfig, match=f"ATK1 layer 1 size {bad} is outside"):
            write_atk1(tmp_path / "x.atk1", [[0, 0]], (8, bad))
        assert list(tmp_path.iterdir()) == []

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
        with atk1_writer(tmp_path / "blocks.atk1", (8, 4)) as write:
            for block in (frames[:2], frames[2:2], frames[2:]):
                write(block)
        assert (tmp_path / "blocks.atk1").read_bytes() == (tmp_path / "whole.atk1").read_bytes()

    def test_failed_writer_leaves_old_file(self, tmp_path):
        # the second block fails after the first is written
        path = tmp_path / "x.atk1"
        path.write_bytes(b"an older output")
        with pytest.raises(IndexOutOfRange):
            with atk1_writer(path, (8, 4)) as write:
                write(np.array([(0, 1)]))
                write(np.array([(1, -1)]))
        assert path.read_bytes() == b"an older output"
        assert [p.name for p in tmp_path.iterdir()] == ["x.atk1"]


# how each format with a row body writes rows, opens them, and what it
# stores them as; the header fields its open yields before the rows
ROW_FORMATS = {
    "afv1": (lambda path, x: write_afv1(path, x, 25.0), open_afv1, np.float32, (2, 25.0)),
    "atk1": (lambda path, x: write_atk1(path, x, (8, 4)), open_atk1, np.uint32, ((8, 4),)),
}


class TestOpenAtk1:
    FRAMES = np.array([(i % 8, i % 4) for i in range(10)])

    @pytest.mark.parametrize("fmt", ROW_FORMATS)
    def test_ranges_in_any_order(self, tmp_path, fmt):
        write, open_rows, dtype, header = ROW_FORMATS[fmt]
        write(tmp_path / "x", self.FRAMES)
        with open_rows(tmp_path / "x") as (*fields, rows):
            assert (tuple(fields), rows.n_rows, rows.seekable) == (header, 10, True)
            for start, stop in [(6, 10), (0, 3), (3, 3), (2, 7), (0, 10)]:
                part = rows.read(start, stop)
                assert part.dtype == dtype and not part.flags.writeable
                assert np.array_equal(part, self.FRAMES[start:stop])
            for start, stop in [(-1, 2), (3, 2), (9, 11)]:
                with pytest.raises(ShapeMismatch):
                    rows.read(start, stop)

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda d: d[:-1], "truncated"), (lambda d: d + b"\x00", "trailing bytes")],
    )
    def test_size_checked_before_any_frame(self, tmp_path, edit, message):
        path = tmp_path / "x.atk1"
        write_atk1(path, self.FRAMES, (8, 4))
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(MalformedWire, match=message):
            with open_atk1(path):
                pytest.fail("frames offered from a file of the wrong size")

    def test_read_atk1_through_a_pipe(self, tmp_path):
        # the header-size check needs a file length; a pipe has none
        write_atk1(tmp_path / "x.atk1", self.FRAMES, (8, 4))
        data = (tmp_path / "x.atk1").read_bytes()
        back, sizes = through_a_pipe(tmp_path, data, read_atk1)
        assert np.array_equal(back, self.FRAMES) and sizes == (8, 4)
        assert back.dtype == np.int64

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda d: d + b"\x00", "trailing bytes"), (lambda d: d[:-1], "truncated")],
    )
    def test_pipe_checked_as_read(self, tmp_path, edit, message):
        write_atk1(tmp_path / "x.atk1", self.FRAMES, (8, 4))
        data = edit((tmp_path / "x.atk1").read_bytes())
        with pytest.raises(MalformedWire, match=message):
            through_a_pipe(tmp_path, data, read_atk1)

    @pytest.mark.parametrize("fmt", ROW_FORMATS)
    def test_pipe_read_in_order_only(self, tmp_path, fmt):
        write, open_rows, _, _ = ROW_FORMATS[fmt]
        write(tmp_path / "x", self.FRAMES)
        data = (tmp_path / "x").read_bytes()

        def read(fifo):
            with open_rows(fifo) as (*_, rows):
                assert not rows.seekable
                assert np.array_equal(rows.read(0, 4), self.FRAMES[:4])
                with pytest.raises(OSError, match=f"{re.escape(str(fifo))}: .* read in order"):
                    rows.read(0, 2)
                assert np.array_equal(rows.read(4, 10), self.FRAMES[4:])

        through_a_pipe(tmp_path, data, read)


HUGE = 2**32 - 1


class TestPipeSizes:
    """A file that cannot seek has no size to check a header against: it is
    read in pieces, so a size past its data is refused, not allocated."""

    @pytest.mark.parametrize(
        "data, read, what",
        [
            (struct.pack("<4sIIIdd", RVQ1_MAGIC, 1, HUGE, HUGE, 0.99, 0.0), read_rvq1,
             "RVQ1 codewords"),
            (struct.pack("<4sIId", AFV1_MAGIC, HUGE, HUGE, 12.5), read_afv1, "AFV1 body"),
            (struct.pack("<4sI2II", ATK1_MAGIC, 2, 8, 4, HUGE), read_atk1, "ATK1 frames"),
            (struct.pack("<4sI", ATK1_MAGIC, HUGE), read_atk1, "ATK1 layer sizes"),
        ],
        ids=["rvq1-codewords", "afv1-rows", "atk1-frames", "atk1-layers"],
    )
    def test_header_past_data(self, tmp_path, data, read, what):
        with pytest.raises(MalformedWire, match=f"truncated file while reading {what}"):
            through_a_pipe(tmp_path, data + bytes(64), read)

    @pytest.mark.parametrize("piece", [1, 5, 1 << 20])
    def test_pieces_join_to_the_file(self, tmp_path, monkeypatch, rng, piece):
        monkeypatch.setattr(fileformats, "_PIPE_PIECE", piece)
        write_afv1(tmp_path / "x.afv1", rng.standard_normal((7, 3)), 12.5)
        write_atk1(tmp_path / "x.atk1", rng.integers(0, 8, size=(9, 2)), (8, 8))
        for name, read in (("x.afv1", read_afv1), ("x.atk1", read_atk1)):
            want = read(tmp_path / name)
            got = through_a_pipe(tmp_path, (tmp_path / name).read_bytes(), read)
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
            os.unlink(tmp_path / "pipe")


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

    def test_zero_width_codewords(self, tmp_path):
        # four codewords of no bytes each, then their usage counters
        path = tmp_path / "x.rvq1"
        layer = struct.pack("<IIdd", 4, 0, 0.99, 0.0) + bytes(8 * 4)
        path.write_bytes(struct.pack("<4sI", RVQ1_MAGIC, 1) + layer)
        with pytest.raises(MalformedWire, match="zero-width codewords"):
            read_rvq1(path)

    def test_truncated_codewords(self, tmp_path, rng):
        path = tmp_path / "x.rvq1"
        write_rvq1(path, self.make_stack(rng))
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(MalformedWire):
            read_rvq1(path)

    def test_trailing_bytes(self, tmp_path, rng):
        path = tmp_path / "x.rvq1"
        write_rvq1(path, self.make_stack(rng))
        data = path.read_bytes() + b"\x00"
        path.write_bytes(data)
        with pytest.raises(MalformedWire, match="trailing bytes after RVQ1 layers"):
            read_rvq1(path)
        with pytest.raises(MalformedWire, match="trailing bytes after RVQ1 layers"):
            through_a_pipe(tmp_path, data, read_rvq1)


def rvq1_bytes(seed, tmp_dir):
    """A valid RVQ1 file from a seed: 1-3 layers of 1-5 float32 codewords
    of dim 1-4; returns its bytes and the offsets of its u32 header words."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dim = int(rng.integers(1, 5))
    layers = []
    for _ in range(int(rng.integers(1, 4))):
        k = int(rng.integers(1, 6))
        layers.append(
            Codebook(
                rng.standard_normal((k, dim)).astype(np.float32),
                ema_decay=float(rng.random()),
                norm_beta=float(rng.random()) * 0.5,
                usage_counts=rng.integers(0, 1000, size=k),
            )
        )
    path = tmp_dir / "valid.rvq1"
    write_rvq1(path, RvqStack(layers))
    words, at = [4], 8  # the layer count, then each layer's K and D
    for book in layers:
        words += [at, at + 4]
        at += 24 + 4 * book.size * dim + 8 * book.size
    return path.read_bytes(), words


def read_rvq1_bytes(data, tmp_dir):
    path = tmp_dir / "fuzz.rvq1"
    path.write_bytes(data)
    return read_rvq1(path)


def hostile_rvq1(tmp_dir, layer, at, fmt, value):
    """An RVQ1 of init_rvq_stack([8, 4], ...) on 3-d rows, with ``value``
    packed as ``fmt`` at offset ``at`` of layer ``layer``: past its 24-byte
    header (K, D, ema_decay, norm_beta) come its codewords, then its usage
    counters."""
    stack = init_rvq_stack([8, 4], np.arange(60.0).reshape(20, 3), seed=0)
    path = tmp_dir / "valid.rvq1"
    write_rvq1(path, stack)
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, 8 + layer * (24 + 8 * 3 * 4 + 8 * 8) + at, value)
    return bytes(data)


class TestRvq1Fuzz:
    """Hostile RVQ1 bytes raise toolkit errors and nothing else: a short
    file, or a layer value that cannot be a codebook, is MalformedWire,
    and a flipped bit or header word is one of the RvqtokError
    subclasses."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_every_truncation(self, seed, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("rvq1")
        data, _ = rvq1_bytes(seed, tmp_dir)
        read_rvq1_bytes(data, tmp_dir)
        for cut in range(len(data)):
            with pytest.raises(MalformedWire):
                read_rvq1_bytes(data[:cut], tmp_dir)

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=150)
    def test_bit_flips(self, seed, data, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("rvq1")
        valid, _ = rvq1_bytes(seed, tmp_dir)
        flipped = bytearray(valid)
        for _ in range(data.draw(st.integers(1, 3))):
            bit = data.draw(st.integers(0, 8 * len(valid) - 1))
            flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            read_rvq1_bytes(bytes(flipped), tmp_dir)
        except RvqtokError:
            pass

    @pytest.mark.parametrize(
        "layer, at, fmt, value, message",
        [
            (0, 8, "<d", float("nan"), "ema_decay must be in [0, 1], got nan"),
            (0, 8, "<d", 2.0, "ema_decay must be in [0, 1], got 2.0"),
            (1, 8, "<d", -0.5, "ema_decay must be in [0, 1], got -0.5"),
            (0, 16, "<d", 1.0, "norm_beta must be in [0, 1), got 1.0"),
            (0, 24, "<f", float("nan"), "codewords must be finite"),
            (1, 24 + 4 * 3 * 4 - 4, "<f", float("inf"), "codewords must be finite"),
            (0, 24 + 8 * 3 * 4, "<Q", 2**64 - 1, "usage_counts must be K non-negative"),
            (1, 24 + 4 * 3 * 4 + 8 * 3, "<Q", 2**63, "usage_counts must be K non-negative"),
            (1, 0, "<I", 0, "no codewords"),
        ],
        ids=["decay-nan", "decay-2", "decay-negative-layer-1", "beta-1", "codeword-nan",
             "codeword-inf-layer-1", "usage-max", "usage-2**63-layer-1", "k-0-layer-1"],
    )
    def test_values_that_cannot_be_a_codebook(self, tmp_path, layer, at, fmt, value, message):
        data = hostile_rvq1(tmp_path, layer, at, fmt, value)
        with pytest.raises(MalformedWire) as exc:
            read_rvq1_bytes(data, tmp_path)
        assert str(exc.value).startswith(f"RVQ1 layer {layer}: {message}")

    def test_layers_of_different_widths(self, tmp_path):
        def layer(k, d):
            return struct.pack("<IIdd", k, d, 0.99, 0.0) + bytes(4 * k * d + 8 * k)

        data = struct.pack("<4sI", RVQ1_MAGIC, 3) + layer(2, 3) + layer(2, 3) + layer(1, 5)
        with pytest.raises(MalformedWire) as exc:
            read_rvq1_bytes(data, tmp_path)
        assert str(exc.value) == "RVQ1 layer 2: layers disagree on dimension: [3, 5]"

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=150)
    def test_random_header_words(self, seed, data, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("rvq1")
        valid, words = rvq1_bytes(seed, tmp_dir)
        at = data.draw(st.sampled_from(words))
        word = data.draw(st.integers(0, 2**32 - 1))
        hostile = valid[:at] + struct.pack("<I", word) + valid[at + 4 :]
        try:
            read_rvq1_bytes(hostile, tmp_dir)
        except RvqtokError:
            pass


def afv1_bytes(seed, tmp_dir):
    """A valid AFV1 file from a seed: 0-5 rows of dim 1-4 and a random
    frame rate; returns its bytes and the offsets of its u32 header words."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = rng.standard_normal((int(rng.integers(0, 6)), int(rng.integers(1, 5))))
    path = tmp_dir / "valid.afv1"
    write_afv1(path, rows, float(rng.random()) * 100)
    return path.read_bytes(), [4, 8]  # T, then D


def read_afv1_bytes(data, tmp_dir):
    path = tmp_dir / "fuzz.afv1"
    path.write_bytes(data)
    return read_afv1(path)


class TestAfv1Fuzz:
    """Hostile AFV1 bytes raise toolkit errors and nothing else: a short
    file or a frame rate that is not finite and positive is MalformedWire,
    and a flipped bit or header word either reads (a NaN row included) or
    raises an RvqtokError subclass."""

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf"), 0.0, -5.0])
    def test_frame_rate_not_finite_and_positive(self, tmp_path, rate):
        with pytest.raises(InvalidConfig):
            write_afv1(tmp_path / "x.afv1", np.ones((1, 2)), rate)
        assert list(tmp_path.iterdir()) == []
        data = struct.pack("<4sIId", AFV1_MAGIC, 1, 2, rate) + struct.pack("<2f", 0, 0)
        with pytest.raises(MalformedWire, match="frame rate"):
            read_afv1_bytes(data, tmp_path)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_every_truncation(self, seed, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("afv1")
        data, _ = afv1_bytes(seed, tmp_dir)
        read_afv1_bytes(data, tmp_dir)
        for cut in range(len(data)):
            with pytest.raises(MalformedWire):
                read_afv1_bytes(data[:cut], tmp_dir)

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=150)
    def test_bit_flips(self, seed, data, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("afv1")
        valid, _ = afv1_bytes(seed, tmp_dir)
        flipped = bytearray(valid)
        for _ in range(data.draw(st.integers(1, 3))):
            bit = data.draw(st.integers(0, 8 * len(valid) - 1))
            flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            read_afv1_bytes(bytes(flipped), tmp_dir)
        except RvqtokError:
            pass

    def test_signalling_nan_row_reads_without_warning(self, tmp_path):
        # 0x7f800001 is a float32 signalling NaN; its cast must not warn
        data = struct.pack("<4sIId", AFV1_MAGIC, 1, 2, 12.5) + struct.pack("<2I", 0x7F800001, 0)
        rows, _ = read_afv1_bytes(data, tmp_path)
        assert np.isnan(rows[0, 0]) and rows[0, 1] == 0

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=150)
    def test_random_header_words(self, seed, data, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("afv1")
        valid, words = afv1_bytes(seed, tmp_dir)
        at = data.draw(st.sampled_from(words))
        word = data.draw(st.integers(0, 2**32 - 1))
        hostile = valid[:at] + struct.pack("<I", word) + valid[at + 4 :]
        try:
            read_afv1_bytes(hostile, tmp_dir)
        except RvqtokError:
            pass


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

    def test_pipe_refused(self, tmp_path):
        # its size would come from a header the pipe cannot be checked against
        write_wav(tmp_path / "x.wav", AudioBuffer(np.zeros(50), 16000))
        message = re.escape(f"{tmp_path / 'pipe'}: WAV input must be a seekable file")
        with pytest.raises(OSError, match=message):
            through_a_pipe(tmp_path, (tmp_path / "x.wav").read_bytes(), read_wav)

    def test_raw_f32(self, tmp_path):
        samples = np.array([0.5, -0.25, 0.0], dtype="<f4")
        path = tmp_path / "x.f32"
        samples.tofile(path)
        back = read_raw_f32(path, 16000)
        assert np.array_equal(back.samples, samples.astype(np.float64))
        assert back.sample_rate == 16000

    def test_raw_f32_signalling_nan_is_refused_without_warning(self, tmp_path):
        path = tmp_path / "x.f32"
        path.write_bytes(struct.pack("<2I", 0, 0x7F800001))  # 0.0, a float32 sNaN
        with pytest.raises(InvalidSample):
            read_raw_f32(path, 16000)


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
        obj = stream_record(s, [{"path": "a.atk1", "start": 10, "end": 12}])
        frames = np.array([(9, 9)] * 10 + [(0, 1), (3, 2)], dtype=np.int64)
        back, back_mask = load_stream_record(obj, {"a.atk1": frames})
        assert back == s
        assert back_mask == build_loss_mask(s)

    def test_json_serializable(self):
        s = sample_stream()
        obj = stream_record(s, [{"path": "a.atk1", "start": 0, "end": 2}])
        assert json.loads(json.dumps(obj)) == obj

    def test_ref_count_check(self):
        s = sample_stream()
        with pytest.raises(ShapeMismatch):
            stream_record(s, [])

    def test_ref_coverage_check(self):
        s = sample_stream()
        with pytest.raises(ShapeMismatch):
            stream_record(s, [{"path": "a.atk1", "start": 0, "end": 5}])

    def test_load_rejects_bad_range(self):
        s = sample_stream()
        obj = stream_record(s, [{"path": "a.atk1", "start": 0, "end": 2}])
        with pytest.raises(MalformedWire):
            load_stream_record(obj, {"a.atk1": np.zeros((1, 2), dtype=np.int64)})

    def test_load_rejects_unknown_kind(self):
        with pytest.raises(MalformedWire):
            load_stream_record(
                {"format": "TTS", "segments": [{"kind": "video"}]}, {}
            )


def valid_record():
    """An ITTS record over two ATK1 files, and the frames it refers to."""
    s = InterleavedStream(
        format_tag="ITTS",
        segments=(
            text_segment([1, 2]),
            audio_segment([(0, 1), (3, 2)]),
            text_segment([5]),
            audio_segment([(2, 2)]),
        ),
    )
    refs = [{"path": "a.atk1", "start": 1, "end": 3}, {"path": "b.atk1", "start": 0, "end": 1}]
    frames_by_path = {
        "a.atk1": np.array([(9, 9), (0, 1), (3, 2)], dtype=np.int64),
        "b.atk1": np.array([(2, 2)], dtype=np.int64),
    }
    return stream_record(s, refs), frames_by_path


def json_paths(node, path=()):
    """The key or index path of every value inside a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from json_paths(value, path + (key,))


DROP = object()


def edited(obj, path, value):
    """A deep copy of obj with the value at path replaced, or dropped."""
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


HOSTILE_VALUES = [None, "x", "", 1.5, -1, 0, True, 10**30, [], [1], ["a"], {}]
HOSTILE_VALUES += [{"kind": "text"}, {"kind": "audio"}]


class TestStreamRecordFuzz:
    """Hostile stream records raise toolkit errors and nothing else: each
    key dropped, each value swapped for another JSON type, each list cut
    short. A valid record loads as written."""

    def records(self):
        """The valid record as written."""
        obj, frames_by_path = valid_record()
        return [obj], frames_by_path

    def load(self, obj, frames_by_path):
        try:
            stream, mask = load_stream_record(obj, frames_by_path)
        except RvqtokError:
            return
        assert mask == build_loss_mask(stream)

    def test_valid_record_loads(self):
        obj, frames_by_path = valid_record()
        stream, mask = load_stream_record(obj, frames_by_path)
        refs = [seg["frames_ref"] for seg in obj["segments"] if seg["kind"] == "audio"]
        assert stream_record(stream, refs) == obj
        assert "mask" not in obj
        assert mask == build_loss_mask(stream)

    def test_stale_stored_mask_is_ignored(self):
        # records from before masks were derived stored one; any "mask",
        # stale or not a list, is an unknown key and the mask is derived
        obj, frames_by_path = valid_record()
        stream, mask = load_stream_record(obj, frames_by_path)
        for stale in ([True], [False] * len(mask), "abc"):
            assert load_stream_record({**obj, "mask": stale}, frames_by_path) == (
                stream, build_loss_mask(stream)
            )

    def test_every_key_or_item_dropped(self):
        objs, frames_by_path = self.records()
        for obj in objs:
            for path in json_paths(obj):
                self.load(edited(obj, path, DROP), frames_by_path)

    @pytest.mark.parametrize("value", HOSTILE_VALUES, ids=repr)
    def test_every_value_swapped(self, value):
        objs, frames_by_path = self.records()
        for obj in objs:
            for path in json_paths(obj):
                self.load(edited(obj, path, value), frames_by_path)

    def test_every_list_truncated(self):
        objs, frames_by_path = self.records()
        for obj, path in ((obj, path) for obj in objs for path in json_paths(obj)):
            value = obj
            for key in path:
                value = value[key]
            if isinstance(value, list):
                for cut in range(len(value)):
                    self.load(edited(obj, path, value[:cut]), frames_by_path)

    @pytest.mark.parametrize("value", HOSTILE_VALUES, ids=repr)
    def test_hostile_top_level(self, value):
        with pytest.raises(MalformedWire):
            load_stream_record(value, valid_record()[1])

    def test_named_faults_are_malformed(self):
        obj, frames_by_path = valid_record()
        for bad in [
            {},
            {**obj, "segments": 3},
            [obj],
            edited(obj, ("segments", 1, "frames_ref", "start"), "x"),
            edited(obj, ("segments", 1, "frames_ref", "path"), "c.atk1"),
        ]:
            with pytest.raises(MalformedWire):
                load_stream_record(bad, frames_by_path)


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
        rows = list(read_manifest(path))
        assert [r["line_no"] for r in rows] == [1, 2]
        assert rows[1]["text"] == "two."

    def test_provenance_defaults(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(self.row()) + "\n")
        assert list(read_manifest(path))[0]["provenance"] == "synthetic"

    def test_provenance_preserved(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(self.row(provenance="crawl")) + "\n")
        assert list(read_manifest(path))[0]["provenance"] == "crawl"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("duration_s", 0.0, "duration must be positive, got 0.0"),
            ("duration_s", -1.5, "duration must be positive, got -1.5"),
            ("duration_s", 0, "duration must be positive, got 0.0"),
            ("provenance", "scraped", "provenance must be one of ('crawl', 'synthetic')"),
        ],
        ids=["duration-zero", "duration-negative", "duration-int-zero", "provenance-scraped"],
    )
    def test_row_rule_reports_line(self, tmp_path, field, value, message):
        path = tmp_path / "manifest.jsonl"
        bad = self.row(**{field: value})
        path.write_text(json.dumps(self.row()) + "\n" + json.dumps(bad) + "\n")
        rows = read_manifest(path)
        assert next(rows)["line_no"] == 1
        with pytest.raises(MalformedWire) as info:
            next(rows)
        assert str(info.value) == f"manifest line 2: {message}"

    def test_missing_key_reports_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        row = self.row()
        del row["duration_s"]
        path.write_text(json.dumps(self.row()) + "\n" + json.dumps(row) + "\n")
        rows = read_manifest(path)
        assert next(rows)["line_no"] == 1  # a generator: the good line comes first
        with pytest.raises(MalformedWire, match="line 2"):
            next(rows)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text("{oops\n")
        with pytest.raises(MalformedWire, match="line 1"):
            list(read_manifest(path))

    def test_empty_manifest_is_empty_list(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text("")
        assert list(read_manifest(path)) == []


def eval_file(seed, tmp_dir) -> bytes:
    path = tmp_dir / "valid.jsonl"
    write_eval_records(path, make_random_eval_records(4, n_candidates=2 + seed % 3, seed=seed))
    return path.read_bytes()


def manifest_file(seed, tmp_dir) -> bytes:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(4):
        start = int(rng.integers(0, 1000))
        rows.append({
            "text": f"line {i} of {seed}.",
            "atk1_path": f"clip{seed}.atk1",
            "frame_range": [start, start + int(rng.integers(1, 20))],
            "duration_s": float(rng.uniform(0.1, 2.0)),
            "provenance": ("synthetic", "crawl")[i % 2],
        })
    return "".join(json.dumps(r) + "\n" for r in rows).encode()


def read_bytes_with(read, data, tmp_dir):
    path = tmp_dir / "fuzz.jsonl"
    path.write_bytes(data)
    return read(path)


def read_manifest_rows(path) -> list[dict]:
    # read_manifest is a generator, so its errors come as it is read
    return list(read_manifest(path))


JSONL_READERS = pytest.mark.parametrize(
    "read, make",
    [(read_eval_records, eval_file), (read_manifest_rows, manifest_file)],
    ids=["read_eval_records-eval_file", "read_manifest-manifest_file"],
)
# an eval-record file with no records is EmptyInput; the manifest reader
# yields no rows instead
JSONL_ERRORS = (MalformedWire, EmptyInput)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


class TestJsonlFuzz:
    """Hostile eval-record and manifest lines raise MalformedWire naming the
    line (or EmptyInput for an eval file without records) and nothing else;
    the CLI turns both into exit 4."""

    @JSONL_READERS
    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=100)
    def test_truncation(self, read, make, seed, data, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("jsonl")
        valid = make(seed, tmp_dir)
        whole = read_bytes_with(read, valid, tmp_dir)
        cut = data.draw(st.integers(0, len(valid)))
        kept = valid[:cut]
        n_lines = kept.count(b"\n")
        tail = kept[kept.rfind(b"\n") + 1 :]
        if tail and not valid[cut:].startswith(b"\n"):
            # a JSON object cut short is never JSON
            with pytest.raises(MalformedWire, match=f"line {n_lines + 1}:"):
                read_bytes_with(read, kept, tmp_dir)
            return
        n_whole = n_lines + bool(tail)
        if n_whole == 0 and read is read_eval_records:
            with pytest.raises(EmptyInput):
                read_bytes_with(read, kept, tmp_dir)
        else:
            assert read_bytes_with(read, kept, tmp_dir) == whole[:n_whole]

    @JSONL_READERS
    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=100)
    def test_bit_flips(self, read, make, seed, data, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("jsonl")
        valid = make(seed, tmp_dir)
        flipped = bytearray(valid)
        for _ in range(data.draw(st.integers(1, 3))):
            bit = data.draw(st.integers(0, 8 * len(valid) - 1))
            flipped[bit // 8] ^= 1 << (bit % 8)
        try:
            read_bytes_with(read, bytes(flipped), tmp_dir)
        except JSONL_ERRORS:
            pass

    @JSONL_READERS
    @given(seed=st.integers(0, 10_000), value=JSON_VALUES, data=st.data())
    @settings(max_examples=150)
    def test_wrong_types(self, read, make, seed, value, data, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("jsonl")
        lines = make(seed, tmp_dir).splitlines()
        row = json.loads(lines[1])
        key = data.draw(st.sampled_from(sorted(row)))
        row[key] = value
        lines[1] = json.dumps(row).encode()
        try:
            read_bytes_with(read, b"\n".join(lines), tmp_dir)
        except MalformedWire as exc:
            assert "line 2:" in str(exc)

    @JSONL_READERS
    @given(seed=st.integers(0, 10_000), digits=st.integers(19, 5000), data=st.data())
    @settings(max_examples=100)
    def test_huge_integers(self, read, make, seed, digits, data, tmp_path_factory):
        tmp_dir = tmp_path_factory.mktemp("jsonl")
        lines = make(seed, tmp_dir).decode().splitlines()
        row = json.loads(lines[1])
        key = data.draw(st.sampled_from(sorted(row)))
        # a literal integer with that many digits; past 4300 the decoder refuses it
        huge = data.draw(st.sampled_from(["", "-"])) + "9" * digits
        if isinstance(row[key], list) and row[key]:
            row[key][0] = "HUGE"
        else:
            row[key] = "HUGE"
        lines[1] = json.dumps(row).replace('"HUGE"', huge)
        try:
            read_bytes_with(read, "\n".join(lines).encode(), tmp_dir)
        except MalformedWire as exc:
            assert "line 2:" in str(exc)

    @JSONL_READERS
    def test_nesting_too_deep_to_decode(self, read, make, tmp_path):
        valid = make(0, tmp_path)
        with pytest.raises(MalformedWire, match="line 5:"):
            read_bytes_with(read, valid + b"[" * 100_000 + b"\n", tmp_path)

    @pytest.mark.parametrize("duration", [10**400, -(10**400)], ids=["1e400", "-1e400"])
    def test_duration_beyond_float_range(self, tmp_path, duration):
        lines = manifest_file(0, tmp_path).decode().splitlines()
        row = json.loads(lines[2])
        row["duration_s"] = duration
        lines[2] = json.dumps(row)
        with pytest.raises(MalformedWire, match="line 3: duration_s"):
            read_bytes_with(read_manifest_rows, "\n".join(lines).encode(), tmp_path)


# values the shared type rules refuse where an int is wanted: a bool, ints
# outside int64, one outside float64 too, and NaN, which json.loads accepts
INT_REFUSED = {
    "true": True,
    "2**63": 2**63,
    "-2**63-1": -(2**63) - 1,
    "1e400": 10**400,
    "nan": float("nan"),
}
# and where a float is wanted: an int passes, but not one outside float64
FLOAT_REFUSED = {
    "true": True,
    "1e400": 10**400,
    "-1e400": -(10**400),
    "nan": float("nan"),
    "inf": float("inf"),
}


def load_config(text, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return cli._train_configs(cli._load_json(path, cli._TRAIN_KEYS, "train-rvq config"))


def load_line_with(read):
    def load(text, tmp_path):
        path = tmp_path / "doc.jsonl"
        path.write_text(text + "\n")
        return read(path)

    return load


# per document kind: a valid document, how it loads, the error that refuses
# it, and the paths of its int and its float values
DOCUMENTS = {
    "config": (
        {"dead_threshold": 1, "layer_sizes": [8], "ema_decay": 0.9, "schedule": {"total_steps": 4}},
        load_config,
        InvalidConfig,
        [("dead_threshold",), ("layer_sizes", 0), ("schedule", "total_steps")],
        [("ema_decay",), ("norm_beta",), ("schedule", "replace_end")],
    ),
    "manifest line": (
        {"text": "a.", "atk1_path": "a.atk1", "frame_range": [0, 4], "duration_s": 0.3},
        load_line_with(read_manifest_rows),
        MalformedWire,
        [("frame_range", 0), ("frame_range", 1)],
        [("duration_s",)],
    ),
    "eval record": (
        {"prefix": [1], "candidates": [[2], [3, 4]], "positive": 0},
        load_line_with(read_eval_records),
        MalformedWire,
        [("prefix", 0), ("candidates", 1, 1), ("positive",)],
        [],
    ),
    "stream record": (
        valid_record()[0],
        lambda text, _: load_stream_record(json.loads(text), valid_record()[1]),
        MalformedWire,
        [("segments", 0, "tokens", 1), ("segments", 1, "frames_ref", "start")],
        [],
    ),
    "token list": (
        [1, 2],
        load_line_with(lambda path: read_token_lists(path, 16)),
        MalformedWire,
        [(1,)],
        [],
    ),
}
TYPE_RULE_CASES = [
    pytest.param(kind, at, value, id=f"{kind}-{'.'.join(map(str, at))}-{name}")
    for kind, (_, _, _, ints, floats) in DOCUMENTS.items()
    for slots, refused in ((ints, INT_REFUSED), (floats, FLOAT_REFUSED))
    for at in slots
    for name, value in refused.items()
]


@pytest.mark.parametrize("kind, at, value", TYPE_RULE_CASES)
def test_type_rules_shared_by_every_document(tmp_path, kind, at, value):
    """One set of type rules holds in configs and data lines alike; each
    document refuses a value it breaks with its own error."""
    doc, load, error, _, _ = DOCUMENTS[kind]
    load(json.dumps(doc), tmp_path)
    with pytest.raises(error):
        load(json.dumps(edited(doc, at, value)), tmp_path)


@pytest.mark.parametrize(
    "want, value",
    [("str", "\ud800"), ("path", "clip\udfff.atk1"), ("path", "clip\x00.atk1")],
    ids=["str-lone-surrogate", "path-lone-surrogate", "path-nul"],
)
def test_text_encodes_as_utf8_and_paths_hold_no_nul(want, value):
    check_fields({"k": "clip.atk1"}, {"k": want}, "doc")
    with pytest.raises(InvalidConfig, match=f"k must be {want} in doc"):
        check_fields({"k": value}, {"k": want}, "doc")
