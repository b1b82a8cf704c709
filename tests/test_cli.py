import argparse
import contextlib
import errno
import importlib
import inspect
import io
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import threading
import time
import wave
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rvqtok import cli
from rvqtok import mel as mel_module
from rvqtok import rvq
from rvqtok import scorers
from rvqtok.cli import main
from rvqtok.datapipe import build_intlv, build_itts, corpus_stats
from rvqtok.fileformats import (
    load_stream_record,
    read_afv1,
    read_atk1,
    read_raw_f32,
    read_rvq1,
    read_wav,
    write_afv1,
    write_atk1,
    write_eval_records,
    write_rvq1,
    write_wav,
)
from rvqtok.mel import AudioBuffer, MelConfig, compute_mel, stack_frames
from rvqtok.rvq import (
    Codebook,
    DropoutConfig,
    GumbelConfig,
    RvqStack,
    TrainingSchedule,
    decode_frames,
    encode_frames,
)
from rvqtok.scorers import SubprocessScorer
from rvqtok.streams import deserialize, eoa_frame, serialize
from rvqtok.synth import (
    make_bigram_world,
    make_oracle_eval_records,
    make_random_eval_records,
    make_sine_noise_audio,
)


REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

# What the wrapper pip writes for a ``[project.scripts]`` entry
# ``module:func`` does: import the target and exit with its return value.
CONSOLE_SCRIPT = """\
import sys
from {module} import {func}
if __name__ == "__main__":
    sys.exit({func}())
"""


def checkout_pythonpath():
    """PYTHONPATH that puts this checkout's ``src`` ahead of anything else."""
    rest = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return os.pathsep.join([str(SRC), *rest])


def checkout_env():
    """Environment for a child Python that imports this checkout's rvqtok."""
    return {**os.environ, "PYTHONPATH": checkout_pythonpath()}


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    out = [json.loads(line) for line in captured.out.splitlines() if line.strip()]
    return code, out, captured.err


def snapshot(folder):
    """{name: bytes, or None for a directory} of everything in folder."""
    return {p.name: None if p.is_dir() else p.read_bytes() for p in folder.iterdir()}


def refused(capsys, argv, folder, code, message):
    """argv exits with code, message on stderr and nothing on stdout,
    leaving folder as it was: no new file, no older one changed, no
    ``*.tmp`` behind."""
    before = snapshot(folder)
    got, lines, err = run(capsys, *argv)
    assert (got, lines) == (code, [])
    assert message in err
    assert snapshot(folder) == before
    assert not list(folder.glob("*.tmp"))
    return err


def refused_twice(capsys, argv, out, code, message):
    """argv is refused with no output at out, then again once out holds
    an older output, which it leaves as it was."""
    refused(capsys, argv, out.parent, code, message)
    out.write_bytes(b"an older output")
    refused(capsys, argv, out.parent, code, message)


@pytest.fixture
def wav_1s(tmp_path):
    path = tmp_path / "in.wav"
    write_wav(path, make_sine_noise_audio(1.0, seed=0))
    return path


class TestMel:
    def test_wav_to_stacked_features(self, capsys, tmp_path, wav_1s):
        out = tmp_path / "out.afv1"
        code, lines, _ = run(capsys, "mel", wav_1s, out)
        assert code == 0
        assert lines[-1]["frames"] == 12
        assert lines[-1]["frame_rate"] == 12.5
        vectors, rate = read_afv1(out)
        assert vectors.shape == (12, 640)
        assert rate == 12.5

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "mel", tmp_path / "nope.wav", tmp_path / "o.afv1")
        assert code == 2
        assert "error" in err

    def test_raw_needs_rate(self, capsys, tmp_path):
        raw = tmp_path / "x.f32"
        np.zeros(16000, dtype="<f4").tofile(raw)
        code, _, _ = run(capsys, "mel", raw, tmp_path / "o.afv1")
        assert code == 3
        code, lines, _ = run(
            capsys, "mel", raw, tmp_path / "o.afv1", "--raw-rate", 16000
        )
        assert code == 0
        assert lines[-1]["frames"] == 12

    @pytest.mark.parametrize("suffix", [".WAV", ".Wav"])
    def test_wav_suffix_in_any_case(self, capsys, tmp_path, suffix):
        # 1 s of silence: read as raw float32, its RIFF bytes would give features too
        quiet = AudioBuffer(samples=np.zeros(16000), sample_rate=16000)
        lower, other = tmp_path / "quiet.wav", tmp_path / f"quiet{suffix}"
        write_wav(lower, quiet)
        write_wav(other, quiet)
        outs = tmp_path / "lower.afv1", tmp_path / "other.afv1"
        for wav, out in zip((lower, other), outs):
            assert run(capsys, "mel", wav, out)[0] == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        out = tmp_path / "rate.afv1"
        code, lines, err = run(capsys, "mel", other, out, "--raw-rate", 16000)
        assert (code, lines, out.exists()) == (3, [], False)
        assert "--raw-rate is for raw float32 input" in err

    def test_too_short_for_one_vector(self, capsys, tmp_path):
        # 400 samples give fewer mel frames than one stacked vector needs
        wav = tmp_path / "short.wav"
        write_wav(wav, AudioBuffer(samples=np.zeros(400), sample_rate=16000))
        out = tmp_path / "out.afv1"
        code, lines, err = run(capsys, "mel", wav, out)
        assert code == 4
        assert lines == []
        assert "too few" in err
        assert not out.exists()

    @pytest.mark.parametrize("stack", [1, 3, 8])
    def test_blocked_afv1_matches_whole_clip(self, capsys, tmp_path, monkeypatch, stack):
        # 3 s fit one default block, so the reference is the whole-clip path
        audio = make_sine_noise_audio(3.0, seed=4)
        samples = np.append(audio.samples, audio.samples[:37])
        wav, raw = tmp_path / "odd.wav", tmp_path / "odd.f32"
        write_wav(wav, AudioBuffer(samples, 16000))
        samples.astype("<f4").tofile(raw)
        for path, extra, load in (
            (wav, [], read_wav),
            (raw, ["--raw-rate", 16000], lambda p: read_raw_f32(p, 16000)),
        ):
            ref = tmp_path / "ref.afv1"
            feats = stack_frames(compute_mel(load(path)), stack)
            write_afv1(ref, feats.vectors, feats.frame_rate)
            monkeypatch.setattr(mel_module, "_MEL_BLOCK", 1)
            out = tmp_path / "out.afv1"
            code, _, _ = run(capsys, "mel", path, out, "--stack", stack, *extra)
            monkeypatch.undo()
            assert code == 0
            assert out.read_bytes() == ref.read_bytes()

    def test_failure_in_last_block_leaves_no_output(self, capsys, tmp_path):
        # 6 s is more than one default block; the NaN sits in the last one
        samples = np.zeros(6 * 16000, dtype="<f4")
        samples[-100] = np.nan
        raw = tmp_path / "nan.f32"
        samples.tofile(raw)
        out = tmp_path / "out.afv1"
        refused_twice(capsys, ["mel", raw, out, "--raw-rate", 16000], out, 4, "non-finite")

    def test_unknown_config_key(self, capsys, tmp_path, wav_1s):
        cfg = tmp_path / "mel.json"
        cfg.write_text(json.dumps({"window": "hann"}))
        code, _, _ = run(capsys, "mel", wav_1s, tmp_path / "o.afv1", "--config", cfg)
        assert code == 3

    def test_byte_identical_across_threads(self, capsys, tmp_path, wav_1s):
        a, b = tmp_path / "a.afv1", tmp_path / "b.afv1"
        assert run(capsys, "mel", wav_1s, a, "--threads", 1)[0] == 0
        assert run(capsys, "mel", wav_1s, b, "--threads", 7)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_must_be_positive(self, capsys, tmp_path, wav_1s):
        code, _, _ = run(capsys, "mel", wav_1s, tmp_path / "o.afv1", "--threads", 0)
        assert code == 3


@pytest.fixture
def feature_corpus(tmp_path, rng):
    paths = []
    for i in range(2):
        path = tmp_path / f"feat{i}.afv1"
        write_afv1(path, rng.standard_normal((40, 6)), 12.5)
        paths.append(path)
    manifest = tmp_path / "corpus.txt"
    manifest.write_text("# comment\n" + "\n".join(str(p) for p in paths) + "\n")
    return manifest, paths


TRAIN_CFG = {"layer_sizes": [8, 8], "schedule": {"total_steps": 4}}


class TestTrainRvq:
    def test_trains_and_reports(self, capsys, tmp_path, feature_corpus):
        manifest, _ = feature_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TRAIN_CFG))
        out = tmp_path / "books.rvq1"
        code, lines, _ = run(
            capsys, "train-rvq", manifest, out, "--config", cfg, "--epochs", 2
        )
        assert code == 0
        assert lines[-1]["layers"] == 2
        assert lines[-1]["steps"] == 4  # 2 epochs x 2 sequences
        stack = read_rvq1(out)
        assert stack.layer_sizes == (8, 8)
        report_lines = (
            (tmp_path / "books.rvq1.report.jsonl").read_text().splitlines()
        )
        assert len(report_lines) == 4

    def test_epochs_zero_writes_initialized_stack(
        self, capsys, tmp_path, feature_corpus
    ):
        manifest, _ = feature_corpus
        out = tmp_path / "books.rvq1"
        code, lines, _ = run(capsys, "train-rvq", manifest, out, "--epochs", 0)
        assert code == 0
        assert lines[-1]["steps"] == 0
        assert lines[-1]["final_feature_mae"] is None
        assert read_rvq1(out).layer_sizes == (64, 64)  # default profile

    def test_byte_identical_runs(self, capsys, tmp_path, feature_corpus):
        manifest, _ = feature_corpus
        a, b = tmp_path / "a.rvq1", tmp_path / "b.rvq1"
        for out, threads in ((a, 1), (b, 5)):
            code, _, _ = run(
                capsys,
                "train-rvq", manifest, out,
                "--epochs", 2, "--seed", 11, "--threads", threads,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_dropout_takes_its_defaults(self, capsys, tmp_path, feature_corpus):
        manifest, _ = feature_corpus
        # every sample routed through the quantizer, so dropout shows in the bytes
        schedule = {"total_steps": 4, "replace_start": 1.0}
        books = {}
        for name, dropout in [
            ("empty", {}),
            ("defaults", {"keep_prob_per_layer": 0.5, "mode": "independent"}),
            ("null", None),
        ]:
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**TRAIN_CFG, "schedule": schedule, "dropout": dropout}))
            out = tmp_path / f"{name}.rvq1"
            code, _, _ = run(capsys, "train-rvq", manifest, out, "--config", cfg, "--seed", 3)
            assert code == 0
            books[name] = out.read_bytes()
        assert books["empty"] == books["defaults"]
        assert books["empty"] != books["null"]

    def test_dim_disagreement(self, capsys, tmp_path, rng):
        p1, p2 = tmp_path / "a.afv1", tmp_path / "b.afv1"
        write_afv1(p1, rng.standard_normal((10, 4)), 12.5)
        write_afv1(p2, rng.standard_normal((10, 5)), 12.5)
        manifest = tmp_path / "corpus.txt"
        manifest.write_text(f"{p1}\n{p2}\n")
        code, _, _ = run(capsys, "train-rvq", manifest, tmp_path / "o.rvq1")
        assert code == 3

    def test_empty_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "corpus.txt"
        manifest.write_text("# nothing\n")
        code, _, _ = run(capsys, "train-rvq", manifest, tmp_path / "o.rvq1")
        assert code == 4

    def test_empty_feature_file(self, capsys, tmp_path, monkeypatch, feature_corpus):
        # named, and refused before initialization reads the rest of the corpus
        manifest, paths = feature_corpus
        empty = tmp_path / "empty.afv1"
        write_afv1(empty, np.zeros((0, 6)), 12.5)
        manifest.write_text(f"{paths[0]}\n{empty}\n")
        report = tmp_path / "report.jsonl"
        monkeypatch.setattr(cli, "init_rvq_stack", None)
        code, lines, err = run(
            capsys, "train-rvq", manifest, tmp_path / "o.rvq1", "--report", report
        )
        assert (code, lines) == (4, [])
        assert err == f"error: train-rvq: {empty} holds no feature rows\n"
        assert not report.exists()

    def test_sequences_are_views_of_the_matrix_init_reads(
        self, capsys, tmp_path, monkeypatch, rng
    ):
        # the corpus is held once: each training sequence is its file's rows
        # within the one float64 matrix that initialization reads
        files = [rng.standard_normal((t, 6)).astype(np.float32) for t in (37, 5, 120, 1, 64)]
        manifest = tmp_path / "corpus.txt"
        with manifest.open("w") as fh:
            for i, rows in enumerate(files):
                write_afv1(tmp_path / f"f{i}.afv1", rows, 12.5)
                fh.write(f"{tmp_path / f'f{i}.afv1'}\n")
        seen = {}

        def init(layer_sizes, features, **kwargs):
            seen["features"] = features
            return rvq.init_rvq_stack(layer_sizes, features, **kwargs)

        def train(stack, corpus, *args, **kwargs):
            seen["corpus"] = corpus
            return rvq.train_rvq(stack, corpus, *args, **kwargs)

        monkeypatch.setattr(cli, "init_rvq_stack", init)
        monkeypatch.setattr(cli, "train_rvq", train)
        code, _, _ = run(capsys, "train-rvq", manifest, tmp_path / "o.rvq1", "--epochs", 1)
        assert code == 0
        features, corpus = seen["features"], seen["corpus"]
        assert features.dtype == np.float64 and not features.flags.writeable
        assert np.array_equal(features, np.concatenate(files))
        assert len(corpus) == len(files)
        for seq, rows in zip(corpus, files):
            assert np.shares_memory(seq.vectors, features)
            assert np.array_equal(seq.vectors, rows)

    def test_missing_feature_file(self, capsys, tmp_path):
        manifest = tmp_path / "corpus.txt"
        manifest.write_text(str(tmp_path / "ghost.afv1") + "\n")
        code, _, _ = run(capsys, "train-rvq", manifest, tmp_path / "o.rvq1")
        assert code == 2


@pytest.fixture
def trained(capsys, tmp_path, rng):
    """Features, a gate-off trained codebook, and its report path."""
    feats = tmp_path / "feats.afv1"
    write_afv1(feats, rng.standard_normal((40, 6)), 12.5)
    manifest = tmp_path / "corpus.txt"
    manifest.write_text(str(feats) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "layer_sizes": [8, 8],
                "schedule": {"replace_start": 0.0, "replace_end": 0.0},
            }
        )
    )
    books = tmp_path / "books.rvq1"
    code, _, _ = run(capsys, "train-rvq", manifest, books, "--config", cfg)
    assert code == 0
    return feats, books, tmp_path / "books.rvq1.report.jsonl"


class TestEncodeDecode:
    def test_encode_writes_tokens(self, capsys, tmp_path, trained):
        feats, books, _ = trained
        tokens = tmp_path / "x.atk1"
        code, lines, _ = run(capsys, "encode", feats, books, tokens)
        assert code == 0
        assert lines[-1]["frames"] == 40
        frames, sizes = read_atk1(tokens)
        assert len(frames) == 40
        assert sizes == (8, 8)

    def test_encode_dim_mismatch(self, capsys, tmp_path, trained, rng):
        _, books, _ = trained
        other = tmp_path / "other.afv1"
        write_afv1(other, rng.standard_normal((5, 9)), 12.5)
        code, _, _ = run(capsys, "encode", other, books, tmp_path / "x.atk1")
        assert code == 3

    def test_round_trip_mae_matches_report(self, capsys, tmp_path, trained):
        # gate-off training never updates the books, so the reported
        # feature_mae must equal the encode/decode reconstruction error
        feats, books, report_path = trained
        tokens = tmp_path / "x.atk1"
        recon = tmp_path / "recon.afv1"
        assert run(capsys, "encode", feats, books, tokens)[0] == 0
        code, _, _ = run(capsys, "decode", tokens, books, recon, "--unstack", 1)
        assert code == 0
        x, _ = read_afv1(feats)
        y, _ = read_afv1(recon)
        mae = float(np.mean(np.abs(x - y)))
        reported = json.loads(report_path.read_text().splitlines()[-1])
        assert mae == pytest.approx(reported["feature_mae"], abs=1e-6)

    def test_decode_unstacks(self, capsys, tmp_path, trained):
        feats, books, _ = trained
        tokens = tmp_path / "x.atk1"
        run(capsys, "encode", feats, books, tokens)
        out = tmp_path / "recon.afv1"
        code, lines, _ = run(
            capsys, "decode", tokens, books, out, "--unstack", 2, "--frame-rate", 12.5
        )
        assert code == 0
        vectors, rate = read_afv1(out)
        assert vectors.shape == (80, 3)  # 40 x 6 rows split in two
        assert rate == 25.0
        assert lines[-1]["frames"] == 80

    def test_decode_rejects_bad_unstack(self, capsys, tmp_path, trained):
        feats, books, _ = trained
        tokens = tmp_path / "x.atk1"
        run(capsys, "encode", feats, books, tokens)
        for bad in (4, 0):  # 4 does not divide the 6-d rows
            code, _, _ = run(
                capsys, "decode", tokens, books, tmp_path / "r.afv1", "--unstack", bad
            )
            assert code == 3

    @pytest.mark.parametrize("rate", ["nan", "inf", "0", "-5"])
    def test_decode_rejects_bad_frame_rate(self, capsys, tmp_path, trained, rate):
        feats, books, _ = trained
        tokens = tmp_path / "x.atk1"
        run(capsys, "encode", feats, books, tokens)
        out = tmp_path / "r.afv1"
        argv = ["decode", tokens, books, out, "--unstack", 1, "--frame-rate", rate]
        code, lines, _ = run(capsys, *argv)
        assert (code, lines, out.exists()) == (3, [], False)

    def test_decode_skips_eoa_with_warning(self, capsys, tmp_path, trained):
        _, books, _ = trained
        tokens = tmp_path / "x.atk1"
        frames = np.array([(0, 1), eoa_frame((8, 8)), (2, 3)])
        write_atk1(tokens, frames, (8, 8))
        out = tmp_path / "r.afv1"
        code, lines, err = run(capsys, "decode", tokens, books, out, "--unstack", 1)
        assert code == 0
        assert "skipped 1 end-of-audio" in err
        assert lines[-1]["frames"] == 2

    def test_decode_out_of_range_index(self, capsys, tmp_path, trained):
        _, books, _ = trained
        tokens = tmp_path / "x.atk1"
        write_atk1(tokens, [(9, 0)], (8, 8))  # 9 > EOA value 8
        argv = ["decode", tokens, books, tmp_path / "r.afv1", "--unstack", 1]
        refused(capsys, argv, tmp_path, 4, f"frame 0 of {tokens} holds an index past its layer")

    def test_decode_keeps_partial_eoa_row(self, capsys, tmp_path, trained):
        # index K in one layer only is not end-of-audio: decode keeps the
        # row and rejects its out-of-codebook index
        _, books, _ = trained
        tokens = tmp_path / "x.atk1"
        write_atk1(tokens, [(0, 1), (8, 3)], (8, 8))
        argv = ["decode", tokens, books, tmp_path / "r.afv1", "--unstack", 1]
        err = refused(capsys, argv, tmp_path, 4, f"frame 1 of {tokens} holds an index past its")
        assert "skipped" not in err

    @pytest.mark.parametrize("first", [(1, 1), (8, 4)], ids=["good", "end-of-audio"])
    def test_decode_names_frame_past_layer_size(self, capsys, tmp_path, trained, first):
        # frames are numbered in the file, a skipped end-of-audio frame counted
        cfg, books = tmp_path / "cfg84.json", tmp_path / "books84.rvq1"
        cfg.write_text(json.dumps({"layer_sizes": [8, 4]}))
        assert run(capsys, "train-rvq", tmp_path / "corpus.txt", books, "--config", cfg)[0] == 0
        tokens, out = tmp_path / "partial.atk1", tmp_path / "r.afv1"
        write_atk1(tokens, [first, (8, 1), (2, 3)], (8, 4))
        argv = ["decode", tokens, books, out, "--unstack", 1]
        message = f"error: decode: frame 1 of {tokens} holds an index past its layer sizes (8, 4)"
        assert refused(capsys, argv, tmp_path, 4, message) == message + "\n"
        write_atk1(tokens, [first, (8, 4), (2, 3)], (8, 4))
        n_eoa = 1 + (first == (8, 4))
        code, lines, err = run(capsys, *argv)
        assert (code, lines[-1]["frames"]) == (0, 3 - n_eoa)
        assert f"skipped {n_eoa} end-of-audio frames" in err

    def test_decode_layer_size_mismatch(self, capsys, tmp_path, trained):
        _, books, _ = trained
        tokens = tmp_path / "x.atk1"
        write_atk1(tokens, [(0, 0)], (4, 4))
        code, _, _ = run(
            capsys, "decode", tokens, books, tmp_path / "r.afv1", "--unstack", 1
        )
        assert code == 3


HUGE = 2**32 - 1


def nan_decay_in_layer_1(data: bytes) -> bytes:
    """The ``trained`` fixture's RVQ1 with layer 1's ema_decay as NaN."""
    data = bytearray(data)
    struct.pack_into("<d", data, 8 + (24 + 8 * 6 * 4 + 8 * 8) + 8, float("nan"))
    return bytes(data)


# an RVQ1 whose one layer holds K = 0 codewords of D = 6, which no writer makes
ONE_LAYER_OF_NO_CODEWORDS = struct.pack("<4sI", b"RVQ1", 1) + struct.pack("<IIdd", 0, 6, 0.99, 0.0)


class TestHostileInput:
    """Bad input exits 4 through the CLI's error handling, not a traceback."""

    def test_non_finite_features(self, capsys, tmp_path, trained):
        _, books, _ = trained
        for bad in (np.nan, np.inf):
            x = np.zeros((5, 6))
            x[3, 2] = bad
            feats = tmp_path / "bad.afv1"
            write_afv1(feats, x, 12.5)
            code, _, err = run(capsys, "encode", feats, books, tmp_path / "x.atk1")
            assert code == 4
            assert "NaN or inf" in err

    def test_oversize_afv1_header(self, capsys, tmp_path, trained):
        _, books, _ = trained
        feats = tmp_path / "huge.afv1"
        feats.write_bytes(struct.pack("<4sIId", b"AFV1", 2**31, 2**31, 12.5))
        code, _, err = run(capsys, "encode", feats, books, tmp_path / "x.atk1")
        assert code == 4
        assert "AFV1 body" in err

    def test_oversize_atk1_frame_count(self, capsys, tmp_path, trained):
        _, books, _ = trained
        tokens = tmp_path / "huge.atk1"
        tokens.write_bytes(struct.pack("<4sIIII", b"ATK1", 2, 8, 8, 2**32 - 1))
        code, _, err = run(
            capsys, "decode", tokens, books, tmp_path / "r.afv1", "--unstack", 1
        )
        assert code == 4
        assert "ATK1 frames" in err

    @pytest.mark.parametrize(
        "header, argv, what",
        [
            (struct.pack("<4sIIIdd", b"RVQ1", 1, HUGE, HUGE, 0.99, 0.0),
             ["encode", "feats", "pipe", "x.atk1"], "RVQ1 codewords"),
            (struct.pack("<4sIId", b"AFV1", HUGE, HUGE, 12.5),
             ["train-rvq", "pipes.txt", "x.rvq1"], "AFV1 body"),
            (struct.pack("<4sIIII", b"ATK1", 2, 8, 8, HUGE),
             ["decode", "pipe", "books", "x.afv1", "--unstack", "1"], "ATK1 frames"),
            (struct.pack("<4sIIII", b"ATK1", 2, 8, 8, HUGE),
             ["pack", "pipes.jsonl", "x.jsonl"], "ATK1 frames"),
            (struct.pack("<4sI", b"ATK1", HUGE),
             ["decode", "pipe", "books", "x.afv1"], "ATK1 layer sizes"),
        ],
        ids=["encode-rvq1", "train-rvq-afv1", "decode-atk1-frames", "pack-atk1-frames",
             "decode-atk1-layers"],
    )
    def test_header_past_data_through_a_pipe(self, capsys, tmp_path, trained, header, argv,
                                             what):
        # a pipe has no size to check the header against: read in pieces,
        # it ends before the sizes its header declares
        feats, books, _ = trained
        outs = tmp_path / "out"
        outs.mkdir()
        with atk1_pipe(tmp_path, header + bytes(64)) as fifo:
            (outs / "pipes.txt").write_text(f"{fifo}\n")
            row = {"text": "a", "atk1_path": str(fifo), "frame_range": [0, 2], "duration_s": 1.0}
            (outs / "pipes.jsonl").write_text(json.dumps(row) + "\n")
            # names with a dot are files in outs; options and their values pass as they are
            paths = {"feats": feats, "books": books, "pipe": fifo}
            argv = [argv[0], *(outs / a if "." in a else paths.get(a, a) for a in argv[1:])]
            refused(capsys, argv, outs, 4, f"error: {argv[0]}: truncated file while reading {what}")

    def test_wav_through_a_pipe(self, capsys, tmp_path):
        # WAV or raw float32, audio is read by range, so a pipe is refused:
        # an I/O error, exit 2
        wav = tmp_path / "in.wav"
        write_wav(wav, make_sine_noise_audio(0.1, seed=0))
        outs = tmp_path / "out"
        outs.mkdir()
        with atk1_pipe(tmp_path, wav.read_bytes(), "pipe.wav") as fifo:
            argv = ["mel", fifo, outs / "x.afv1"]
            refused(capsys, argv, outs, 2, f"{fifo}: WAV input must be a seekable file")
        with atk1_pipe(tmp_path, bytes(400), "pipe.f32") as fifo:
            argv = ["mel", fifo, outs / "x.afv1", "--raw-rate", 16000]
            refused(capsys, argv, outs, 2, f"{fifo}: raw float32 input must be a seekable file")

    def test_raw_f32_with_ragged_tail(self, capsys, tmp_path):
        raw = tmp_path / "odd.f32"
        raw.write_bytes(np.zeros(2000, dtype="<f4").tobytes() + b"\x00\x00")
        out = tmp_path / "out.afv1"
        code, _, err = run(capsys, "mel", raw, out, "--raw-rate", 16000)
        assert code == 4
        assert "8002 bytes" in err
        assert not out.exists()

    def _mel_exits_4(self, capsys, tmp_path, wav, message):
        out = tmp_path / "out.afv1"
        code, lines, err = run(capsys, "mel", wav, out)
        assert code == 4
        assert lines == []
        assert message in err
        assert err.startswith("error: ")
        assert not out.exists()

    def test_wav_data_shorter_than_header(self, capsys, tmp_path, wav_1s):
        wav_1s.write_bytes(wav_1s.read_bytes()[:-1000])
        self._mel_exits_4(capsys, tmp_path, wav_1s, "16000 frames its header declares")

    def test_wav_ending_mid_sample(self, capsys, tmp_path, wav_1s):
        wav_1s.write_bytes(wav_1s.read_bytes()[:-1001])
        self._mel_exits_4(capsys, tmp_path, wav_1s, "16000 frames its header declares")

    def test_wav_that_is_not_riff(self, capsys, tmp_path):
        wav = tmp_path / "garbage.wav"
        wav.write_bytes(b"this is not a RIFF file at all")
        self._mel_exits_4(capsys, tmp_path, wav, "not a readable PCM WAV")

    def test_wav_with_unsupported_format_tag(self, capsys, tmp_path, wav_1s):
        data = bytearray(wav_1s.read_bytes())
        assert data[20:22] == b"\x01\x00"  # WAVE_FORMAT_PCM
        data[20:22] = b"\x03\x00"  # WAVE_FORMAT_IEEE_FLOAT
        wav_1s.write_bytes(bytes(data))
        self._mel_exits_4(capsys, tmp_path, wav_1s, "not a readable PCM WAV")

    def test_empty_wav(self, capsys, tmp_path):
        wav = tmp_path / "empty.wav"
        wav.write_bytes(b"")
        self._mel_exits_4(capsys, tmp_path, wav, "not a readable PCM WAV")

    @pytest.mark.parametrize("channels, width", [(2, 2), (1, 1)])
    def test_stereo_or_8_bit_wav_is_config_error(self, capsys, tmp_path, channels, width):
        wav = tmp_path / "other.wav"
        with wave.open(str(wav), "wb") as w:
            w.setnchannels(channels)
            w.setsampwidth(width)
            w.setframerate(16000)
            w.writeframes(bytes(channels * width * 16000))
        code, _, err = run(capsys, "mel", wav, tmp_path / "out.afv1")
        assert code == 3
        assert "only" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train-rvq", "corpus.txt", "out/b.rvq1"], "AFV1 with zero-width rows"),
            (["encode", "f.afv1", "b.rvq1", "out/t.atk1"], "AFV1 with zero-width rows"),
            (["encode", "good.afv1", "b.rvq1", "out/t.atk1"], "RVQ1 layer with zero-width"),
            (["decode", "t.atk1", "b.rvq1", "out/f.afv1", "--unstack", 1],
             "RVQ1 layer with zero-width"),
        ],
        ids=["train-rvq", "encode", "encode-rvq1", "decode"],
    )
    def test_zero_width_rows(self, capsys, tmp_path, monkeypatch, argv, message):
        # a (10, 0) AFV1 and an RVQ1 of four zero-width codewords, which
        # no writer makes; D = 0 is refused before any NaN MAE or reshape
        monkeypatch.chdir(tmp_path)
        Path("out").mkdir()
        Path("f.afv1").write_bytes(struct.pack("<4sIId", b"AFV1", 10, 0, 12.5))
        write_afv1("good.afv1", np.zeros((10, 6)), 12.5)
        layer = struct.pack("<IIdd", 4, 0, 0.99, 0.0) + bytes(8 * 4)
        Path("b.rvq1").write_bytes(struct.pack("<4sI", b"RVQ1", 1) + layer)
        write_atk1("t.atk1", np.zeros((10, 1), dtype=np.int64), (4,))
        Path("corpus.txt").write_text("f.afv1\n")
        err = refused(capsys, argv, tmp_path / "out", 4, f"error: {argv[0]}: {message}")
        assert err.count("\n") == 1 and "NaN" not in err

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            ("encode", nan_decay_in_layer_1, "RVQ1 layer 1: ema_decay must be in [0, 1], got nan"),
            ("decode", nan_decay_in_layer_1, "RVQ1 layer 1: ema_decay must be in [0, 1], got nan"),
            ("encode", lambda _: ONE_LAYER_OF_NO_CODEWORDS, "RVQ1 layer 0: no codewords"),
        ],
        ids=["encode", "decode", "encode-k-0"],
    )
    def test_rvq1_value_that_cannot_be_a_codebook(self, capsys, tmp_path, trained, command,
                                                  edit, message):
        # bad data in the file, not a bad config
        feats, books, _ = trained
        books.write_bytes(edit(books.read_bytes()))
        write_atk1(tmp_path / "t.atk1", np.zeros((4, 2), dtype=np.int64), (8, 8))
        (tmp_path / "out").mkdir()
        tokens_or_features = feats if command == "encode" else tmp_path / "t.atk1"
        argv = [command, tokens_or_features, books, tmp_path / "out" / "x"]
        message = f"error: {command}: {message}\n"
        assert refused(capsys, argv, tmp_path / "out", 4, message) == message

    def test_oversize_rvq1_codebook(self, capsys, tmp_path, trained):
        feats, _, _ = trained
        books = tmp_path / "huge.rvq1"
        books.write_bytes(
            struct.pack("<4sI", b"RVQ1", 1) + struct.pack("<IIdd", 2**31, 2**31, 0.99, 0.0)
        )
        code, _, err = run(capsys, "encode", feats, books, tmp_path / "x.atk1")
        assert code == 4
        assert "RVQ1 codewords" in err


class TestStreamedEncodeDecode:
    """encode streams rows in rvq._ROW_CHUNK blocks and decode in
    cli._ATK1_BLOCK blocks; at 7 rows a block, the 40 fixture vectors
    span 6 blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(rvq, "_ROW_CHUNK", 7)
        monkeypatch.setattr(cli, "_ATK1_BLOCK", 7)

    def test_encode_equals_encode_frames(self, capsys, tmp_path, trained):
        feats, books, _ = trained
        tokens = tmp_path / "x.atk1"
        code, lines, _ = run(capsys, "encode", feats, books, tokens)
        assert (code, lines[-1]["frames"]) == (0, 40)
        frames, sizes = read_atk1(tokens)
        stack = read_rvq1(books)
        assert np.array_equal(frames, encode_frames(stack, read_afv1(feats)[0]))
        assert sizes == stack.layer_sizes

    @pytest.mark.parametrize("unstack", [1, 2])
    def test_decode_equals_decode_frames(self, capsys, tmp_path, trained, rng, unstack):
        _, books, _ = trained
        frames = rng.integers(0, 8, size=(30, 2))
        frames[[3, 17]] = eoa_frame((8, 8))
        tokens, out = tmp_path / "x.atk1", tmp_path / "r.afv1"
        write_atk1(tokens, frames, (8, 8))
        code, lines, _ = run(capsys, "decode", tokens, books, out, "--unstack", unstack)
        assert (code, lines[-1]["frames"]) == (0, 28 * unstack)
        want = decode_frames(read_rvq1(books), np.delete(frames, [3, 17], axis=0))
        assert np.array_equal(read_afv1(out)[0], want.reshape(-1, 6 // unstack).astype(np.float32))

    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    def test_decode_skips_eoa_across_blocks(self, capsys, tmp_path, monkeypatch, trained, rng,
                                            pipe):
        # blocks of 4: end-of-audio frames in the first block, all of the
        # third, and the last, which is short
        monkeypatch.setattr(cli, "_ATK1_BLOCK", 4)
        _, books, _ = trained
        frames = rng.integers(0, 8, size=(18, 2))
        eoa = [1, 8, 9, 10, 11, 17]
        frames[eoa] = eoa_frame((8, 8))
        tokens, want, out = tmp_path / "x.atk1", tmp_path / "want.afv1", tmp_path / "r.afv1"
        write_atk1(tokens, frames, (8, 8))
        write_afv1(want, decode_frames(read_rvq1(books), np.delete(frames, eoa, axis=0)), 12.5)
        source = (
            atk1_pipe(tmp_path, tokens.read_bytes()) if pipe else contextlib.nullcontext(tokens)
        )
        with source as path:
            code, lines, err = run(capsys, "decode", path, books, out, "--unstack", 1)
        assert (code, lines[-1]["frames"], err) == (0, 12, "skipped 6 end-of-audio frames\n")
        assert out.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    def test_decode_names_bad_frame_in_third_block(self, capsys, tmp_path, monkeypatch, trained,
                                                   pipe):
        # frames are numbered in the file, skipped end-of-audio frames counted
        monkeypatch.setattr(cli, "_ATK1_BLOCK", 4)
        _, books, _ = trained
        frames = np.zeros((18, 2), dtype=np.int64)
        frames[[1, 4]] = eoa_frame((8, 8))
        frames[10] = (8, 3)
        tokens, outs = tmp_path / "x.atk1", tmp_path / "out"
        write_atk1(tokens, frames, (8, 8))
        outs.mkdir()
        source = (
            atk1_pipe(tmp_path, tokens.read_bytes()) if pipe else contextlib.nullcontext(tokens)
        )
        with source as path:
            argv = ["decode", path, books, outs / "r.afv1", "--unstack", 1]
            message = f"error: decode: frame 10 of {path} holds an index past its layer sizes"
            assert refused(capsys, argv, outs, 4, message) == message + " (8, 8)\n"

    def test_nan_in_last_block(self, capsys, tmp_path, trained):
        feats, books, _ = trained
        x, _ = read_afv1(feats)
        x[38, 4] = np.nan
        bad = tmp_path / "bad.afv1"
        write_afv1(bad, x, 12.5)
        argv = ["encode", bad, books, tmp_path / "x.atk1"]
        refused_twice(capsys, argv, tmp_path / "x.atk1", 4, "NaN or inf")

    @pytest.mark.parametrize("edit", [lambda d: d[:-3], lambda d: d + b"\x00"])
    def test_afv1_of_the_wrong_size(self, capsys, tmp_path, trained, edit):
        feats, books, _ = trained
        bad = tmp_path / "bad.afv1"
        bad.write_bytes(edit(feats.read_bytes()))
        argv = ["encode", bad, books, tmp_path / "x.atk1"]
        refused_twice(capsys, argv, tmp_path / "x.atk1", 4, "AFV1 body")

    def test_out_of_range_index_in_late_block(self, capsys, tmp_path, trained):
        _, books, _ = trained
        frames = np.zeros((40, 2), dtype=np.int64)
        frames[37] = (3, 8)  # block 6 of 6; 8 is past the codebook
        tokens = tmp_path / "x.atk1"
        write_atk1(tokens, frames, (8, 8))
        out = tmp_path / "r.afv1"
        argv = ["decode", tokens, books, out, "--unstack", 1]
        message = f"frame 37 of {tokens} holds an index past its layer sizes (8, 8)"
        refused_twice(capsys, argv, out, 4, message)

    def test_zero_rows(self, capsys, tmp_path, trained):
        _, books, _ = trained
        empty = tmp_path / "empty.afv1"
        write_afv1(empty, np.zeros((0, 6)), 12.5)
        tokens, out = tmp_path / "x.atk1", tmp_path / "r.afv1"
        code, lines, _ = run(capsys, "encode", empty, books, tokens)
        assert (code, lines[-1]["frames"]) == (0, 0)
        frames, sizes = read_atk1(tokens)
        assert frames.shape == (0, 2) and sizes == (8, 8)
        code, lines, _ = run(capsys, "decode", tokens, books, out, "--unstack", 2)
        assert (code, lines[-1]["frames"]) == (0, 0)
        assert read_afv1(out)[0].shape == (0, 3)


def float64_cascade(books, x):
    """The argmin cascade in float64 by brute force: (T, L) indices."""
    residual, picks = x.astype(np.float64), []
    for book in books:
        book = book.astype(np.float64)
        pick = np.argmin(((residual[:, None, :] - book[None]) ** 2).sum(axis=2), axis=1)
        residual = residual - book[pick]
        picks.append(pick)
    return np.stack(picks, axis=1)


class TestFloat32Range:
    """Selection scores in float32; features too large for that range exit
    4 rather than give wrong tokens, in a pool worker too."""

    @given(
        exponent=st.integers(0, 38),
        mantissa=st.floats(1.0, 3.0),
        seed=st.integers(0, 10_000),
        threads=st.sampled_from([1, 2]),
    )
    @settings(max_examples=80)
    def test_exit_4_or_the_float64_argmin(
        self, tmp_path_factory, exponent, mantissa, seed, threads
    ):
        scale = mantissa * 10.0**exponent
        # float32 features and codewords must be finite to be stored at all
        scale = min(scale, 3e38)
        tmp = tmp_path_factory.mktemp("range")
        rng = np.random.Generator(np.random.PCG64(seed))
        # the 16 vertices of a 4-cube: the true codeword is 0.2 * scale
        # away at layer 0 and the next one at least 1.8 * scale
        cube = np.array([[(i >> b & 1) * 2.0 - 1.0 for b in range(4)] for i in range(16)])
        books = [scale * cube, 0.1 * scale * cube]
        picks = rng.integers(0, 16, size=(50, 2))
        x = scale * (cube[picks[:, 0]] + 0.1 * cube[picks[:, 1]])
        write_rvq1(tmp / "books.rvq1", RvqStack([Codebook(b) for b in books]))
        write_afv1(tmp / "feats.afv1", x, 12.5)
        out = tmp / "tokens.atk1"
        argv = ["encode", tmp / "feats.afv1", tmp / "books.rvq1", out, "--threads", threads]
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(
            io.StringIO()
        ), contextlib.redirect_stderr(err):
            mp.setattr(rvq, "_ROW_CHUNK", 8)  # 7 blocks, so a pool has work
            code = main([str(a) for a in argv])
        if code == 4:
            assert err.getvalue().startswith(
                "error: encode: features or codewords are too large for float32 selection"
            )
            assert not out.exists()
        else:
            assert (code, err.getvalue()) == (0, "")
            stored = [b.vectors for b in read_rvq1(tmp / "books.rvq1").layers]
            want = float64_cascade(stored, read_afv1(tmp / "feats.afv1")[0])
            assert np.array_equal(read_atk1(out)[0], want)

    def test_codewords_too_large_are_named(self, capsys, tmp_path):
        # N(0, 1) features against codewords near 1e20: the codewords' own
        # squared norms pass the float32 range
        rng = np.random.default_rng(0)
        books, feats = tmp_path / "books.rvq1", tmp_path / "feats.afv1"
        write_rvq1(books, RvqStack([Codebook(rng.standard_normal((16, 64)) * 1e20)]))
        write_afv1(feats, rng.standard_normal((50, 64)), 12.5)
        message = "error: encode: features or codewords are too large for float32 selection"
        refused(capsys, ["encode", feats, books, tmp_path / "t.atk1"], tmp_path, 4, message)


# Runs argv as a child and prints that child's peak RSS in kB. Started
# from this small interpreter, the child's ru_maxrss is its own: Linux
# carries the high-water mark of the address space that exec replaces
# into it, which would be the test process's.
PEAK_RSS = """\
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def cli_peak_rss_mb(*argv):
    """Peak RSS of ``rvqtok <argv>`` run as a child process."""
    cli = [sys.executable, "-m", "rvqtok.cli", *map(str, argv)]
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *cli],
        env=checkout_env(), capture_output=True, text=True, check=True,
    )
    return int(proc.stdout) / 1024


def mel_peak_rss_mb(tmp_path, minutes):
    wav = tmp_path / f"{minutes}min.wav"
    rng = np.random.Generator(np.random.PCG64(minutes))
    with wave.open(str(wav), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)
        for _ in range(minutes):
            w.writeframes(rng.integers(-4000, 4000, 60 * 16000, dtype="<i2").tobytes())
    return cli_peak_rss_mb("mel", wav, tmp_path / "out.afv1")


linux_only = pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")


@linux_only
def test_mel_memory_does_not_grow_with_clip_length(tmp_path):
    short, long = mel_peak_rss_mb(tmp_path, 2), mel_peak_rss_mb(tmp_path, 8)
    assert long - short < 20, f"peak RSS {short:.1f} MB at 2 min, {long:.1f} MB at 8 min"


@linux_only
def test_encode_memory_does_not_grow_with_length(tmp_path):
    # codebooks and 640-d features for 2 and 8 min at 12.5 Hz
    rng = np.random.Generator(np.random.PCG64(8))
    books = tmp_path / "books.rvq1"
    write_rvq1(books, RvqStack([Codebook(rng.standard_normal((256, 640))) for _ in range(2)]))
    peaks = []
    for minutes in (2, 8):
        feats = tmp_path / f"{minutes}min.afv1"
        write_afv1(feats, rng.standard_normal((minutes * 750, 640)), 12.5)
        peaks.append(cli_peak_rss_mb("encode", feats, books, tmp_path / "x.atk1"))
    short, long = peaks
    assert long - short < 20, f"peak RSS {short:.1f} MB at 2 min, {long:.1f} MB at 8 min"


@linux_only
def test_decode_memory_does_not_grow_with_length(tmp_path):
    # two layers of four 2-d codewords, so the tokens outweigh the books:
    # 2M frames are 16 MB as stored and 32 MB as int64
    rng = np.random.Generator(np.random.PCG64(8))
    books = tmp_path / "books.rvq1"
    write_rvq1(books, RvqStack([Codebook(rng.standard_normal((4, 2))) for _ in range(2)]))
    peaks = []
    for n in (200_000, 2_000_000):
        tokens = tmp_path / f"{n}.atk1"
        write_atk1(tokens, rng.integers(0, 4, size=(n, 2)), (4, 4))
        peaks.append(cli_peak_rss_mb("decode", tokens, books, tmp_path / "x.afv1", "--unstack", 1))
    short, long = peaks
    assert long - short < 20, f"peak RSS {short:.1f} MB at 0.2M frames, {long:.1f} MB at 2M"


@linux_only
def test_pack_memory_does_not_grow_with_manifest(tmp_path):
    # 5,000 pairs of 3-17 frames; the 4x manifest lists each four times
    rng = np.random.Generator(np.random.PCG64(5))
    ends = np.cumsum(rng.integers(3, 18, size=5000)).tolist()
    atk1 = tmp_path / "tokens.atk1"
    write_atk1(atk1, rng.integers(0, 256, size=(ends[-1], 8)), (256,) * 8)
    lines = "".join(
        json.dumps({"text": f"Utterance number {i}.", "atk1_path": str(atk1),
                    "frame_range": [start, end], "duration_s": (end - start) / 12.5}) + "\n"
        for i, (start, end) in enumerate(zip([0, *ends], ends))
    )
    peaks = []
    for copies in (1, 4):
        manifest = tmp_path / f"manifest{copies}.jsonl"
        manifest.write_text(lines * copies)
        peaks.append(cli_peak_rss_mb("pack", manifest, tmp_path / "records.jsonl"))
    short, long = peaks
    assert long - short < 20, f"peak RSS {short:.1f} MB at 1x, {long:.1f} MB at 4x"


@linux_only
def test_pack_memory_does_not_grow_with_atk1_files(tmp_path):
    # one 12-frame ATK1 per row, 8 layers; each file's bytes written directly
    head = struct.pack("<4sI8II", b"ATK1", 8, *(256,) * 8, 12)
    body = np.arange(96, dtype="<u4").tobytes()
    peaks = []
    for n in (1000, 9000):
        folder = tmp_path / str(n)
        folder.mkdir()
        manifest = folder / "manifest.jsonl"
        with manifest.open("w") as fh:
            for i in range(n):
                atk1 = folder / f"{i}.atk1"
                atk1.write_bytes(head + body)
                fh.write(json.dumps({"text": f"Clip {i}.", "atk1_path": str(atk1),
                                     "frame_range": [0, 12], "duration_s": 0.96}) + "\n")
        peaks.append(cli_peak_rss_mb("pack", manifest, folder / "records.jsonl"))
    few, many = peaks
    assert many - few < 3, f"peak RSS {few:.1f} MB at 1,000 files, {many:.1f} MB at 9,000"


def _address_space_cap():
    """preexec_fn: cap the child's address space at 3 GiB (this process
    keeps its own limit)."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@linux_only
@pytest.mark.parametrize(
    "command, doc",
    [
        ("mel", {"n_fft": 2**31, "hop": 160}),  # an 8 GiB window
        ("train-rvq", {"layer_sizes": [2**31]}),  # 16 GiB of init picks
    ],
)
def test_out_of_memory_exits_3(tmp_path, wav_1s, feature_corpus, command, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    source = wav_1s if command == "mel" else feature_corpus[0]
    proc = subprocess.run(
        [sys.executable, "-m", "rvqtok.cli", command, str(source), str(out), "--config", str(cfg)],
        env={**checkout_env(), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=_address_space_cap, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith(f"error: {command}: out of memory: ")
    assert proc.stderr.count("\n") == 1
    assert not any(p.name.startswith("out") for p in tmp_path.iterdir())


@pytest.fixture
def packable(tmp_path):
    atk1 = tmp_path / "clips.atk1"
    frames = np.array([(i % 8, i % 4) for i in range(10)])
    write_atk1(atk1, frames, (8, 4))
    rows = [
        {"text": "one.", "atk1_path": str(atk1), "frame_range": [0, 3], "duration_s": 1.0},
        {"text": "two.", "atk1_path": str(atk1), "frame_range": [3, 6], "duration_s": 2.0},
        {"text": "three.", "atk1_path": str(atk1), "frame_range": [6, 10], "duration_s": 1.5},
    ]
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return manifest, rows


def packed(out):
    """Each record of a pack output, loaded: its stream and its mask."""
    docs = [json.loads(line) for line in out.read_text().splitlines()]
    paths = {s["frames_ref"]["path"] for d in docs for s in d["segments"] if "frames_ref" in s}
    frames_by_path = {path: read_atk1(path)[0] for path in paths}
    return [load_stream_record(doc, frames_by_path) for doc in docs]


class TestPack:
    def test_itts_records(self, capsys, tmp_path, packable):
        manifest, rows = packable
        out = tmp_path / "records.jsonl"
        code, lines, _ = run(
            capsys, "pack", manifest, out,
            "--format-tag", "ITTS", "--group-size", 2,
        )
        assert code == 0
        assert lines[-1]["records"] == 2
        records = [json.loads(l) for l in out.read_text().splitlines()]
        first = records[0]
        assert first["format"] == "ITTS"
        kinds = [s["kind"] for s in first["segments"]]
        assert kinds == ["text", "audio", "text", "audio"]
        assert first["segments"][1]["frames_ref"] == {
            "path": rows[0]["atk1_path"], "start": 0, "end": 3,
        }
        assert "mask" not in first
        # first text segment unsupervised: its token flags are false
        n_first_text = len("one.".encode())
        _, mask = packed(out)[0]
        assert mask.flags[:n_first_text] == (False,) * n_first_text
        assert all(mask.flags[n_first_text:])

    def test_intlv_folds_leftover(self, capsys, tmp_path, packable):
        manifest, _ = packable
        out = tmp_path / "records.jsonl"
        code, lines, _ = run(
            capsys, "pack", manifest, out,
            "--format-tag", "INTLV", "--group-size", 2,
        )
        assert code == 0
        assert lines[-1]["records"] == 1  # leftover single row folded in
        rec = json.loads(out.read_text().splitlines()[0])
        kinds = [s["kind"] for s in rec["segments"]]
        assert kinds == ["audio", "text", "audio"]

    def test_intlv_masks_audio_out(self, capsys, tmp_path, packable):
        manifest, _ = packable
        out = tmp_path / "records.jsonl"
        run(capsys, "pack", manifest, out, "--format-tag", "INTLV", "--group-size", 3)
        (_, mask), = packed(out)
        # audio segments contribute nothing to the loss in INTLV
        n_audio_0 = 3 + 1  # frames of row 0 plus end-of-audio
        assert mask.flags[:n_audio_0] == (False,) * n_audio_0
        assert mask.flags[-5:] == (False,) * 5  # trailing audio run + its switch

    @pytest.mark.parametrize("tag", ["ITTS", "INTLV"])
    def test_records_load_and_round_trip(self, capsys, tmp_path, packable, tag):
        # group size 2 over three rows: INTLV folds its last row back
        manifest, rows = packable
        out = tmp_path / "records.jsonl"
        code, lines, _ = run(capsys, "pack", manifest, out, "--format-tag", tag, "--group-size", 2)
        assert code == 0
        records = packed(out)
        assert len(records) == lines[-1]["records"] == {"ITTS": 2, "INTLV": 1}[tag]
        _, sizes = read_atk1(rows[0]["atk1_path"])
        for stream, _ in records:
            wire = serialize(stream, cli.DEFAULT_SPECIAL, sizes)
            assert deserialize(wire, tag, cli.DEFAULT_SPECIAL, sizes) == stream

    def test_stats_sidecar(self, capsys, tmp_path, packable):
        manifest, _ = packable
        out = tmp_path / "records.jsonl"
        code, lines, _ = run(capsys, "pack", manifest, out, "--group-size", 3)
        assert code == 0
        stats = json.loads((tmp_path / "records.jsonl.stats.json").read_text())
        assert stats["records_per_format"] == {"ITTS": 1}
        assert stats["audio_hours"] == pytest.approx(4.5 / 3600)
        assert stats["audio_frames"] == 10
        assert lines[-1]["audio_frames"] == 10

    def test_empty_manifest_zero_stats(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("")
        out = tmp_path / "records.jsonl"
        code, lines, _ = run(capsys, "pack", manifest, out)
        assert code == 0
        assert lines[-1]["records"] == 0
        assert out.read_text() == ""
        stats = json.loads((tmp_path / "records.jsonl.stats.json").read_text())
        assert stats["audio_hours"] == 0.0
        assert stats["records_per_format"] == {}

    def test_malformed_line_reports_number(self, capsys, tmp_path, packable):
        manifest, _ = packable
        manifest.write_text(manifest.read_text() + "{broken\n")
        code, _, err = run(capsys, "pack", manifest, tmp_path / "r.jsonl")
        assert code == 4
        assert "line 4" in err

    def test_bad_frame_range(self, capsys, tmp_path, packable):
        manifest, rows = packable
        rows[0]["frame_range"] = [0, 99]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, _, err = run(capsys, "pack", manifest, tmp_path / "r.jsonl")
        assert code == 4
        assert "line 1" in err

    def test_bad_duration(self, capsys, tmp_path, packable):
        manifest, rows = packable
        rows[1]["duration_s"] = 0.0
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        code, _, err = run(capsys, "pack", manifest, tmp_path / "r.jsonl")
        assert code == 4
        assert "line 2" in err

    def test_durations_past_float64(self, capsys, tmp_path, packable):
        # each duration is finite, but a group of four sums to inf, which
        # would be written as "audio_hours": Infinity, not JSON
        manifest, rows = packable
        rows = [dict(rows[0], duration_s=1e308) for _ in range(4)]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        argv = ["pack", manifest, tmp_path / "r.jsonl"]
        refused(capsys, argv, tmp_path, 4, "manifest lines 1-4: durations sum past")

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
    def test_manifest_rule(self, capsys, tmp_path, packable, field, value, message):
        manifest, rows = packable
        rows[1][field] = value
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        err = refused(capsys, ["pack", manifest, tmp_path / "r.jsonl"], tmp_path, 4, "")
        assert err == f"error: pack: manifest line 2: {message}\n"

    def test_manifest_rule_before_frame_checks(self, capsys, tmp_path, packable):
        # within one line the manifest's own rules come first; across
        # lines the first faulty line is reported
        manifest, rows = packable
        rows[1].update(frame_range=[5, 2], duration_s=0)
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        argv = ["pack", manifest, tmp_path / "r.jsonl"]
        refused(capsys, argv, tmp_path, 4, "manifest line 2: duration must be positive, got 0.0")
        rows[0]["frame_range"] = [5, 2]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        refused(capsys, argv, tmp_path, 4, "manifest line 1: frame range [5, 2) outside ATK1")

    @pytest.mark.parametrize("size", [0, -1])
    def test_group_size_below_one(self, capsys, tmp_path, size):
        # refused before the manifest is read: a missing one would exit 2
        out = tmp_path / "r.jsonl"
        code, lines, err = run(capsys, "pack", tmp_path / "none.jsonl", out, "--group-size", size)
        assert (code, lines, out.exists()) == (3, [], False)
        assert "group size" in err

    def test_intlv_group_of_one(self, capsys, tmp_path):
        # an INTLV record needs two pairs: refused before the manifest is read
        argv = ["pack", tmp_path / "none.jsonl", tmp_path / "r.jsonl", "--format-tag", "INTLV",
                "--group-size", 1]
        refused(capsys, argv, tmp_path, 3, "group size must be >= 2 for INTLV, got 1")

    @pytest.mark.parametrize("frame", [(0, 5), (8, 4)], ids=["past-layer-size", "end-of-audio"])
    def test_frame_no_record_may_hold(self, capsys, tmp_path, packable, frame):
        manifest, rows = packable
        frames = np.array([(i % 8, i % 4) for i in range(10)])
        frames[7] = frame  # inside row 3's range [6, 10)
        write_atk1(rows[0]["atk1_path"], frames, (8, 4))
        argv = ["pack", manifest, tmp_path / "r.jsonl"]
        err = refused(capsys, argv, tmp_path, 4, "manifest line 3: frame 7 of ")
        assert "index past its layer sizes (8, 4)" in err

    def test_bad_frame_outside_every_range(self, capsys, tmp_path, packable):
        manifest, rows = packable
        frames = np.array([(i % 8, i % 4) for i in range(11)])
        frames[10] = (8, 4)
        write_atk1(rows[0]["atk1_path"], frames, (8, 4))
        assert run(capsys, "pack", manifest, tmp_path / "r.jsonl")[0] == 0

    def test_layer_sizes_differ_between_files(self, capsys, tmp_path, packable):
        manifest, rows = packable
        other = tmp_path / "other.atk1"
        write_atk1(other, np.zeros((4, 3), dtype=np.int64), (8, 4, 4))
        rows[2]["atk1_path"] = str(other)
        rows[2]["frame_range"] = [0, 4]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        argv = ["pack", manifest, tmp_path / "r.jsonl"]
        message = f"manifest line 3: ATK1 {other} has layer sizes (8, 4, 4), not (8, 4)"
        refused(capsys, argv, tmp_path, 4, message)

    @pytest.mark.parametrize(
        "size, where",
        [(1, "manifest line 3: "), (2, "manifest lines 3-4: "), (4, "manifest lines 1-4: ")],
    )
    def test_record_error_names_manifest_lines(self, capsys, tmp_path, packable, size, where):
        manifest, rows = packable
        rows.append({**rows[0], "text": ""})
        rows[2], rows[3] = rows[3], rows[2]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        argv = ["pack", manifest, tmp_path / "r.jsonl", "--group-size", size]
        refused(capsys, argv, tmp_path, 4, where + "pair ")

    @pytest.mark.parametrize(
        "tag, size, n_rows, empty, message",
        [
            ("ITTS", 1, 3, 0, "manifest line 1: pair 0 must carry both text and frames"),
            ("ITTS", 2, 3, 1, "manifest lines 1-2: pair 1 must carry both text and frames"),
            ("INTLV", 3, 3, 1, "manifest lines 1-3: pair 1 supplies no text tokens"),
            ("INTLV", 2, 1, None, "manifest line 1: INTLV needs at least 2 pairs, got 1"),
        ],
        ids=["itts-pair-0", "itts-pair-1", "intlv-odd-pair", "intlv-one-row"],
    )
    def test_record_layout_refusal(
        self, capsys, tmp_path, packable, tag, size, n_rows, empty, message
    ):
        manifest, rows = packable
        rows = rows[:n_rows]
        if empty is not None:
            rows[empty]["text"] = ""
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        argv = ["pack", manifest, tmp_path / "r.jsonl", "--format-tag", tag, "--group-size", size]
        err = refused(capsys, argv, tmp_path, 4, "")
        assert err == f"error: pack: {message}\n"

    def test_intlv_even_pair_text_unused(self, capsys, tmp_path, packable):
        # INTLV takes only audio from pairs 0 and 2, so their text may be empty
        manifest, rows = packable
        rows[0]["text"] = rows[2]["text"] = ""
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "r.jsonl"
        code, lines, _ = run(capsys, "pack", manifest, out, "--format-tag", "INTLV")
        assert (code, lines[-1]["records"], lines[-1]["text_tokens"]) == (0, 1, len("two."))
        rec, = (json.loads(line) for line in out.read_text().splitlines())
        assert [s["kind"] for s in rec["segments"]] == ["audio", "text", "audio"]

    def test_byte_identical_runs(self, capsys, tmp_path, packable):
        manifest, _ = packable
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run(capsys, "pack", manifest, out, "--seed", 3)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_intlv_layout_ignores_seed(self, capsys, tmp_path):
        # seven rows in one record: audio from rows 0, 2, 4, 6, text from the rest
        atk1 = tmp_path / "clips.atk1"
        write_atk1(atk1, np.array([(i % 8, i % 4) for i in range(14)]), (8, 4))
        rows = [
            {"text": f"row {i}.", "atk1_path": str(atk1),
             "frame_range": [2 * i, 2 * i + 2], "duration_s": 0.5}
            for i in range(7)
        ]
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        outputs = {}
        for seed in (0, 7):
            out = tmp_path / f"seed{seed}.jsonl"
            argv = ["pack", manifest, out, "--format-tag", "INTLV", "--group-size", 7]
            assert run(capsys, *argv, "--seed", seed)[0] == 0
            stats = Path(str(out) + ".stats.json")
            outputs[seed] = out.read_bytes(), stats.read_bytes()
        assert outputs[0] == outputs[7]
        rec, = (json.loads(line) for line in outputs[0][0].decode().splitlines())
        refs = [s["frames_ref"] for s in rec["segments"] if s["kind"] == "audio"]
        assert refs == [
            {"path": str(atk1), "start": 2 * i, "end": 2 * i + 2} for i in (0, 2, 4, 6)
        ]


def block_rows(a, b):
    """Manifest rows over ATK1 files a (40 frames) and b (30 frames), keyed
    by the way they read blocks of a few frames. Row 3's text is not ASCII,
    so its text tokens, UTF-8 bytes, outnumber its characters."""
    def rows(*spans):
        return [
            {"text": "row 3 — é." if i == 3 else f"row {i}.", "atk1_path": str(path),
             "frame_range": [start, end], "duration_s": 0.1 * (end - start)}
            for i, (path, start, end) in enumerate(spans)
        ]

    return {
        "out-of-order": rows((a, 20, 23), (a, 2, 5), (a, 30, 38), (a, 0, 2), (a, 10, 14),
                             (a, 21, 22), (a, 5, 10)),
        "two-files": rows((a, 0, 3), (b, 0, 3), (a, 3, 6), (b, 3, 9), (a, 6, 8), (b, 9, 10)),
        "block-edges": rows(*((a, i, i + 3) for i in range(0, 39, 3))),
        "longer-than-held": rows((a, 0, 2), (a, 1, 17), (a, 17, 40), (b, 0, 30)),
        "intlv-fold": rows((a, 0, 4), (b, 4, 6), (a, 6, 9), (b, 9, 12), (a, 12, 15)),
    }


def reference_groups(pairs, tag, group_size):
    """pairs cut group_size at a time; for INTLV, a last pair on its own
    joins the group before it."""
    groups = [pairs[i : i + group_size] for i in range(0, len(pairs), group_size)]
    if tag == "INTLV" and len(groups) > 1 and len(groups[-1]) == 1:
        last = groups.pop()
        groups[-1] += last
    return groups


@pytest.mark.parametrize("tag", ["ITTS", "INTLV"])
def test_pack_groups_match_reference(tag):
    # each group is yielded once the pairs it waits for are read: its own
    # and, for INTLV, the two after it (or the end of the pairs)
    ahead = 2 if tag == "INTLV" else 0
    for n in range(13):
        for group_size in range(1, 8):
            read = []
            pairs = (read.append(i) or i for i in range(n))
            got = [(list(group), len(read)) for group in cli._pack_groups(pairs, tag, group_size)]
            groups = reference_groups(list(range(n)), tag, group_size)
            waits = [min(group[0] + group_size + ahead, n) for group in groups]
            assert got == list(zip(groups, waits)), (n, group_size)


@contextlib.contextmanager
def atk1_pipe(folder, data: bytes, name="tokens.pipe"):
    """A FIFO, folder/name, that a thread writes data into; its reader may
    close it before it takes all of data."""
    fifo = folder / name
    os.mkfifo(fifo)

    def write():
        with contextlib.suppress(BrokenPipeError):
            fifo.write_bytes(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    yield fifo
    writer.join(timeout=10)
    assert not writer.is_alive()


@pytest.fixture
def two_atk1(tmp_path):
    a, b = tmp_path / "a.atk1", tmp_path / "b.atk1"
    rng = np.random.Generator(np.random.PCG64(3))
    for path, n in ((a, 40), (b, 30)):
        write_atk1(path, rng.integers(0, (8, 4), size=(n, 2)), (8, 4))
    return a, b


class TestPackBlocks:
    """With blocks of a few frames, and few of them held, pack's records
    equal streams built from whole-file ATK1 slices, and its stats
    corpus_stats over those streams, however the manifest reads its
    files."""

    @pytest.mark.parametrize("block, held", [(1, 1), (4, 4), (4, 12), (16, 64)])
    @pytest.mark.parametrize("tag, group_size", [("ITTS", 2), ("INTLV", 2), ("INTLV", 3)])
    @pytest.mark.parametrize("case", list(block_rows("a", "b")))
    def test_records_equal_whole_file_streams(
        self, capsys, tmp_path, monkeypatch, two_atk1, block, held, tag, group_size, case
    ):
        monkeypatch.setattr(cli, "_ATK1_BLOCK", block)
        monkeypatch.setattr(cli, "_ATK1_HELD", held)
        rows = block_rows(*two_atk1)[case]
        manifest, out = tmp_path / "manifest.jsonl", tmp_path / "records.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        argv = ["pack", manifest, out, "--format-tag", tag, "--group-size", group_size]
        assert run(capsys, *argv)[0] == 0

        whole = {str(p): read_atk1(p)[0] for p in two_atk1}
        pairs = [(r["text"], whole[r["atk1_path"]][slice(*r["frame_range"])]) for r in rows]
        build = build_itts if tag == "ITTS" else build_intlv
        streams = [build(g) for g in reference_groups(pairs, tag, group_size)]
        assert [stream for stream, _ in packed(out)] == streams
        durations = [
            sum(r["duration_s"] for r in group) for group in reference_groups(rows, tag, group_size)
        ]
        stats = json.loads(Path(f"{out}.stats.json").read_text())
        assert stats == corpus_stats(list(zip(streams, durations))).to_dict()

    @pytest.mark.parametrize(
        "bad, pipe",
        [
            pytest.param(bad, pipe, id=f"pipe-{bad}" if pipe else str(bad))
            for pipe in (False, True) for bad in (0, 9, 16, 21, 33)
        ],
    )
    def test_bad_frame_named_as_with_whole_files(
        self, capsys, tmp_path, monkeypatch, two_atk1, bad, pipe
    ):
        # a pipe's frames are one block, checked when it is read
        monkeypatch.setattr(cli, "_ATK1_BLOCK", 4)
        monkeypatch.setattr(cli, "_ATK1_HELD", 8)
        a, _ = two_atk1
        frames = read_atk1(a)[0].copy()
        frames[bad] = (8, 4)  # an end-of-audio frame
        write_atk1(a, frames, (8, 4))
        outs = tmp_path / "out"
        outs.mkdir()
        source = atk1_pipe(tmp_path, a.read_bytes()) if pipe else contextlib.nullcontext(a)
        with source as path:
            rows = block_rows(path, two_atk1[1])["out-of-order"]
            lines = [
                i for i, r in enumerate(rows, start=1)
                if r["frame_range"][0] <= bad < r["frame_range"][1]
            ]
            manifest = outs / "manifest.jsonl"
            manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
            argv = ["pack", manifest, outs / "records.jsonl"]
            if not lines:  # a frame outside every range is no record's
                assert run(capsys, *argv)[0] == 0
                return
            message = f"manifest line {lines[0]}: frame {bad} of {path} holds"
            refused(capsys, argv, outs, 4, message)

    @pytest.mark.parametrize("pipe", [False, True], ids=["file", "pipe"])
    @pytest.mark.parametrize("start, end", [(-3, 2), (38, 41), (40, 41), (99, 100), (5, 5)])
    def test_range_outside_file_refused_by_the_range_check(
        self, capsys, tmp_path, monkeypatch, two_atk1, pipe, start, end
    ):
        # the block a row reads first starts inside the file, so a range
        # below 0 or past the end reaches the range check
        monkeypatch.setattr(cli, "_ATK1_BLOCK", 4)
        a, _ = two_atk1
        outs = tmp_path / "out"
        outs.mkdir()
        source = atk1_pipe(tmp_path, a.read_bytes()) if pipe else contextlib.nullcontext(a)
        with source as path:
            row = {"text": "row.", "atk1_path": str(path), "frame_range": [start, end],
                   "duration_s": 0.2}
            manifest = outs / "manifest.jsonl"
            manifest.write_text(json.dumps(row) + "\n")
            message = f"manifest line 1: frame range [{start}, {end}) outside ATK1 of 40"
            refused(capsys, ["pack", manifest, outs / "records.jsonl"], outs, 4, message)

    @pytest.mark.parametrize("held, reads", [(12, 3), (8, 9)])
    def test_blocks_read_again_only_once_dropped(
        self, capsys, tmp_path, monkeypatch, two_atk1, held, reads
    ):
        # rows over blocks 0, 1 and 2 of a, three times round: with three
        # blocks held each is read once; with two held, every row reads one.
        # Each open reads a block with the header; none reads the header only
        monkeypatch.setattr(cli, "_ATK1_BLOCK", 4)
        monkeypatch.setattr(cli, "_ATK1_HELD", held)
        opened, open_atk1 = [], cli.ff.open_atk1
        monkeypatch.setattr(cli.ff, "open_atk1", lambda path: opened.append(path) or open_atk1(path))
        a, _ = two_atk1
        rows = [
            {"text": f"row {i}.", "atk1_path": str(a), "frame_range": [i % 3 * 4, i % 3 * 4 + 2],
             "duration_s": 0.2}
            for i in range(9)
        ]
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(capsys, "pack", manifest, tmp_path / "records.jsonl")[0] == 0
        assert len(opened) == reads

    @pytest.mark.parametrize("case", ["out-of-order", "two-files", "longer-than-held"])
    def test_atk1_from_a_pipe(self, capsys, tmp_path, monkeypatch, two_atk1, case):
        # a pipe is read whole when first opened, so rows may go back to it
        # or leave it and come back
        monkeypatch.setattr(cli, "_ATK1_BLOCK", 4)
        monkeypatch.setattr(cli, "_ATK1_HELD", 4)
        a, b = two_atk1
        outs = tmp_path / "out"
        outs.mkdir()
        records = []
        with atk1_pipe(tmp_path, a.read_bytes()) as fifo:
            for path in (fifo, a):
                manifest, out = outs / "manifest.jsonl", outs / f"{path.stem}.jsonl"
                rows = block_rows(path, b)[case]
                manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
                assert run(capsys, "pack", manifest, out)[0] == 0
                records.append(out.read_text().replace(str(path), "a"))
        assert records[0] == records[1]
        stats = [(outs / f"{p}.jsonl.stats.json").read_bytes() for p in ("tokens", "a")]
        assert stats[0] == stats[1]

    def test_headers_read_again_only_once_dropped(self, capsys, tmp_path, monkeypatch):
        # two blocks held; rows cycle over three one-block files and a pipe
        monkeypatch.setattr(cli, "_ATK1_BLOCK", 4)
        monkeypatch.setattr(cli, "_ATK1_HELD", 8)
        opened, open_atk1 = [], cli.ff.open_atk1
        monkeypatch.setattr(cli.ff, "open_atk1", lambda path: opened.append(path) or open_atk1(path))
        files = [tmp_path / f"{name}.atk1" for name in "abc"]
        for path in files:
            write_atk1(path, np.zeros((3, 2), dtype=np.int64), (8, 4))
        with atk1_pipe(tmp_path, files[0].read_bytes()) as fifo:
            paths = [*files, fifo] * 3
            rows = [
                {"text": f"row {i}.", "atk1_path": str(path), "frame_range": [0, 2],
                 "duration_s": 0.2}
                for i, path in enumerate(paths)
            ]
            manifest = tmp_path / "manifest.jsonl"
            manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
            assert run(capsys, "pack", manifest, tmp_path / "records.jsonl")[0] == 0
        # each visit to a file finds its block dropped; a one-block file is
        # read whole with its header, in one open; the pipe is opened once
        # and held
        assert opened.count(str(fifo)) == 1
        assert [opened.count(str(path)) for path in files] == [3, 3, 3]

    def test_pipe_read_before_its_layer_sizes_are_compared(self, capsys, tmp_path, two_atk1):
        # a pipe is read whole when opened, so its truncation is found
        # before its layer sizes (16, 4) are compared with the first (8, 4)
        a, b = two_atk1
        frames = read_atk1(a)[0]
        write_atk1(a, frames, (16, 4))
        outs = tmp_path / "out"
        outs.mkdir()
        manifest = outs / "manifest.jsonl"
        with atk1_pipe(tmp_path, a.read_bytes()[:-1]) as fifo:
            rows = block_rows(b, fifo)["two-files"]
            manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
            refused(capsys, ["pack", manifest, outs / "records.jsonl"], outs, 4, "truncated")

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda d: d[:-1], "truncated"), (lambda d: d + b"\x00", "trailing bytes")],
    )
    def test_pipe_size_checked(self, capsys, tmp_path, monkeypatch, two_atk1, edit, message):
        # the damage lies past the one block the manifest reads
        monkeypatch.setattr(cli, "_ATK1_BLOCK", 4)
        outs = tmp_path / "out"
        outs.mkdir()
        manifest = outs / "manifest.jsonl"
        with atk1_pipe(tmp_path, edit(two_atk1[0].read_bytes())) as fifo:
            rows = block_rows(fifo, two_atk1[1])["two-files"]
            manifest.write_text("".join(json.dumps(r) + "\n" for r in rows[:2]))
            refused(capsys, ["pack", manifest, outs / "records.jsonl"], outs, 4, message)


# Every (command, output) pair the CLI writes.
COMMAND_OUTPUTS = [
    ("mel", "afv1"),
    ("train-rvq", "rvq1"),
    ("train-rvq", "report"),
    ("encode", "atk1"),
    ("decode", "afv1"),
    ("pack", "records"),
    ("pack", "stats"),
]


@pytest.fixture
def commands(tmp_path, trained, wav_1s, packable):
    """{command: (argv, {output: path})}, every output in tmp_path / "out"."""
    feats, books, _ = trained
    tokens = tmp_path / "tokens.atk1"
    write_atk1(tokens, np.arange(10).reshape(5, 2) % 8, (8, 8))
    out = tmp_path / "out"
    out.mkdir()
    rvq1, report, records, stats = (
        out / n for n in ("b.rvq1", "b.report.jsonl", "r.jsonl", "r.stats.json")
    )
    return {
        "mel": (["mel", wav_1s, out / "o.afv1"], {"afv1": out / "o.afv1"}),
        "train-rvq": (
            ["train-rvq", tmp_path / "corpus.txt", rvq1, "--config", tmp_path / "cfg.json",
             "--report", report],
            {"rvq1": rvq1, "report": report},
        ),
        "encode": (["encode", feats, books, out / "x.atk1"], {"atk1": out / "x.atk1"}),
        "decode": (["decode", tokens, books, out / "r.afv1", "--unstack", 2],
                   {"afv1": out / "r.afv1"}),
        "pack": (["pack", packable[0], records, "--stats", stats],
                 {"records": records, "stats": stats}),
    }


# An output of each command named by each path the command reads.
OUTPUT_INPUTS = [
    ("mel", "afv1", "in.wav"),
    ("train-rvq", "rvq1", "corpus.txt"),
    ("train-rvq", "report", "feats.afv1"),
    ("encode", "atk1", "feats.afv1"),
    ("encode", "atk1", "books.rvq1"),
    ("decode", "afv1", "tokens.atk1"),
    ("decode", "afv1", "books.rvq1"),
    ("pack", "records", "clips.atk1"),
    ("pack", "stats", "manifest.jsonl"),
]


class TestOutputs:
    """A command commits all of its outputs or none of them."""

    @pytest.mark.parametrize("command", sorted({c for c, _ in COMMAND_OUTPUTS}))
    def test_good_run_writes_every_output(self, capsys, commands, command):
        argv, outputs = commands[command]
        assert run(capsys, *argv)[0] == 0
        folder = next(iter(outputs.values())).parent
        assert sorted(snapshot(folder)) == sorted(p.name for p in outputs.values())

    @pytest.mark.parametrize("command, output", COMMAND_OUTPUTS)
    def test_output_that_is_a_directory(self, capsys, commands, command, output):
        argv, outputs = commands[command]
        target = outputs[output]
        target.mkdir()
        for path in outputs.values():
            if path != target:
                path.write_bytes(b"an older output")
        refused(capsys, argv, target.parent, 2, f"Is a directory: '{target}'")

    @pytest.mark.parametrize("command, output", COMMAND_OUTPUTS)
    def test_first_replace_fails(self, capsys, monkeypatch, commands, command, output):
        argv, outputs = commands[command]
        outputs[output].write_bytes(b"an older output")
        replace, calls = os.replace, []

        def replace_once_failing(src, dst):
            calls.append(dst)
            if len(calls) == 1:
                raise OSError(errno.EIO, "injected failure")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_once_failing)
        refused(capsys, argv, outputs[output].parent, 2, "injected failure")
        assert len(calls) == 1

    @pytest.mark.parametrize("command, output", COMMAND_OUTPUTS)
    def test_longest_output_name(self, capsys, commands, command, output):
        # an output gets one temporary, <name>.<pid>.tmp, so the longest
        # name that leaves room for that suffix is written
        argv, outputs = commands[command]
        target = outputs[output]
        room = os.pathconf(target.parent, "PC_NAME_MAX") - len(f".{os.getpid()}.tmp")
        longest = target.with_name("o" * (room - len(target.suffix)) + target.suffix)
        argv = [longest if a == target else a for a in argv]
        assert run(capsys, *argv)[0] == 0
        names = {p.name for p in outputs.values()} - {target.name} | {longest.name}
        assert set(snapshot(target.parent)) == names

    @pytest.mark.parametrize("command", ["train-rvq", "pack"])
    def test_one_path_for_two_outputs(self, capsys, commands, command):
        argv, outputs = commands[command]
        first, second = outputs.values()
        argv = list(argv)
        # the second output's option names the first output, spelled otherwise
        argv[argv.index(second)] = first.parent / ".." / first.parent.name / first.name
        refused(capsys, argv, first.parent, 3, "given twice")

    @pytest.mark.parametrize("alias", ["path", "symlink", "hardlink"])
    @pytest.mark.parametrize("command, output, name", OUTPUT_INPUTS)
    def test_output_that_is_an_input(self, capsys, tmp_path, commands, command, output, name,
                                     alias):
        argv, outputs = commands[command]
        source = tmp_path / name
        link = tmp_path / "alias"
        if alias == "path":
            link = tmp_path / "out" / ".." / name
        elif alias == "symlink":
            link.symlink_to(source)
        else:
            os.link(source, link)
        argv = [link if a == outputs[output] else a for a in argv]
        refused(capsys, argv, tmp_path, 3, "is also an input")

    def test_missing_folder_names_the_output(self, capsys, commands):
        argv, outputs = commands["encode"]
        out = outputs["atk1"].parent / "nodir" / "x.atk1"
        err = refused(capsys, argv[:-1] + [out], out.parent.parent, 2, "")
        assert err == f"error: encode: [Errno 2] No such file or directory: '{out}'\n"


class TestEval:
    def write_records(self, tmp_path, records):
        path = tmp_path / "eval.jsonl"
        write_eval_records(path, records)
        return path

    def test_perfect_scorer_full_marks(self, capsys, tmp_path):
        path = self.write_records(tmp_path, make_oracle_eval_records(20, seed=0))
        code, lines, _ = run(capsys, "eval", path)
        assert code == 0
        assert lines[-1] == {"accuracy": 1.0, "n": 20, "seed": 0}

    def test_jsonl_format_streams_per_record(self, capsys, tmp_path):
        path = self.write_records(tmp_path, make_oracle_eval_records(3, seed=1))
        code, lines, _ = run(capsys, "eval", path, "--format", "jsonl")
        assert code == 0
        assert [l["record"] for l in lines[:-1]] == [0, 1, 2]
        assert all(l["correct"] for l in lines[:-1])
        assert lines[-1]["accuracy"] == 1.0

    def test_random_scorer_chance_level(self, capsys, tmp_path):
        path = self.write_records(
            tmp_path, make_random_eval_records(2000, seed=2)
        )
        code, lines, _ = run(capsys, "eval", path, "--scorer", "random", "--seed", 5)
        assert code == 0
        # binomial 3 sigma around 1/2 for n=2000 is about 0.034
        assert abs(lines[-1]["accuracy"] - 0.5) < 0.05

    def test_bigram_scorer_learns_structure(self, capsys, tmp_path):
        corpus, records = make_bigram_world(seed=3)
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text("".join(json.dumps(seq) + "\n" for seq in corpus))
        path = self.write_records(tmp_path, records)
        code, lines, _ = run(
            capsys, "eval", path,
            "--scorer", "bigram", "--bigram-corpus", corpus_path, "--vocab-size", 16,
        )
        assert code == 0
        assert lines[-1]["accuracy"] > 0.9

    def test_bigram_requires_corpus(self, capsys, tmp_path):
        path = self.write_records(tmp_path, make_oracle_eval_records(2, seed=4))
        code, _, _ = run(capsys, "eval", path, "--scorer", "bigram")
        assert code == 3

    def test_bigram_corpus_read_before_the_records(self, capsys, tmp_path):
        path = tmp_path / "eval.jsonl"
        path.write_text("{bad\n")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("[1, 2]\n{bad\n")
        argv = ["eval", path, "--scorer", "bigram", "--bigram-corpus", corpus, "--vocab-size", 16]
        code, lines, err = run(capsys, *argv)
        assert (code, lines) == (4, [])
        assert err.startswith("error: eval: token list line 2: ")

    def test_external_plugin(self, capsys, tmp_path, monkeypatch):
        path = self.write_records(tmp_path, make_oracle_eval_records(5, seed=5))
        # the plugin process inherits this environment
        monkeypatch.setenv("PYTHONPATH", checkout_pythonpath())
        plugin = f"{sys.executable} -m rvqtok.cli scorer-plugin --name perfect"
        code, lines, _ = run(capsys, "eval", path, "--plugin", plugin)
        assert code == 0
        assert lines[-1]["accuracy"] == 1.0

    def test_protocol_violation_exit_code(self, capsys, tmp_path):
        path = self.write_records(tmp_path, make_oracle_eval_records(2, seed=6))
        answers = [
            "not json",
            "[2.5, 1]",
            # each answer field as a value of another type; a fraction is an nll
            *(
                json.dumps({"nll": 2.5, "tokens": 1, field: wrong})
                for field in ("nll", "tokens")
                for wrong in ("1", 1.5, True, None, [])
                if (field, wrong) != ("nll", 1.5)
            ),
            json.dumps({"nll": 2.5, "tokens": 2**63}),
        ]
        prog = tmp_path / "bad_plugin.py"
        for answer in answers:
            prog.write_text(
                "import sys\n"
                "for line in sys.stdin:\n"
                f"    print({answer!r}, flush=True)\n"
            )
            code, lines, err = run(
                capsys, "eval", path, "--plugin", f"{sys.executable} {prog}"
            )
            assert (code, lines) == (5, []), answer
            assert err.startswith("error: eval: ") and err.count("\n") == 1, (answer, err)

    def test_plugin_that_will_not_exit(self, capsys, tmp_path, monkeypatch):
        path = self.write_records(tmp_path, make_oracle_eval_records(3, seed=7))
        monkeypatch.setenv("PYTHONPATH", checkout_pythonpath())
        plugin = f"{sys.executable} -m rvqtok.cli scorer-plugin --name perfect"
        real_wait = subprocess.Popen.wait
        timeouts = []

        def wait(proc, timeout=None):
            # the plugin outlives close()'s grace period
            timeouts.append(timeout)
            if len(timeouts) == 1:
                raise subprocess.TimeoutExpired(proc.args, timeout)
            return real_wait(proc, timeout)

        monkeypatch.setattr(subprocess.Popen, "wait", wait)
        code, _, err = run(capsys, "eval", path, "--plugin", plugin)
        assert code == 5
        assert "killed" in err
        assert timeouts == [10, None]

    def bigram_world(self, tmp_path, n_records):
        corpus, records = make_bigram_world(n_records=n_records, seed=9)
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text("".join(json.dumps(seq) + "\n" for seq in corpus))
        return self.write_records(tmp_path, records), corpus_path

    @pytest.mark.parametrize("fmt", ["json", "jsonl"])
    def test_plugin_output_equals_in_process(self, capsys, tmp_path, monkeypatch, fmt):
        # 1,500 records are about 140 KB of requests: several windows
        path, corpus = self.bigram_world(tmp_path, 1500)
        monkeypatch.setenv("PYTHONPATH", checkout_pythonpath())
        bigram = ["--bigram-corpus", corpus, "--vocab-size", 16]
        plugin = (
            f"{sys.executable} -m rvqtok.cli scorer-plugin --name bigram "
            f"--bigram-corpus {corpus} --vocab-size 16"
        )
        outputs = []
        for scorer in (["--scorer", "bigram", *bigram], ["--plugin", plugin]):
            assert main([str(a) for a in ["eval", path, *scorer, "--format", fmt]]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def boom_plugin(self, tmp_path, at: int) -> Path:
        """A plugin script that answers an error to request number `at`."""
        prog = tmp_path / "boom.py"
        prog.write_text(
            "import json, sys\n"
            "for n, line in enumerate(sys.stdin, 1):\n"
            "    c = json.loads(line)['candidate']\n"
            "    out = {'nll': 1.0 * len(c), 'tokens': len(c)}\n"
            f"    print(json.dumps({{'error': 'boom'}} if n == {at} else out), flush=True)\n"
        )
        return prog

    def test_plugin_error_mid_run(self, capsys, tmp_path):
        # request 201 is record 100's first candidate
        path, _ = self.bigram_world(tmp_path, 300)
        plugin = f"{sys.executable} {self.boom_plugin(tmp_path, 201)}"
        argv = ["eval", path, "--plugin", plugin, "--format", "jsonl"]
        code, lines, err = run(capsys, *argv)
        assert code == 5
        assert err == "error: eval: plugin error: boom\n"
        assert [l["record"] for l in lines] == list(range(100))

    def test_plugin_that_never_answers(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(scorers, "RESPONSE_DEADLINE_S", 0.2)
        path = self.write_records(tmp_path, make_oracle_eval_records(3, seed=8))
        prog = tmp_path / "mute.py"
        prog.write_text("import sys\nfor line in sys.stdin:\n    pass\n")
        t0 = time.monotonic()
        code, lines, err = run(capsys, "eval", path, "--plugin", f"{sys.executable} {prog}")
        assert (code, lines) == (5, [])
        assert "no answer within 0.2 s" in err
        assert time.monotonic() - t0 < 10  # includes the plugin's start-up

    def test_plugin_that_never_reads_a_long_record(self, capsys, tmp_path, monkeypatch):
        # a 20,000-id prefix makes each request larger than the pipe buffer
        monkeypatch.setattr(scorers, "RESPONSE_DEADLINE_S", 0.2)
        path = tmp_path / "eval.jsonl"
        record = {"prefix": list(range(20_000)), "candidates": [[1], [2]], "positive": 0}
        path.write_text(json.dumps(record) + "\n")
        prog = tmp_path / "deaf.py"
        prog.write_text("import time\ntime.sleep(10)\n")
        t0 = time.monotonic()
        code, lines, err = run(capsys, "eval", path, "--plugin", f"{sys.executable} {prog}")
        assert (code, lines) == (5, [])
        assert err.startswith("error: eval: ") and err.count("\n") == 1
        assert "no answer within 0.2 s" in err
        assert time.monotonic() - t0 < 5

    @pytest.mark.parametrize(
        "prefix, candidates", [([1], [[99], [2]]), ([1], [[2], [3, 4]]), ([-1], [[1], [2]])]
    )
    def test_bigram_refuses_ids_outside_vocab(self, capsys, tmp_path, prefix, candidates):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("[0, 1, 2]\n[1, 2, 3]\n")
        path = tmp_path / "eval.jsonl"
        path.write_text(json.dumps({"prefix": prefix, "candidates": candidates, "positive": 0}) + "\n")
        argv = ["eval", path, "--scorer", "bigram", "--bigram-corpus", corpus, "--vocab-size", 4]
        code, lines, err = run(capsys, *argv)
        assert (code, lines) == (4, [])
        assert err.startswith("error: eval: record 0: token ") and "outside vocab [0, 4)" in err

    @pytest.mark.parametrize("boom", [False, True])
    def test_plugin_under_dev_mode(self, tmp_path, boom):
        # pytest's ResourceWarning filter does not reach child processes:
        # this covers the closing of the pipes and the reaping of the plugin,
        # after a clean run and after a plugin error mid-window
        path, corpus = self.bigram_world(tmp_path, 200)
        dev = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning"]
        if boom:
            plugin = shlex.join([*dev, str(self.boom_plugin(tmp_path, 150))])
        else:
            plugin = shlex.join([
                *dev, "-m", "rvqtok.cli", "scorer-plugin", "--name", "bigram",
                "--bigram-corpus", str(corpus), "--vocab-size", "16",
            ])
        proc = subprocess.run(
            [*dev, "-m", "rvqtok.cli", "eval", str(path), "--plugin", plugin],
            capture_output=True,
            text=True,
            timeout=120,
            env=checkout_env(),
        )
        if boom:
            assert (proc.returncode, proc.stderr) == (5, "error: eval: plugin error: boom\n")
        else:
            assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("records, code", [(None, 2), ("{bad\n", 4)])
    def test_plugin_reaped_when_records_fail(self, capsys, tmp_path, monkeypatch, records, code):
        started = []

        class Recorded(SubprocessScorer):
            def __init__(self, argv):
                super().__init__(argv)
                started.append(self)

        monkeypatch.setattr(cli, "SubprocessScorer", Recorded)
        path = tmp_path / "eval.jsonl"
        if records is not None:
            path.write_text(records)
        prog = f"{sys.executable} -c pass"
        assert run(capsys, "eval", path, "--plugin", prog)[0] == code
        assert len(started) == 1 and started[0]._proc.returncode is not None

    def test_missing_records_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "eval", tmp_path / "ghost.jsonl")
        assert code == 2

    def test_empty_records_file(self, capsys, tmp_path):
        path = tmp_path / "eval.jsonl"
        path.write_text("")
        code, _, _ = run(capsys, "eval", path)
        assert code == 4


class TestScorerPluginCommand:
    def test_serves_protocol_over_stdio(self):
        req = json.dumps({"prefix": [], "candidate": [2, 3]}) + "\n"
        proc = subprocess.run(
            [sys.executable, "-m", "rvqtok.cli", "scorer-plugin", "--name", "perfect"],
            input=req,
            capture_output=True,
            text=True,
            timeout=60,
            env=checkout_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout.splitlines()[0]) == {"nll": 5.0, "tokens": 2}

    def test_batched_answers_over_a_pipe(self):
        # 1,000 requests in one pipe, a blank line and a malformed one among them
        reqs = [json.dumps({"prefix": [i], "candidate": [i % 9 + 1, 2]}) for i in range(1000)]
        reqs[300] = ""
        reqs[600] = "{bad"
        proc = subprocess.run(
            [sys.executable, "-m", "rvqtok.cli", "scorer-plugin", "--name", "perfect"],
            input="".join(r + "\n" for r in reqs),
            capture_output=True,
            text=True,
            timeout=60,
            env=checkout_env(),
        )
        assert proc.returncode == 1
        answers = [json.loads(line) for line in proc.stdout.splitlines()]
        want = []
        for i, req in enumerate(reqs):
            if i == 600:
                want.append("error")
            elif req:
                want.append({"nll": float(i % 9 + 3), "tokens": 2})
        assert len(answers) == 999
        assert ["error" if "error" in a else a for a in answers] == want

    def test_bigram_answers_ids_outside_vocab_with_errors(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("[0, 1, 2]\n[1, 2, 3]\n")
        reqs = [
            {"prefix": [1], "candidate": [99]},
            {"prefix": [-5], "candidate": [1]},
            {"prefix": [1], "candidate": [2]},
            {"prefix": [2, -1], "candidate": [3]},
        ]
        proc = subprocess.run(
            [
                sys.executable, "-m", "rvqtok.cli", "scorer-plugin", "--name", "bigram",
                "--bigram-corpus", str(corpus), "--vocab-size", "4",
            ],
            input="".join(json.dumps(r) + "\n" for r in reqs),
            capture_output=True,
            text=True,
            timeout=60,
            env=checkout_env(),
        )
        assert proc.returncode == 1
        answers = [json.loads(line) for line in proc.stdout.splitlines()]
        assert ["error" in a for a in answers] == [True, True, False, True]
        assert "outside vocab [0, 4)" in answers[0]["error"]

    def test_installed_entry_point(self, tmp_path):
        # the console script wires to the same main
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        with open(REPO / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["rvqtok"]
        module, _, func = target.partition(":")
        assert getattr(importlib.import_module(module), func) is main

        script = tmp_path / "rvqtok"
        script.write_text(CONSOLE_SCRIPT.format(module=module, func=func))
        proc = subprocess.run(
            [sys.executable, str(script), "mel", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
            env=checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: rvqtok mel")
        assert "--raw-rate" in proc.stdout


HUGE = 10**400  # fits neither an int64 nor a float64


def _oversize(doc):
    """A config document holding one number too large to use."""
    (key, value), = doc.items()
    if isinstance(value, dict):
        name = key + "." + "-".join(value)
    else:
        name = key if value is HUGE or value == [HUGE] else f"{key}={value}"
    return pytest.param(json.dumps(doc), id=name + "-too-large")


# every MelConfig field, at a size nothing can hold, and n_mels at one the
# u32 dim of AFV1 cannot
MEL_OVERSIZE = [
    *(_oversize({f.name: HUGE}) for f in fields(MelConfig)),
    _oversize({"n_mels": 2**40}),
]

# every number field of the train-rvq config, top level and nested, and
# layer sizes the u32 of RVQ1 cannot hold
TRAIN_OVERSIZE = [
    *(
        _oversize({key: [HUGE] if want == "list of int" else HUGE})
        for key, want in cli._TRAIN_KEYS.items()
        if want in ("int", "float", "list of int")
    ),
    *(
        _oversize({key: {f.name: HUGE}})
        for key, cls in (
            ("schedule", TrainingSchedule),
            ("gumbel", GumbelConfig),
            ("dropout", DropoutConfig),
        )
        for f in fields(cls)
        if f.type in ("int", "float")
    ),
    _oversize({"gumbel": {"enabled": True, "temperature": HUGE}}),
    _oversize({"layer_sizes": [2**62]}),
    _oversize({"layer_sizes": [8, 2**32]}),
]


class TestHostileDocuments:
    """A bad config document exits 3 and a bad data line exits 4 naming
    the line; either way with one error line, no traceback and no output."""

    def refused(self, capsys, argv, outputs, code):
        got, lines, err = run(capsys, *argv)
        assert (got, lines) == (code, [])
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(Path(p).exists() for p in outputs)
        return err

    @pytest.mark.parametrize(
        "doc",
        [
            '{"stack_factor": 2.5}',
            '{"hop": 160.5}',
            '{"stack_factor": "8"}',
            '{"n_mels": true}',
            '{"center": "no"}',
            '{"log_floor": NaN}',
            "{bad",
            pytest.param("[" * 100_000, id="nested-too-deep"),
            *MEL_OVERSIZE,
        ],
    )
    def test_mel_config(self, capsys, tmp_path, wav_1s, doc):
        cfg = tmp_path / "mel.json"
        cfg.write_text(doc)
        out = tmp_path / "o.afv1"
        self.refused(capsys, ["mel", wav_1s, out, "--config", cfg], [out], 3)

    @pytest.mark.parametrize(
        "doc",
        [
            '{"layer_sizes": [8.5, 8]}',
            '{"layer_sizes": "ab"}',
            '{"epochs": "2"}',
            '{"dead_threshold": "8"}',
            '{"ema_decay": "0.9"}',
            '{"ema_decay": true}',
            '{"restart": "no"}',
            '{"schedule": {"total_steps": 2.5}}',
            '{"gumbel": {"enabled": 1}}',
            '{"gumbel": {"enabled": true, "seed": 2}}',
            '{"dropout": {"seed": 2}}',
            '{"dead_treshold": 8}',
            '{"dead_threshold": 0}',
            '{"dead_threshold": -2}',
            "[1, 2]",
            "{bad",
            pytest.param("[" * 100_000, id="nested-too-deep"),
            *TRAIN_OVERSIZE,
        ],
    )
    def test_train_config(self, capsys, tmp_path, feature_corpus, doc):
        manifest, _ = feature_corpus
        cfg = tmp_path / "cfg.json"
        cfg.write_text(doc)
        out = tmp_path / "books.rvq1"
        outputs = [out, tmp_path / "books.rvq1.report.jsonl"]
        self.refused(capsys, ["train-rvq", manifest, out, "--config", cfg], outputs, 3)

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("mel", {"stack_factor": 4}),
            ("train-rvq", {"epochs": 2}),
            ("train-rvq", {"init_method": "sample"}),
        ],
        ids=["mel-stack_factor", "train-rvq-epochs", "train-rvq-init_method"],
    )
    def test_flag_or_removed_setting_as_config_key(
        self, capsys, tmp_path, wav_1s, feature_corpus, command, doc
    ):
        # --stack and --epochs are the only sources of their settings, and
        # init always samples rows
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o.bin"
        source = wav_1s if command == "mel" else feature_corpus[0]
        outputs = [out, tmp_path / "o.bin.report.jsonl"]
        err = self.refused(capsys, [command, source, out, "--config", cfg], outputs, 3)
        assert f"unknown key {min(doc)!r}" in err

    def test_raw_rate_with_wav(self, capsys, tmp_path, wav_1s):
        out = tmp_path / "o.afv1"
        err = self.refused(capsys, ["mel", wav_1s, out, "--raw-rate", 8000], [out], 3)
        assert "--raw-rate" in err

    @pytest.mark.parametrize(
        "content", [b"# corpus\n\xff.afv1\n", b"a.afv1\nb\x00.afv1\n"], ids=["not-utf8", "nul"]
    )
    def test_train_manifest_line(self, capsys, tmp_path, content):
        manifest = tmp_path / "corpus.txt"
        manifest.write_bytes(content)
        out = tmp_path / "books.rvq1"
        outputs = [out, tmp_path / "books.rvq1.report.jsonl"]
        err = self.refused(capsys, ["train-rvq", manifest, out], outputs, 4)
        assert "manifest line 2" in err

    @pytest.mark.parametrize("layer_sizes, seed", [([20], 0), ([2], 1)])
    def test_train_features_with_nan(self, capsys, tmp_path, layer_sizes, seed):
        # [20] makes init pick the NaN row; at [2] and seed 1 it does not
        x = np.random.default_rng(0).standard_normal((20, 6))
        x[7, 3] = np.nan
        feats = tmp_path / "nan.afv1"
        write_afv1(feats, x, 12.5)
        manifest = tmp_path / "corpus.txt"
        manifest.write_text(f"{feats}\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"layer_sizes": layer_sizes}))
        out = tmp_path / "books.rvq1"
        outputs = [out, tmp_path / "books.rvq1.report.jsonl"]
        argv = ["train-rvq", manifest, out, "--config", cfg, "--seed", seed]
        err = self.refused(capsys, argv, outputs, 4)
        assert "NaN or inf" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("atk1_path", 0),
            ("atk1_path", True),
            ("frame_range", [0]),
            ("frame_range", [0, 2.0]),
            ("duration_s", "x"),
            ("duration_s", float("inf")),
            pytest.param("duration_s", 10**400, id="duration_s-beyond-float"),
            ("text", 5),
            pytest.param("text", "\ud800", id="text-lone-surrogate"),
            pytest.param("atk1_path", "clips\u0000.atk1", id="atk1_path-nul"),
        ],
    )
    def test_manifest_line(self, capsys, tmp_path, packable, field, value):
        manifest, rows = packable
        rows[1][field] = value
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "r.jsonl"
        err = self.refused(capsys, ["pack", manifest, out], [out], 4)
        assert "manifest line 2" in err

    @pytest.mark.parametrize(
        "record",
        [
            {"prefix": [1], "candidates": [[2], [3]], "positive": "x"},
            {"prefix": ["a"], "candidates": [[2], [3]], "positive": 0},
            {"prefix": [1], "candidates": [[2], [3]], "positive": 1.7},
            {"prefix": [1], "candidates": [[2.9], [3]], "positive": 0},
            {"prefix": [1], "candidates": [[2], [True]], "positive": 0},
            {"prefix": [1], "candidates": [[2]], "positive": 0},
        ],
    )
    def test_eval_record_line(self, capsys, tmp_path, record):
        path = tmp_path / "eval.jsonl"
        good = {"prefix": [1], "candidates": [[2], [3]], "positive": 0}
        path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        err = self.refused(capsys, ["eval", path], [], 4)
        assert "eval record line 2" in err

    def test_eval_line_nested_too_deep(self, capsys, tmp_path):
        path = tmp_path / "eval.jsonl"
        good = {"prefix": [1], "candidates": [[2], [3]], "positive": 0}
        path.write_text(json.dumps(good) + "\n" + "[" * 100_000 + "\n")
        err = self.refused(capsys, ["eval", path], [], 4)
        assert "eval record line 2" in err

    @pytest.mark.parametrize(
        "line", ["{bad", '["a", 1]', '{"x": 1}', "[1.5]", "[1, 2, 40]", "[3, -1]"]
    )
    def test_bigram_corpus_line(self, capsys, tmp_path, line):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("[1, 2]\n" + line + "\n")
        path = tmp_path / "eval.jsonl"
        write_eval_records(path, make_oracle_eval_records(2, seed=0))
        argv = ["eval", path, "--scorer", "bigram", "--bigram-corpus", corpus, "--vocab-size", 16]
        err = self.refused(capsys, argv, [], 4)
        assert "line 2" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "e.jsonl", "--scorer", "perfect", "--bigram-corpus", "ghost.jsonl",
             "--vocab-size", 16],
            ["eval", "e.jsonl", "--scorer", "random", "--vocab-size", 16],
            ["eval", "e.jsonl", "--plugin", "plugin", "--bigram-corpus", "ghost.jsonl"],
            ["scorer-plugin", "--name", "perfect", "--bigram-corpus", "ghost.jsonl"],
            ["scorer-plugin", "--name", "random", "--vocab-size", 16],
        ],
        ids=["eval-perfect", "eval-random", "eval-plugin", "plugin-perfect", "plugin-random"],
    )
    def test_bigram_options_without_bigram(self, capsys, tmp_path, monkeypatch, argv):
        # refused before any file is opened or plugin started
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "SubprocessScorer", None)
        err = self.refused(capsys, argv, [], 3)
        assert "--bigram-corpus and --vocab-size" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["decode", "ghost.atk1", "ghost.rvq1", "r.afv1", "--unstack", 0],
             "unstack factor must be >= 1, got 0"),
            (["mel", "ghost.wav", "o.afv1", "--stack", 0], "stack_factor must be >= 1, got 0"),
            (["train-rvq", "ghost.txt", "o.rvq1", "--epochs", -1], "epochs must be >= 0"),
            *(
                (["decode", "ghost.atk1", "ghost.rvq1", "r.afv1", "--frame-rate", rate, *unstack],
                 f"--frame-rate {typed} x --unstack 8: "
                 f"AFV1 frame rate must be finite and positive, got {got}")
                # the rate the AFV1 would get: --frame-rate x --unstack (8 by default)
                for rate, unstack, typed, got in [
                    ("nan", [], "nan", "nan"),
                    (0, [], "0.0", "0.0"),
                    (-5, [], "-5.0", "-40.0"),
                    (1e308, ["--unstack", 8], "1e+308", "inf"),
                ]
            ),
        ],
        ids=["decode-unstack", "mel-stack", "train-rvq-epochs", "decode-rate-nan",
             "decode-rate-0", "decode-rate-negative", "decode-rate-x-unstack-past-float64"],
    )
    def test_option_value_checked_before_any_file(self, capsys, tmp_path, monkeypatch, argv,
                                                  message):
        # inputs that are not there would exit 2 if one were opened first
        monkeypatch.chdir(tmp_path)
        err = self.refused(capsys, argv, [], 3)
        assert err == f"error: {argv[0]}: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"mode": "bogus"}, "unknown EMA mode 'bogus'"),
            ({"dead_threshold": 0}, "dead_threshold must be >= 1, got 0"),
            ({"ema_decay": 2}, "ema_decay must be in [0, 1], got 2"),
            ({"norm_beta": 1}, "norm_beta must be in [0, 1), got 1"),
            ({"layer_sizes": []}, "stack needs at least one layer"),
            ({"layer_sizes": [1024, 0]}, "layer 1 size must be positive, got 0"),
            ({"layer_sizes": [1024, 2**32]},
             "layer 1 size 4294967296 does not fit the u32 RVQ1 stores"),
        ],
        ids=["mode", "dead-threshold", "ema-decay", "norm-beta", "no-layers", "layer-size-0",
             "layer-size-past-u32"],
    )
    def test_train_config_value_checked_before_any_file(self, capsys, tmp_path, monkeypatch,
                                                        config, message):
        # the library's own range checks, run before the manifest is opened
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps(config))
        argv = ["train-rvq", "ghost.txt", "o.rvq1", "--config", "cfg.json"]
        err = self.refused(capsys, argv, [], 3)
        assert err == f"error: train-rvq: {message}\n"
        assert os.listdir() == ["cfg.json"]

    @pytest.mark.parametrize("size", [2**63, 2**64], ids=["2**63", "2**64"])
    @pytest.mark.parametrize("tag", ["ITTS", "INTLV"])
    def test_group_size_has_no_upper_limit(self, capsys, tmp_path, packable, tag, size):
        # a group past every pair packs them all into one record
        argv = ["pack", packable[0], tmp_path / "r.jsonl", "--format-tag", tag]
        code, lines, _ = run(capsys, *argv, "--group-size", size)
        assert (code, lines[-1]["records"]) == (0, 1)

    @pytest.mark.parametrize("command", ["eval", "scorer-plugin"])
    def test_vocab_size_past_int64(self, capsys, tmp_path, monkeypatch, command):
        # add-one smoothing over such a vocabulary underflows every probability to 0
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("[1, 2]\n")
        bigram = ["--bigram-corpus", corpus, "--vocab-size", 10**400]
        if command == "eval":
            path = tmp_path / "eval.jsonl"
            write_eval_records(path, make_oracle_eval_records(2, seed=0))
            argv = ["eval", path, "--scorer", "bigram", *bigram]
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO('{"prefix": [1], "candidate": [2]}\n'))
            argv = ["scorer-plugin", "--name", "bigram", *bigram]
        err = self.refused(capsys, argv, [], 3)
        assert err.startswith(f"error: {command}: vocab size must be in [1, 2**63)")

    @pytest.mark.parametrize("command", ["eval", "scorer-plugin"])
    def test_vocab_size_checked_before_the_corpus_is_read(
        self, capsys, tmp_path, monkeypatch, command
    ):
        # a corpus that is not there would exit 2 if it were opened first
        bigram = ["--bigram-corpus", tmp_path / "ghost.jsonl", "--vocab-size", 2**63]
        if command == "eval":
            path = tmp_path / "eval.jsonl"
            write_eval_records(path, make_oracle_eval_records(2, seed=0))
            argv = ["eval", path, "--scorer", "bigram", *bigram]
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO('{"prefix": [1], "candidate": [2]}\n'))
            argv = ["scorer-plugin", "--name", "bigram", *bigram]
        err = self.refused(capsys, argv, [], 3)
        assert err.startswith(f"error: {command}: vocab size must be in [1, 2**63)")

    def test_plugin_command_unclosed_quote(self, capsys, tmp_path):
        path = tmp_path / "eval.jsonl"
        write_eval_records(path, make_oracle_eval_records(2, seed=0))
        err = self.refused(capsys, ["eval", path, "--plugin", 'python3 "x'], [], 3)
        assert "--plugin" in err

    def test_scorer_and_plugin_together(self, capsys, tmp_path):
        path = tmp_path / "eval.jsonl"
        write_eval_records(path, make_oracle_eval_records(2, seed=0))
        plugin = f"{sys.executable} -m rvqtok.cli scorer-plugin --name perfect"
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(path), "--scorer", "random", "--plugin", plugin])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--plugin: not allowed with argument --scorer" in captured.err


# A command given an option it does not take exits 2 with argparse's usage
# error; the positional paths are never opened.
UNTAKEN = [
    ["pack", "m.jsonl", "r.jsonl", "--special", "s.json"],
    *(
        [*argv, "--config", "c.json"]
        for argv in (
            ["encode", "f.afv1", "b.rvq1", "t.atk1"],
            ["decode", "t.atk1", "b.rvq1", "f.afv1"],
            ["pack", "m.jsonl", "r.jsonl"],
            ["eval", "e.jsonl"],
            ["scorer-plugin"],
        )
    ),
    *(
        [*argv, "--format", "json"]
        for argv in (
            ["mel", "in.wav", "f.afv1"],
            ["train-rvq", "corpus.txt", "b.rvq1"],
            ["encode", "f.afv1", "b.rvq1", "t.atk1"],
            ["decode", "t.atk1", "b.rvq1", "f.afv1"],
            ["pack", "m.jsonl", "r.jsonl"],
            ["scorer-plugin"],
        )
    ),
    # a prefix of a declared option is not that option
    ["pack", "m.jsonl", "r.jsonl", "--format-t", "ITTS"],
    ["pack", "m.jsonl", "r.jsonl", "--group", "2"],
    ["eval", "e.jsonl", "--scor", "random"],
]


@pytest.mark.parametrize("argv", UNTAKEN, ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_untaken_option_is_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: rvqtok" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["INTLV", "json"])
def test_prefix_of_an_option_is_unrecognized(capsys, tmp_path, monkeypatch, value):
    # --format is a prefix of pack's --format-tag, which it must not stand for
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["pack", "m.jsonl", "r.jsonl", "--format", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --format {value}" in capsys.readouterr().err


def test_every_option_is_read():
    """Each dest a subcommand sets is read as args.<dest> by the command's
    fn, by a cli function that fn passes args to, or by main."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    main_source = inspect.getsource(cli.main)
    unread = []
    for name, command in sub.choices.items():
        fn_source = inspect.getsource(command.get_default("fn"))
        callees = re.findall(r"(\w+)\([^()]*\bargs\)", fn_source)
        sources = [fn_source, main_source]
        sources += [inspect.getsource(getattr(cli, f)) for f in callees if hasattr(cli, f)]
        for action in command._actions:
            if action.dest == "help":
                continue
            if not any(re.search(rf"\bargs\.{action.dest}\b", src) for src in sources):
                unread.append(f"{name} {'/'.join(action.option_strings) or action.dest}")
    assert unread == []


def test_every_setting_has_one_source(capsys, tmp_path, monkeypatch):
    """No setting comes from both a flag and a config key: no train-rvq
    config key is the dest of a train-rvq flag, and a mel config takes
    exactly the MelConfig fields."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    keys = {}

    def load_json(path, types, what):
        keys[what] = set(types)
        return {}

    monkeypatch.setattr(cli, "_load_json", load_json)
    monkeypatch.chdir(tmp_path)
    main(["mel", "in.wav", "o.afv1", "--config", "mel.json"])
    main(["train-rvq", "corpus.txt", "b.rvq1", "--config", "train.json"])
    assert keys["mel config"] == {f.name for f in fields(MelConfig)}
    train_flags = {a.dest for a in sub.choices["train-rvq"]._actions}
    assert keys["train-rvq config"] & train_flags == set()
