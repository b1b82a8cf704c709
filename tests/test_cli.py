import importlib
import json
import os
import struct
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

from rvqtok import mel as mel_module
from rvqtok import rvq
from rvqtok.cli import main
from rvqtok.fileformats import (
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
from rvqtok.mel import AudioBuffer, compute_mel, stack_frames
from rvqtok.rvq import Codebook, RvqStack, decode_frames, encode_frames
from rvqtok.streams import eoa_frame
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
        before = sorted(tmp_path.iterdir())
        code, lines, err = run(capsys, "mel", raw, out, "--raw-rate", 16000)
        assert code == 4
        assert lines == []
        assert "non-finite" in err
        assert sorted(tmp_path.iterdir()) == before
        out.write_bytes(b"an older output")
        assert run(capsys, "mel", raw, out, "--raw-rate", 16000)[0] == 4
        assert out.read_bytes() == b"an older output"
        assert sorted(tmp_path.iterdir()) == sorted(before + [out])

    def test_config_overrides_stack_factor(self, capsys, tmp_path, wav_1s):
        cfg = tmp_path / "mel.json"
        cfg.write_text(json.dumps({"stack_factor": 4}))
        out = tmp_path / "out.afv1"
        code, lines, _ = run(capsys, "mel", wav_1s, out, "--config", cfg)
        assert code == 0
        assert lines[-1]["frames"] == 25
        assert read_afv1(out)[0].shape == (25, 320)

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

    def test_empty_feature_file(self, capsys, tmp_path, feature_corpus):
        manifest, paths = feature_corpus
        empty = tmp_path / "empty.afv1"
        write_afv1(empty, np.zeros((0, 6)), 12.5)
        manifest.write_text(f"{paths[0]}\n{empty}\n")
        report = tmp_path / "report.jsonl"
        code, lines, _ = run(
            capsys, "train-rvq", manifest, tmp_path / "o.rvq1", "--report", report
        )
        assert code == 4
        assert lines == []
        assert not report.exists() or "NaN" not in report.read_text()

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
        code, _, _ = run(
            capsys, "decode", tokens, books, tmp_path / "r.afv1", "--unstack", 1
        )
        assert code == 3

    def test_decode_keeps_partial_eoa_row(self, capsys, tmp_path, trained):
        # index K in one layer only is not end-of-audio: decode keeps the
        # row and rejects its out-of-codebook index
        _, books, _ = trained
        tokens = tmp_path / "x.atk1"
        write_atk1(tokens, [(0, 1), (8, 3)], (8, 8))
        code, _, err = run(
            capsys, "decode", tokens, books, tmp_path / "r.afv1", "--unstack", 1
        )
        assert code == 3
        assert "skipped" not in err

    def test_decode_layer_size_mismatch(self, capsys, tmp_path, trained):
        _, books, _ = trained
        tokens = tmp_path / "x.atk1"
        write_atk1(tokens, [(0, 0)], (4, 4))
        code, _, _ = run(
            capsys, "decode", tokens, books, tmp_path / "r.afv1", "--unstack", 1
        )
        assert code == 3


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
    """encode and decode stream rows in _ROW_CHUNK blocks; at 7 rows a
    block, the 40 fixture vectors span 6 blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(rvq, "_ROW_CHUNK", 7)

    def refused(self, capsys, argv, out, code, message):
        """argv fails with code, leaving no output, then leaves an older
        output as it was."""
        before = sorted(out.parent.iterdir())
        got, lines, err = run(capsys, *argv)
        assert (got, lines) == (code, [])
        assert message in err
        assert sorted(out.parent.iterdir()) == before
        out.write_bytes(b"an older output")
        assert run(capsys, *argv)[0] == code
        assert out.read_bytes() == b"an older output"
        assert sorted(out.parent.iterdir()) == sorted(before + [out])

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

    def test_nan_in_last_block(self, capsys, tmp_path, trained):
        feats, books, _ = trained
        x, _ = read_afv1(feats)
        x[38, 4] = np.nan
        bad = tmp_path / "bad.afv1"
        write_afv1(bad, x, 12.5)
        argv = ["encode", bad, books, tmp_path / "x.atk1"]
        self.refused(capsys, argv, tmp_path / "x.atk1", 4, "NaN or inf")

    @pytest.mark.parametrize("edit", [lambda d: d[:-3], lambda d: d + b"\x00"])
    def test_afv1_of_the_wrong_size(self, capsys, tmp_path, trained, edit):
        feats, books, _ = trained
        bad = tmp_path / "bad.afv1"
        bad.write_bytes(edit(feats.read_bytes()))
        argv = ["encode", bad, books, tmp_path / "x.atk1"]
        self.refused(capsys, argv, tmp_path / "x.atk1", 4, "AFV1 body")

    def test_out_of_range_index_in_late_block(self, capsys, tmp_path, trained):
        _, books, _ = trained
        frames = np.zeros((40, 2), dtype=np.int64)
        frames[37] = (3, 8)  # block 6 of 6; 8 is past the codebook
        tokens = tmp_path / "x.atk1"
        write_atk1(tokens, frames, (8, 8))
        out = tmp_path / "r.afv1"
        argv = ["decode", tokens, books, out, "--unstack", 1]
        self.refused(capsys, argv, out, 3, "layer 1 has indices outside")

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


@pytest.fixture(scope="module")
def long_features(tmp_path_factory):
    """Codebooks and 640-d features for 2 and 8 min at 12.5 Hz, with their
    tokens: {minutes: (AFV1, ATK1)} and the RVQ1 path."""
    tmp = tmp_path_factory.mktemp("long")
    rng = np.random.Generator(np.random.PCG64(8))
    books = tmp / "books.rvq1"
    write_rvq1(books, RvqStack([Codebook(rng.standard_normal((256, 640))) for _ in range(2)]))
    paths = {}
    for minutes in (2, 8):
        feats, tokens = tmp / f"{minutes}min.afv1", tmp / f"{minutes}min.atk1"
        write_afv1(feats, rng.standard_normal((minutes * 750, 640)), 12.5)
        write_atk1(tokens, rng.integers(0, 256, size=(minutes * 750, 2)), (256, 256))
        paths[minutes] = feats, tokens
    return paths, books


@linux_only
def test_encode_memory_does_not_grow_with_length(tmp_path, long_features):
    paths, books = long_features
    short, long = (
        cli_peak_rss_mb("encode", paths[m][0], books, tmp_path / "x.atk1") for m in (2, 8)
    )
    assert long - short < 20, f"peak RSS {short:.1f} MB at 2 min, {long:.1f} MB at 8 min"


@linux_only
def test_decode_memory_does_not_grow_with_length(tmp_path, long_features):
    paths, books = long_features
    short, long = (
        cli_peak_rss_mb("decode", paths[m][1], books, tmp_path / "x.afv1") for m in (2, 8)
    )
    assert long - short < 20, f"peak RSS {short:.1f} MB at 2 min, {long:.1f} MB at 8 min"


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
        # first text segment unsupervised: its token flags are false
        n_first_text = len("one.".encode())
        assert first["mask"][:n_first_text] == [False] * n_first_text
        assert all(first["mask"][n_first_text:])

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
        rec = json.loads(out.read_text().splitlines()[0])
        # audio segments contribute nothing to the loss in INTLV
        n_audio_0 = 3 + 1  # frames of row 0 plus end-of-audio
        assert rec["mask"][:n_audio_0] == [False] * n_audio_0
        assert rec["mask"][-5:] == [False] * 5  # trailing audio run + its switch

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

    def test_byte_identical_runs(self, capsys, tmp_path, packable):
        manifest, _ = packable
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run(capsys, "pack", manifest, out, "--seed", 3)[0] == 0
        assert a.read_bytes() == b.read_bytes()


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
        prog = tmp_path / "bad_plugin.py"
        prog.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    print('not json', flush=True)\n"
        )
        code, _, err = run(
            capsys, "eval", path, "--plugin", f"{sys.executable} {prog}"
        )
        assert code == 5
        assert "error" in err

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
            '{"dead_treshold": 8}',
            '{"dead_threshold": 0}',
            '{"dead_threshold": -2}',
            "[1, 2]",
            "{bad",
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
        "doc", ["{bad", '{"switch_ta": 1}', '{"switch_ta": "a", "switch_at": 2}', "[]"]
    )
    def test_special_tokens(self, capsys, tmp_path, packable, doc):
        manifest, _ = packable
        special = tmp_path / "special.json"
        special.write_text(doc)
        out = tmp_path / "r.jsonl"
        self.refused(capsys, ["pack", manifest, out, "--special", special], [out], 3)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("atk1_path", 0),
            ("atk1_path", True),
            ("frame_range", [0]),
            ("frame_range", [0, 2.0]),
            ("duration_s", "x"),
            ("duration_s", float("inf")),
            ("text", 5),
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
