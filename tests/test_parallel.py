"""--threads: whole blocks on a pool, results in order, bytes unchanged.

mel and encode read and check their blocks in order in the calling
thread and run each block's kernel on up to min(--threads, usable CPUs)
workers. These tests pin the default thread rule, the pool size, the
ordering and error rules of ``parallel.ordered_blocks``, and artifacts
that are byte-identical at any --threads value and any BLAS thread
count. tests/test_mel.py and tests/test_rvq.py bound the blocks read
ahead of those yielded.
"""

import concurrent.futures
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rvqtok import cli, parallel, rvq
from rvqtok import mel as mel_module
from rvqtok.fileformats import read_afv1, read_rvq1, write_afv1, write_rvq1, write_wav
from rvqtok.rvq import Codebook, RvqStack, encode_frames, encode_rows
from rvqtok.synth import make_sine_noise_audio

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"


def child_env(**extra):
    """Environment for a child Python that imports this checkout's rvqtok,
    with no BLAS thread setting but those in extra."""
    env = {k: v for k, v in os.environ.items() if k not in parallel.BLAS_THREAD_VARS}
    rest = [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**env, "PYTHONPATH": os.pathsep.join([str(SRC), *rest]), **extra}


def quiet_main(*argv):
    """cli.main(argv) with stdout and stderr captured: (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every thread pool started."""
    started = []

    class Spy(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
    return started


class TestDefaultThreads:
    @pytest.mark.parametrize(
        "env, want",
        [
            ({}, 1),  # an unpinned BLAS takes every CPU: one block at a time
            ({"OPENBLAS_NUM_THREADS": "1"}, 4),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2),
            ({"OPENBLAS_NUM_THREADS": "3"}, 1),
            ({"OPENBLAS_NUM_THREADS": "64"}, 1),
            ({"OMP_NUM_THREADS": "1"}, 4),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
            # a value that is not a positive integer counts as unset
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 4),
            ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "2"}, 2),
            ({"OPENBLAS_NUM_THREADS": "-1"}, 1),
        ],
    )
    def test_usable_cpus_over_blas_threads(self, monkeypatch, env, want):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 4)
        for name in parallel.BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert parallel.default_threads() == want
        assert cli.build_parser().parse_args(["mel", "a", "b"]).threads == want

    def test_import_starts_no_pool_machinery(self):
        # concurrent.futures costs about 18 ms to import; only a pool pays it
        code = "import sys, rvqtok.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


class TestOrderedBlocks:
    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        # the pool path runs on a machine of any size
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)

    @pytest.mark.parametrize("threads", [1, 2, 3, 9])
    def test_results_in_order(self, threads):
        got = list(parallel.ordered_blocks(lambda a, b: a * b, ((i, 2) for i in range(20)), threads))
        assert got == [2 * i for i in range(20)]

    def test_pool_never_exceeds_usable_cpus(self, pools):
        for threads in (1, 2, 3, 9):
            assert list(parallel.ordered_blocks(abs, [(-1,), (-2,)], threads)) == [1, 2]
        # one worker runs in the calling thread and starts no pool
        assert pools == [2, 3, 3]

    @pytest.mark.parametrize("threads", [1, 2, 9])
    def test_late_job_error_after_earlier_results(self, threads):
        def jobs():
            for i in range(5):
                if i == 4:
                    raise ValueError("job 4")
                yield (i,)

        blocks = parallel.ordered_blocks(lambda i: i, jobs(), threads)
        assert [next(blocks) for _ in range(4)] == [0, 1, 2, 3]
        with pytest.raises(ValueError, match="job 4"):
            next(blocks)

    @pytest.mark.parametrize("threads", [1, 2, 9])
    def test_kernel_error_where_its_result_would_be(self, threads):
        def kernel(i):
            if i == 2:
                raise ZeroDivisionError("block 2")
            return i

        blocks = parallel.ordered_blocks(kernel, ((i,) for i in range(6)), threads)
        assert [next(blocks), next(blocks)] == [0, 1]
        with pytest.raises(ZeroDivisionError, match="block 2"):
            next(blocks)


class TestCli:
    """mel and encode over many small blocks with a short tail."""

    @pytest.fixture
    def inputs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rvq, "_ROW_CHUNK", 7)
        monkeypatch.setattr(mel_module, "_MEL_BLOCK", 7)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        wav = tmp_path / "in.wav"
        write_wav(wav, make_sine_noise_audio(1.04, seed=2))
        rng = np.random.Generator(np.random.PCG64(3))
        books = tmp_path / "books.rvq1"
        # --stack 2: 104 mel frames in blocks of 6; 52 rows of 160 in blocks of 7
        stack = RvqStack([Codebook(rng.standard_normal((k, 160))) for k in (32, 16, 8)])
        write_rvq1(books, stack)
        return wav, books

    def run(self, tmp_path, wav, books, threads):
        out = tmp_path / f"t{threads}"
        out.mkdir()
        t = ["--threads", threads]
        assert quiet_main("mel", wav, out / "f.afv1", "--stack", 2, *t) == (0, "")
        assert quiet_main("encode", out / "f.afv1", books, out / "x.atk1", *t) == (0, "")
        return (out / "f.afv1").read_bytes(), (out / "x.atk1").read_bytes()

    def test_byte_identical_at_any_threads(self, tmp_path, inputs, pools):
        wav, books = inputs
        first = self.run(tmp_path, wav, books, 1)
        assert pools == []
        for threads in (2, 9):
            assert self.run(tmp_path, wav, books, threads) == first
        # mel and encode each start one pool per run
        assert pools == [2, 2, 3, 3]
        x, _ = read_afv1(tmp_path / "t1" / "f.afv1")
        assert x.shape == (52, 160)
        stack = read_rvq1(books)
        blocks = list(encode_rows(stack, len(x), lambda a, b: x[a:b], threads=2))
        assert [len(b) for b in blocks] == [7] * 7 + [3]
        assert np.array_equal(np.concatenate(blocks), encode_frames(stack, x))

    def test_error_in_a_worker_names_the_command(self, tmp_path, inputs):
        wav, books = inputs
        feats = tmp_path / "f.afv1"
        x = np.zeros((52, 160))
        x[40] = 3e38  # finite as float32, too large to score
        write_afv1(feats, x, 12.5)
        code, err = quiet_main("encode", feats, books, tmp_path / "x.atk1", "--threads", 2)
        assert code == 4
        assert err.startswith("error: encode: features are too large for float32 selection")
        assert err.count("\n") == 1


# mel, train-rvq and encode in a child, at the default --threads; prints
# nothing, writes into the folder given
PIPELINE = """\
import sys
from rvqtok.cli import main
wav, books_cfg, out = sys.argv[1:]
for argv in (
    ["mel", wav, out + "/f.afv1"],
    ["train-rvq", out + "/corpus.txt", out + "/books.rvq1", "--config", books_cfg,
     "--epochs", "2", "--seed", "3"],
    ["encode", out + "/f.afv1", out + "/books.rvq1", out + "/x.atk1"],
):
    if main(argv):
        sys.exit(1)
"""


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity")
def test_artifacts_byte_identical_across_blas_threads(tmp_path):
    # 45 s of audio: 9 mel blocks and 562 rows, two encode blocks. At one
    # BLAS thread the default --threads pools blocks across the CPUs; at
    # two, each product may be split across BLAS threads instead.
    wav = tmp_path / "in.wav"
    write_wav(wav, make_sine_noise_audio(45.0, seed=6))
    cfg = tmp_path / "train.json"
    cfg.write_text('{"layer_sizes": [256, 64], "dead_threshold": 2}')
    names = ["f.afv1", "books.rvq1", "books.rvq1.report.jsonl", "x.atk1"]
    runs = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}"
        out.mkdir()
        (out / "corpus.txt").write_text(f"{out / 'f.afv1'}\n")
        proc = subprocess.run(
            [sys.executable, "-c", PIPELINE, str(wav), str(cfg), str(out)],
            env=child_env(OPENBLAS_NUM_THREADS=blas),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append({name: (out / name).read_bytes() for name in names})
    assert runs[0] == runs[1]


def test_overflow_in_a_blas_thread_is_refused():
    # a product split across BLAS threads reports an overflow only in the
    # calling thread's share; here only the right half of the scores
    # overflows, which a second BLAS thread computes
    code = """\
import numpy as np
from rvqtok.errors import InvalidSample
from rvqtok.rvq import Codebook, RvqStack, encode_frames
rng = np.random.default_rng(0)
x = (rng.standard_normal((512, 640)) * 1e21).astype(np.float32)
codes = rng.standard_normal((2048, 640))
codes[1024:] *= 1e17
try:
    encode_frames(RvqStack([Codebook(codes.astype(np.float32))]), x)
except InvalidSample as exc:
    print(exc)
"""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env=child_env(OPENBLAS_NUM_THREADS="2"),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("features are too large for float32 selection")
