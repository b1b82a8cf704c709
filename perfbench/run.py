"""rvqtok benchmark: CLI workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload encode-long --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The CLI runs as
``python -m rvqtok.cli`` subprocesses with ``PYTHONPATH=src``, one
command after another (a closed loop with one client), for passes
until ``--seconds`` is used up. Inputs come from ``--seed`` and are
written before any timing starts.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced subprocess runs. ``--trace 1`` runs the same commands
in-process through ``rvqtok.cli.main``, alternating untraced and traced
passes after a warm-up pass, and reports the per-layer metrics; the gap
between the two kinds of pass is the tracing overhead. ``--workload all`` runs every
workload in turn. Working files go to ``.perfbench_work/`` in the
checkout. The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 7  # import timings of a traced run, after its passes
SETUP_PER_PASS = 3  # set-up timings after each untraced pass
COMMAND_TIMEOUT_S = 150


def blas_context() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        name = version = "unknown"
    threads = "unknown"
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            fn = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        threads = fn()
    env = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"blas": name, "blas_version": version, "blas_threads": threads,
            "blas_threads_env": env}


def run_context(args) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        **blas_context(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
    }


class Launcher:
    """Runs child commands through ``launcher.py``, a small process, so
    each child's peak RSS is its own and not this process's."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.maxrss_kb = 0

    def run(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": COMMAND_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher process exited")
        reply = json.loads(line)
        self.maxrss_kb = reply["maxrss_kb"]
        if reply["code"]:
            sys.stderr.write(reply["stderr"][-2000:])
        return reply

    def cli(self, argv):
        """One CLI command as a child process: (exit code, stdout, wall s)."""
        reply = self.run([sys.executable, "-m", "rvqtok.cli", *argv])
        return reply["code"], reply["stdout"], reply["wall_s"]

    def python(self, code: str) -> dict:
        """A new interpreter that runs ``code``; raises if it fails."""
        reply = self.run([sys.executable, "-c", code])
        if reply["code"]:
            raise RuntimeError(f"python -c {code!r} exited with {reply['code']}")
        return reply

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=COMMAND_TIMEOUT_S)


def run_inprocess(argv):
    """One CLI command through ``rvqtok.cli.main`` in this process."""
    from rvqtok import cli

    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        code = -1
    return code, buf.getvalue(), time.perf_counter() - t0


def checked(ops, check, *args) -> None:
    try:
        check(*args)
    except Exception as exc:  # missing or unreadable output counts as wrong
        traceback.print_exc()
        ops.check(False, f"output check raised {exc!r}")


def one_pass(wl, invoke) -> dict[str, float]:
    """Run the workload's commands once, then check their outputs."""
    walls, stdout = {}, {}
    for label, argv in wl.commands():
        code, out, wall = invoke(argv)
        wl.ops.check(code == 0, f"{label} exited with {code}")
        walls[label], stdout[label] = wall, out
    checked(wl.ops, wl.check_pass, stdout)
    return walls


def timed_loop(seconds: float, steps) -> None:
    """Call each of ``steps`` in turn, at least once each, while the
    shortest call so far still fits in ``seconds``."""
    end = time.perf_counter() + seconds
    shortest = float("inf")
    i = 0
    while i < len(steps) or time.perf_counter() + shortest <= end:
        t0 = time.perf_counter()
        steps[i % len(steps)]()
        shortest = min(shortest, time.perf_counter() - t0)
        i += 1


IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import rvqtok.cli; "
    "print(time.perf_counter() - t)"
)


def untraced(wl, seconds: float, launcher: Launcher):
    """Passes of CLI commands, each followed by set-up timings, so that
    both are taken under the same machine conditions."""
    walls: list[dict[str, float]] = []
    setups: list[float] = []

    def step():
        walls.append(one_pass(wl, launcher.cli))
        setups.extend(launcher.python(wl.setup_code)["wall_s"] for _ in range(SETUP_PER_PASS))

    timed_loop(seconds, [step])
    checked(wl.ops, wl.final_check)
    return {
        "cli_wall_s": median(sum(w.values()) for w in walls),
        "peak_rss_mb": launcher.maxrss_kb * 1024 / 1e6,
        "setup_s": median(setups),
    }, wl.summary(walls), walls


def plugin_stats(tracer) -> dict[str, float]:
    """Scorer-plugin start-up and per-call latency from the traced passes."""
    calls_ms, spawns = [], []
    for r in range(1, tracer.run + 1):
        calls = [s.dur for s in tracer.spans if s.run == r and s.name == "scorers.plugin_call"]
        ctor = [s.dur for s in tracer.spans if s.run == r and s.name == "scorers.plugin_spawn"]
        if calls and ctor:
            # the first call also waits for the plugin interpreter to start
            spawns.append(ctor[0] + calls[0])
            calls_ms.extend(1e3 * d for d in calls[1:])
    if not calls_ms:
        return {}
    calls_ms.sort()
    return {
        "scorers.plugin_spawn_s": median(spawns),
        "scorers.plugin_call_ms.p50": median(calls_ms),
        "scorers.plugin_call_ms.p99": calls_ms[int(0.99 * (len(calls_ms) - 1))],
        "scorers.plugin_call_samples": len(calls_ms),
    }


def traced(wl, seconds: float, launcher: Launcher):
    from rvqtok import cli
    from tracing import Tracer, installed, patched, run_totals
    from workloads import TRACE_TARGETS, traced_scorer_class

    tracer = Tracer()
    plain_walls: list[float] = []
    traced_walls: list[float] = []

    def plain():
        plain_walls.append(sum(one_pass(wl, run_inprocess).values()))

    def with_spans():
        tracer.run += 1
        with installed(tracer, TRACE_TARGETS), patched(
            cli, "SubprocessScorer", traced_scorer_class(tracer)
        ):
            traced_walls.append(sum(one_pass(wl, run_inprocess).values()))

    one_pass(wl, run_inprocess)  # warm-up: the first in-process pass grows the heap
    timed_loop(seconds, [plain, with_spans])
    checked(wl.ops, wl.final_check)
    totals = [run_totals(tracer, r) for r in range(1, tracer.run + 1)]
    keys = set().union(*totals)
    metrics = {k: median(t.get(k, 0.0) for t in totals) for k in keys}
    metrics.update(plugin_stats(tracer))
    plain_s, traced_s = median(plain_walls), median(traced_walls)
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    metrics["cli.import_s"] = median(
        float(launcher.python(IMPORT_TIMER)["stdout"]) for _ in range(SETUP_REPEATS)
    )
    metrics.update(wl.probes(metrics))
    tracer.dump(WORK / "results" / f"{wl.name}-seed{wl.seed}-spans.jsonl")
    return metrics, {"plain": plain_walls, "traced": traced_walls}


def run_workload(args, bench: dict) -> int:
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    os.chdir(work)
    launcher = Launcher()  # started while this process is still small
    try:
        return measure(args, bench, launcher)
    finally:
        launcher.close()


def measure(args, bench: dict, launcher: Launcher) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Ops

    context = run_context(args)
    ops = Ops()
    wl = WORKLOADS[args.workload](args.seed, ops)
    wl.prepare()

    if args.trace:
        measured, walls = traced(wl, args.seconds, launcher)
        passes = len(walls["plain"]) + len(walls["traced"])
        wanted = bench["per_layer"]
        summary = {}
    else:
        measured, summary, walls = untraced(wl, args.seconds, launcher)
        passes = len(walls)
        wanted = bench["end_to_end"]
        summary.update({
            "setup_s": (measured["setup_s"], "s"),
            "peak_rss_mb": (measured["peak_rss_mb"], "MB"),
            "cli_wall_s": (measured["cli_wall_s"], "s"),
        })
    summary["error_rate"] = (len(ops.failures) / max(ops.attempted, 1), "ratio")

    print(f"context {json.dumps(context, sort_keys=True)}")
    print(f"{args.workload}: {passes} passes, {ops.attempted} operations, "
          f"{len(ops.failures)} failed")
    for name, (value, unit) in summary.items():
        print(f"  {name:34s} {value:12.6g} {unit}")
    metrics = {}
    for m in wanted:
        # a per-layer metric of a layer this workload leaves idle reads 0
        value = measured.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if args.trace:
            print(f"  {m['name']:34s} {value:12.6g} {m['unit']}")
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }
    results = WORK / "results"
    results.joinpath(f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "context": context, "failures": ops.failures, "pass_walls": walls,
         "summary": {k: v[0] for k, v in summary.items()}},
        indent=1, sort_keys=True,
    ))
    print(json.dumps(result))
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    bench_path = ROOT / "BENCHMARK.json"
    bench = json.loads(bench_path.read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rvqtok" / "cli.py").is_file():
        print(f"error: no rvqtok sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread unless the caller says otherwise: with two cores,
    # OpenBLAS's default of two threads slowed train-rvq fivefold whenever
    # another process held a core. Set before anything imports NumPy.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
