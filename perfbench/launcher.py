"""Start the benchmark's child commands from a small process.

A child's ``ru_maxrss`` also counts the memory its parent had when the
child started, so children started by the benchmark process itself,
which holds inputs and references, would report the benchmark's memory
instead of their own. This process reads one request per line on
stdin, ``{"argv": [...], "timeout": seconds}``, runs the command, and
answers with one line: ``{"code", "stdout", "stderr", "wall_s",
"maxrss_kb"}``, where ``maxrss_kb`` is the largest ``ru_maxrss`` of
any child so far.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                req["argv"], capture_output=True, text=True, timeout=req["timeout"]
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, out, err = -1, "", f"timed out after {exc.timeout} s"
        wall = time.perf_counter() - t0
        maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        reply = {"code": code, "stdout": out, "stderr": err, "wall_s": wall,
                 "maxrss_kb": maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
