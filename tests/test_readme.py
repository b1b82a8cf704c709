"""The README's examples run as written: its ``python`` blocks as one
session, then its ``sh`` blocks in order, all in one scratch directory,
with ``rvqtok`` standing for ``python3 -m rvqtok.cli`` on this checkout."""

import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# an untagged block (install, test commands) is not an example
BLOCK = re.compile(r"^```(python|sh)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def blocks(language):
    text = (REPO / "README.md").read_text()
    return [body for lang, body in BLOCK.findall(text) if lang == language]


def test_readme_examples_run(tmp_path):
    env = {
        **os.environ,
        # python3 in the examples, a plugin command line included, is this Python
        "PATH": os.pathsep.join([str(Path(sys.executable).parent), os.environ["PATH"]]),
        "PYTHONPATH": os.pathsep.join(
            [str(REPO / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
        ),
    }
    python, sh = blocks("python"), blocks("sh")
    assert (len(python), len(sh)) == (2, 3)
    steps = [[sys.executable, "-c", "\n".join(python)]]
    steps += [["sh", "-ec", 'rvqtok() { python3 -m rvqtok.cli "$@"; }\n' + body] for body in sh]
    for argv in steps:
        done = subprocess.run(
            argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, f"{argv[-1]}\nstdout:\n{done.stdout}\nstderr:\n{done.stderr}"
    for name in ["clip.atk", "recon.afv", "books.rvq", "records.jsonl", "eval.jsonl"]:
        assert (tmp_path / name).stat().st_size > 0
