"""Every import in a package module is used: a name a module imports
but never reads is dead code that a deletion left behind. A line marked
``# noqa: F401`` keeps an import only for a name perfbench's traced run
wraps on that module, and every name it wraps must resolve. ``__init__.py``
re-exports and is not checked. Only ``fileformats`` writes files, so
that one module decides how every output is committed."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "rvqtok"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        f"{path.name}:{alias.lineno} {alias.asname or alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name).split(".")[0] not in used
        and "# noqa: F401" not in lines[alias.lineno - 1]
    ]
    assert unused == []


@pytest.fixture
def trace_targets(monkeypatch):
    """perfbench's TRACE_TARGETS: (module, name, ...) for each name its
    traced run wraps."""
    # the benchmark's file is only read: no bytecode is written beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.TRACE_TARGETS
    return workloads.TRACE_TARGETS


def test_trace_targets_resolve(trace_targets):
    missing = [
        f"{owner.__name__}.{name}" for owner, name, *_ in trace_targets if not hasattr(owner, name)
    ]
    assert missing == []


def test_kept_imports_are_trace_targets(trace_targets):
    # the converse: a ``# noqa: F401`` import names something the traced
    # run wraps on that module, so it cannot outlive the benchmark's use
    wrapped = {f"{owner.__name__}.{name}" for owner, name, *_ in trace_targets}
    kept = [
        f"rvqtok.{path.stem}.{alias.asname or alias.name}"
        for path in MODULES
        for lines in [path.read_text().splitlines()]
        for node in ast.walk(ast.parse("\n".join(lines)))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]
    assert kept and [name for name in kept if name not in wrapped] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_reads_across_modules(path):
    # a module reads no underscore name of another rvqtok module, by
    # attribute (rvq._ROW_CHUNK) or by import (from .rvq import _x)
    tree = ast.parse(path.read_text())
    modules = set()  # local names bound to rvqtok modules
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "rvqtok"):
            for alias in node.names:
                if node.module in (None, "rvqtok"):
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    private.append(f"{path.name}:{node.lineno} {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            private.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert private == []


# an open() mode that writes: w, a, x or + among mode letters
WRITE_MODE = re.compile(r"[rbtU]*[wax+][rwaxbtU+]*")


def _writes_a_file(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    # open(file, mode), Path.open(mode) and wave.open(file, mode)
    modes = [*call.args[:2], *(k.value for k in call.keywords if k.arg == "mode")]
    return any(
        isinstance(m, ast.Constant) and isinstance(m.value, str) and WRITE_MODE.fullmatch(m.value)
        for m in modes
    )


@pytest.mark.parametrize(
    "path", [p for p in PACKAGE.glob("*.py") if p.name != "fileformats.py"], ids=lambda p: p.name
)
def test_only_fileformats_writes_files(path):
    writes = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _writes_a_file(node)
    ]
    assert writes == []
