"""In-memory spans around the calls the CLI module makes into each layer.

The tracer replaces names that ``rvqtok.cli`` resolves at call time
(``cli.encode_frames``, ``cli.ff.read_atk1``, ``cli.cmd_pack``, ...)
with wrappers that record a span per call: name, start, end, parent
span and run id, plus the file size for readers and writers. Nothing
in ``src/`` changes; ``installed`` restores every name on exit.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    nbytes: int = 0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``dump`` writes them out as JSON lines."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []

    def wrap(self, name: str, fn, *, path_arg: bool = False):
        """Wrap ``fn`` so each call records a span named ``name``.

        With ``path_arg`` the first positional argument is a file path
        whose size after the call is recorded as the span's byte count.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.run)
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if path_arg:
                span.nbytes = os.path.getsize(args[0])
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


@contextlib.contextmanager
def patched(owner, attr: str, value):
    """Set ``owner.attr`` to ``value`` for the block, then restore it."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


@contextlib.contextmanager
def installed(tracer: Tracer, targets):
    """Trace each (owner, attribute, span name, path_arg) for the block."""
    with contextlib.ExitStack() as stack:
        for owner, attr, name, path_arg in targets:
            fn = getattr(owner, attr)
            stack.enter_context(
                patched(owner, attr, tracer.wrap(name, fn, path_arg=path_arg))
            )
        yield tracer


def run_totals(tracer: Tracer, run: int) -> dict[str, float]:
    """Totals over one run's spans, keyed ``<name>_s`` (time), ``<name>_mb``
    (bytes read or written) and ``<name>.self_s`` (time minus direct
    children)."""
    child_time: dict[int, float] = {}
    for span in tracer.spans:
        if span.run == run and span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.dur
    out: dict[str, float] = {}
    for idx, span in enumerate(tracer.spans):
        if span.run != run:
            continue
        for key, value in (
            (f"{span.name}_s", span.dur),
            (f"{span.name}.self_s", span.dur - child_time.get(idx, 0.0)),
            (f"{span.name}_mb", span.nbytes / 1e6),
        ):
            out[key] = out.get(key, 0.0) + value
    return out
