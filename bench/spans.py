"""Spans around sessionpi's public functions, recorded from outside.

`Tracer.install` wraps each function in `TRACED` and rebinds the wrapper
on its own module and on every sessionpi module that imported it by
name (`cli`, `congruence`, `depgraph`, `semantics` and `typecheck` all
hold `print_process` from `surface`, for instance).  Every call records
one span (name, start, end, parent, result size) in memory; `summary`
turns the spans into per-function call counts and self times, and
`write` saves them when the run ends.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

TRACED = (
    ("cli", "main"),
    ("surface", "parse_source"),
    ("surface", "print_process"),
    ("syntax", "free_session_channels"),
    ("congruence", "normal_form"),
    ("congruence", "canonical_key"),
    ("congruence", "maximal_parallel_subterms"),
    ("typecheck", "check"),
    ("depgraph", "build_graph"),
    ("depgraph", "is_transparent"),
    ("semantics", "redexes"),
    ("semantics", "step"),
    ("progress", "construct_partner"),
)


def _modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sessionpi"
                                  or name.startswith("sessionpi."))]


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        # (name index, start, end, parent span index or -1, len(result))
        self.spans: list[tuple[int, float, float, int, int]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, ix: int, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append((ix, 0.0, 0.0, stack[-1] if stack else -1, 0))
            stack.append(me)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            size = len(out) if isinstance(out, list) else 0
            spans[me] = (ix, t0, t1, spans[me][3], size)
            return out

        return traced

    def install(self) -> None:
        mods = _modules()
        for ix, (mod, fn) in enumerate(TRACED):
            original = getattr(sys.modules[f"sessionpi.{mod}"], fn)
            wrapper = self._wrap(ix, original)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._undo):
            setattr(m, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total self time in ms, total result size."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {n: {"calls": 0, "self_ms": 0.0, "found": 0} for n in self.names}
        for k, (ix, t0, t1, _, size) in enumerate(self.spans):
            row = out[self.names[ix]]
            row["calls"] += 1
            row["self_ms"] += (t1 - t0 - child[k]) * 1000.0
            row["found"] += size
        return out

    def write(self, path) -> None:
        """One JSON record per span: name, start and end in seconds,
        parent span index (-1 at the top) and result length."""
        with gzip.open(path, "wt") as f:
            for ix, t0, t1, parent, size in self.spans:
                f.write(json.dumps([self.names[ix], round(t0, 7), round(t1, 7),
                                    parent, size]) + "\n")
