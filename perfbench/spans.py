"""In-memory spans recorded around calls into the library's public functions.

A span is [name, start_ns, end_ns, parent, call_id, cells]: parent is the
index of the enclosing span (-1 for a call's root), call_id is shared by all
spans of one benchmark call, and cells is the matrix size a stage produced
(0 when it produced none).  Spans stay in a list until the run ends, so the
only cost while tracing is two clock reads and a list append per stage.
"""

import gzip
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, CALL, CELLS = range(6)

# stages the replay runs beside the library's own path rather than on it:
# their time is measured but is not part of any public call's work
SIDE_STAGES = frozenset({"fppoly.mul"})


class Tracer:
    """Collects spans; begin/end must nest like the calls they wrap."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.call_id = -1

    def new_call(self) -> None:
        self.call_id += 1

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.call_id, 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, cells: int = 0) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter_ns()
        span[CELLS] = cells
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")

    def close_to(self, idx: int) -> None:
        """End every span opened inside span idx, and idx itself."""
        while self._stack and self._stack[-1] != idx:
            self.end(self._stack[-1])
        self.end(idx)

    def stage(self, name: str, fn, *args):
        """Run fn(*args) inside a span named name and return its result."""
        idx = self.begin(name)
        out = fn(*args)
        self.end(idx)
        return out

    def matrix_stage(self, name: str, fn, *args):
        """Like stage, for a stage whose result is an FpMatrix; records its cells."""
        idx = self.begin(name)
        out = fn(*args)
        self.end(idx, out.rows * out.cols)
        return out

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def summary(self) -> dict:
        """Per span name: calls, inclusive ns, self ns and cells."""
        out: dict = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0, "cells": 0})
        for s, own in zip(self.spans, self.self_ns()):
            row = out[s[NAME]]
            row["calls"] += 1
            row["total_ns"] += s[END] - s[START]
            row["self_ns"] += own
            row["cells"] += s[CELLS]
        return dict(out)

    def write(self, path) -> None:
        """Write all spans as gzipped column-major JSON."""
        names = sorted({s[NAME] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "call_id", "cells"],
            "names": names,
            "name": [code[s[NAME]] for s in self.spans],
            "start_ns": [s[START] for s in self.spans],
            "end_ns": [s[END] for s in self.spans],
            "parent": [s[PARENT] for s in self.spans],
            "call_id": [s[CALL] for s in self.spans],
            "cells": [s[CELLS] for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def module_of(name: str) -> str:
    """Module a span name belongs to: its first dotted component."""
    return name.split(".", 1)[0]


def module_table(summary: dict) -> dict:
    """Self time and span count per module, from a Tracer.summary()."""
    table: dict = defaultdict(lambda: {"spans": 0, "self_ms": 0.0})
    for name, row in summary.items():
        mod = table[module_of(name)]
        mod["spans"] += row["calls"]
        mod["self_ms"] += row["self_ns"] / 1e6
    return dict(table)
