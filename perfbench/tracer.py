"""In-memory span recorder that wraps functions at their lookup site.

A span is (unit, id, parent, name, start, end, self) in integer
nanoseconds of ``time.perf_counter_ns``, which on Linux reads the
system-wide monotonic clock, so spans from a child process line up with
timestamps taken by its parent. ``unit`` is the workload unit (one
``train`` call or one CLI process) the span belongs to; ``self`` is the
duration minus the time covered by traced children.

Spans stay in flat integer arrays until ``dump`` writes them out once at
the end. This module imports numpy only inside ``dump``, so a child process
can load it before timing its own imports.
"""

from __future__ import annotations

import contextlib
import time
from array import array

COLUMNS = ("unit", "id", "parent", "name", "start", "end", "self")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in COLUMNS}
        self.unit = 0
        self._next_id = 0
        # open spans: [id, child ns]
        self._stack: list[list[int]] = []

    def __len__(self) -> int:
        return len(self.cols["id"])

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self) -> tuple[list[int], int]:
        frame = [self._next_id, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, time.perf_counter_ns()

    def _close(self, nid: int, frame: list[int], start: int) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        dur = end - start
        parent = -1
        if stack:
            stack[-1][1] += dur
            parent = stack[-1][0]
        c = self.cols
        c["unit"].append(self.unit)
        c["id"].append(frame[0])
        c["parent"].append(parent)
        c["name"].append(nid)
        c["start"].append(start)
        c["end"].append(end)
        c["self"].append(dur - frame[1])

    @contextlib.contextmanager
    def span(self, name: str):
        nid = self.name_id(name)
        frame, start = self._open()
        try:
            yield
        finally:
            self._close(nid, frame, start)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            frame, start = open_()
            try:
                return fn(*args, **kwargs)
            finally:
                close(nid, frame, start)

        return traced

    @contextlib.contextmanager
    def patched(self, sites):
        """Wrap ``module.attr`` for each (module, attr, span name) in ``sites``."""
        saved = []
        try:
            for module, attr, name in sites:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def rows(self) -> list[dict]:
        """Spans in close order, as dicts with the span name resolved."""
        out = []
        for i in range(len(self)):
            row = {c: self.cols[c][i] for c in COLUMNS}
            row["name"] = self.names[row["name"]]
            out.append(row)
        return out

    def extend(self, unit: int, rows: list[dict]) -> None:
        """Append spans recorded elsewhere (a child process) under ``unit``."""
        id_base = self._next_id
        for row in rows:
            self.cols["unit"].append(unit)
            self.cols["id"].append(id_base + row["id"])
            self.cols["parent"].append(
                -1 if row["parent"] < 0 else id_base + row["parent"]
            )
            self.cols["name"].append(self.name_id(row["name"]))
            for c in ("start", "end", "self"):
                self.cols[c].append(row[c])
            self._next_id = max(self._next_id, id_base + row["id"] + 1)

    def totals(self, begin: int = 0) -> dict[str, list[int]]:
        """Per span name: [calls, total ns, self ns] over the spans from ``begin`` on."""
        out: dict[str, list[int]] = {}
        names, starts = self.cols["name"], self.cols["start"]
        ends, selfs = self.cols["end"], self.cols["self"]
        for i in range(begin, len(self)):
            acc = out.setdefault(self.names[names[i]], [0, 0, 0])
            acc[0] += 1
            acc[1] += ends[i] - starts[i]
            acc[2] += selfs[i]
        return out

    def dump(self, path: str) -> None:
        """Write every span as compressed int64 columns plus the name table (.npz)."""
        import numpy as np

        np.savez_compressed(
            path, names=np.array(self.names),
            **{c: np.frombuffer(self.cols[c], dtype=np.int64) for c in COLUMNS},
        )
