"""Spans and counters recorded around the benchmark's calls into compnull.

Every call the benchmark makes into a package module goes through
``Tracer.call`` or ``Tracer.span`` with a name ``<module>.<operation>``.
With tracing off a call costs one branch; with tracing on each span keeps
its id, parent id, name, start and end in memory until ``write`` dumps
them as JSON lines at the end of the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

_OFF = nullcontext()

LAYERS = ("statmath", "regions", "closed_form", "pvalues", "latin3", "bayes_lp",
          "mediation", "simulate", "cli")


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[list] = []  # [span_id, parent_id, name, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _OFF

    @contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, parent, name, perf_counter(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] += int(n)

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: dict[str, float] = defaultdict(float)
        for _, _, name, t0, t1 in self.spans:
            out[name] += t1 - t0
        return out

    def self_times(self, root: str) -> dict[str, float]:
        """Per-layer self time of the spans nested under the spans named ``root``.

        A span's self time is its duration minus that of its direct children.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        inside = self._descendants(root)
        out = dict.fromkeys(LAYERS, 0.0)
        for sid, _, name, t0, t1 in self.spans:
            layer = name.split(".", 1)[0]
            if sid in inside and layer in out:
                out[layer] += (t1 - t0) - child_time[sid]
        return out

    def coverage(self, root: str) -> float:
        """Share of the ``root`` spans' wall time covered by their direct children."""
        roots = {sid: t1 - t0 for sid, _, name, t0, t1 in self.spans if name == root}
        covered = sum(t1 - t0 for _, parent, _, t0, t1 in self.spans if parent in roots)
        return covered / sum(roots.values())

    def _descendants(self, root: str) -> set[int]:
        found = {sid for sid, _, name, _, _ in self.spans if name == root}
        for sid, parent, _, _, _ in self.spans:  # parents precede children
            if parent in found:
                found.add(sid)
        return found

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"run": self.run_id, "span": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")
