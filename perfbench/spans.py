"""In-memory spans for the traced replay, and self time per span name.

A span is (name, start, end, parent, job): times come from
time.perf_counter in the process that recorded them, parent is the index of
the enclosing span in the same job or None, and job names the job.  Spans
stay in memory until the job ends and are then written out as JSON in one go.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: "list[dict]" = []
        self._stack: "list[int]" = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "job": self.job}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i]["name"] == name for i in self._stack)


def self_times(spans: "list[dict]") -> "dict[str, float]":
    """Seconds per span name, each span's duration minus its children's."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    out: "dict[str, float]" = {}
    for s, t in zip(spans, own):
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out


def covered(spans: "list[dict]") -> float:
    """Seconds covered by top-level spans (the time some layer owns)."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
