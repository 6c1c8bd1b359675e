"""Spans recorded by the benchmark around each public call it makes.

A span has a name, start and end (``time.perf_counter`` seconds of the
recording process), its parent span and optional counts. Spans are kept
in memory and written out once, when the run ends. Spans from another
process keep their own clock: only their durations are compared.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer, self.record = tracer, record

    def __enter__(self) -> dict:
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._pid = os.getpid()

    def span(self, name: str, **counts) -> _Span:
        """A context manager recording one span; counts may be added to
        the dict it yields."""
        record = {"id": len(self.spans), "name": name, "parent": self._stack[-1] if self._stack else None,
                  "pid": self._pid, **counts}
        self.spans.append(record)
        return _Span(self, record)

    def adopt(self, spans: list[dict]) -> None:
        """Take in spans recorded by another process, re-numbered after ours."""
        base = len(self.spans)
        for s in spans:
            self.spans.append({**s, "id": s["id"] + base,
                               "parent": None if s["parent"] is None else s["parent"] + base})

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def median_s(self, name: str) -> float:
        spans = self.named(name)
        if not spans:
            raise KeyError(f"no span named {name}")
        return statistics.median(s["end"] - s["start"] for s in spans)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
