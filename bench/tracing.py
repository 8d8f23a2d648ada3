"""Spans recorded by the benchmark around its calls into each layer.

A span is (name, start, end, parent index), kept in memory and written out
when the run ends. A layer's self time is its span's duration minus the
part covered by its child spans. With tracing off the benchmark uses
:data:`OFF`, whose spans do nothing, so untraced timings carry no record.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = perf_counter()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self seconds per (root span name, span name)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        root = []
        out: dict[tuple[str, str], float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            root.append(root[parent] if parent >= 0 else name)
            out[root[i], name] += end - start - covered[i]
        return out

    def roots(self, prefix: str) -> list[tuple[str, float]]:
        """(name, duration) of every root span whose name starts with ``prefix``."""
        return [(name, end - start) for name, start, end, parent in self.spans
                if parent < 0 and name.startswith(prefix)]

    def dump(self, path: Path, pass_index: int) -> None:
        with path.open("a") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"pass": pass_index, "id": i, "name": name,
                                    "start": start, "end": end, "parent": parent}) + "\n")


class _Off:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, amount: int = 1) -> None:
        pass


OFF = _Off()
