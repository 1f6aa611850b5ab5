"""The benchmark's own span recorder.

Spans are recorded from the benchmark's files, around calls into each
layer's public functions: name, layer, start, end, parent and op id.  They
stay in memory and are written out when the run ends.  A layer's self time
is its span's duration minus what its child spans cover.

A *probe* span is a child whose duration was measured by a separate call
on the same input (``sql.parse`` on the statement text that
``planner.prepare`` just planned): it is attributed to the parent, starts
where the parent starts, and is marked ``"probe": true`` in the trace file.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Spans:
    def __init__(self) -> None:
        #: [name, layer, start, end, parent index or -1, op id, is probe]
        self.rows: list[list] = []
        #: per span, the seconds its children cover
        self._covered: list[float] = []
        self._stack: list[int] = []
        self._op = -1
        #: root spans opened so far: the next op's id
        self.ops = 0

    @contextmanager
    def op(self, cls: str):
        """The root span of one client-visible request."""
        self._op = self.ops
        self.ops += 1
        with self.span(cls, "bench") as index:
            yield index
        self._op = -1

    @contextmanager
    def span(self, name: str, layer: str):
        index = len(self.rows)
        parent = self._stack[-1] if self._stack else -1
        row = [name, layer, time.perf_counter(), 0.0, parent, self._op, False]
        self.rows.append(row)
        self._covered.append(0.0)
        self._stack.append(index)
        try:
            yield index
        finally:
            row[3] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self._covered[parent] += row[3] - row[2]

    def probe(self, parent: int, name: str, layer: str, seconds: float) -> None:
        """Attribute ``seconds`` of ``parent`` to ``layer`` (capped at what
        the parent has left, so self times never go negative)."""
        start = self.rows[parent][2]
        seconds = max(0.0, min(seconds, self.self_time(parent)))
        self.rows.append(
            [name, layer, start, start + seconds, parent,
             self.rows[parent][5], True]
        )
        self._covered.append(0.0)
        self._covered[parent] += seconds

    # ------------------------------------------------------------------
    def duration(self, index: int) -> float:
        return self.rows[index][3] - self.rows[index][2]

    def self_time(self, index: int) -> float:
        return max(0.0, self.duration(index) - self._covered[index])

    def layer_self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for index, row in enumerate(self.rows):
            totals[row[1]] = totals.get(row[1], 0.0) + self.self_time(index)
        return totals

    def op_seconds(self) -> float:
        return sum(row[3] - row[2] for row in self.rows if row[4] == -1)

    def durations(self, name: str) -> list[float]:
        return [row[3] - row[2] for row in self.rows if row[0] == name]

    def to_dicts(self) -> list[dict]:
        keys = ("name", "layer", "start", "end", "parent", "op", "probe")
        return [dict(zip(keys, row)) for row in self.rows]

    def dump(self, path, **header) -> None:
        with open(path, "w") as handle:
            json.dump(dict(header, spans=self.to_dicts()), handle)
            handle.write("\n")
