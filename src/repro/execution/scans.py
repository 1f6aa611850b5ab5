"""Scan operators: the leaves of physical plans.

* :class:`SeqScan` — heap order; no predicates evaluated (``P = φ``), so all
  tuples share the same maximal-possible score and any order satisfies
  Definition 1.
* :class:`RankScan` — the paper's ``idxScan_p``: reads a
  :class:`~repro.storage.index.RankIndex` in descending predicate-score
  order.  The index stores precomputed scores, so a rank-scan contributes
  ``p`` to the evaluated set *without charging predicate evaluations* at
  query time — exactly the advantage of a PostgreSQL expression index.
* :class:`ColumnOrderScan` — an index scan in column order (the classic
  "interesting order" for sort-merge joins); rank-wise it is like SeqScan
  (``P = φ``).
* :class:`ScanSelect` — scan-based selection via a
  :class:`~repro.storage.index.MultiKeyIndex`: rows satisfying a Boolean
  attribute, in descending predicate-score order (§4.2).
"""

from __future__ import annotations

import math
from typing import Iterator

from ..algebra.rank_relation import ScoredRow
from ..storage.index import ColumnIndex, MultiKeyIndex, RankIndex
from ..storage.row import Row
from ..storage.schema import Schema
from .iterator import PhysicalOperator


class SeqScan(PhysicalOperator):
    """Sequential scan of a heap table (``P = φ``)."""

    kind = "seqScan"

    def __init__(self, table_name: str):
        super().__init__()
        self.table_name = table_name
        self._schema: Schema | None = None
        self._rows: Iterator[Row] | None = None
        self._exhausted = False

    def describe(self) -> str:
        return f"seqScan({self.table_name})"

    def schema(self) -> Schema:
        if self._schema is None:
            raise RuntimeError("scan not opened")
        return self._schema

    def predicates(self) -> frozenset[str]:
        return frozenset()

    def bound(self) -> float:
        if self._exhausted:
            return -math.inf
        return self.context.scoring.max_possible()

    def _open(self) -> None:
        table = self.context.catalog.table(self.table_name)
        self._schema = table.schema
        self._rows = table.rows()
        self._exhausted = False

    def _next(self) -> ScoredRow | None:
        assert self._rows is not None
        row = next(self._rows, None)
        if row is None:
            self._exhausted = True
            return None
        self.context.metrics.charge_scan()
        return ScoredRow(row, {})

    def _close(self) -> None:
        self._rows = None


class RankScan(PhysicalOperator):
    """Index scan in descending score order of one ranking predicate."""

    kind = "idxScan"

    def __init__(self, table_name: str, predicate_name: str):
        super().__init__()
        self.table_name = table_name
        self.predicate_name = predicate_name
        self._schema: Schema | None = None
        self._entries: Iterator[tuple[float, Row]] | None = None
        self._bound = math.inf
        self._exhausted = False

    def describe(self) -> str:
        return f"idxScan_{self.predicate_name}({self.table_name})"

    def schema(self) -> Schema:
        if self._schema is None:
            raise RuntimeError("scan not opened")
        return self._schema

    def predicates(self) -> frozenset[str]:
        return frozenset({self.predicate_name})

    def bound(self) -> float:
        if self._exhausted:
            return -math.inf
        return min(self._bound, self.context.scoring.max_possible())

    def _open(self) -> None:
        table = self.context.catalog.table(self.table_name)
        index = table.find_index(key=self.predicate_name)
        if not isinstance(index, RankIndex):
            raise RuntimeError(
                f"no rank index on {self.table_name!r} for predicate "
                f"{self.predicate_name!r}"
            )
        self._schema = table.schema
        self._entries = index.scan_by_score()
        self._bound = math.inf
        self._exhausted = False

    def _next(self) -> ScoredRow | None:
        assert self._entries is not None
        entry = next(self._entries, None)
        if entry is None:
            self._exhausted = True
            return None
        score, row = entry
        self.context.metrics.charge_scan()
        scored = ScoredRow(row, {self.predicate_name: score})
        # Future tuples have predicate score <= this one.  Computing the
        # bound through the context also leaves it on the row for the
        # consumer to reuse.
        self._bound = self.context.upper_bound(scored)
        return scored

    def _close(self) -> None:
        self._entries = None


class ColumnOrderScan(PhysicalOperator):
    """Index scan in ascending column order (interesting order; ``P = φ``)."""

    kind = "idxScanCol"

    def __init__(self, table_name: str, column: str):
        super().__init__()
        self.table_name = table_name
        self.column = column
        self._schema: Schema | None = None
        self._rows: Iterator[Row] | None = None
        self._exhausted = False

    def describe(self) -> str:
        return f"idxScan_{self.column}({self.table_name})"

    def schema(self) -> Schema:
        if self._schema is None:
            raise RuntimeError("scan not opened")
        return self._schema

    def predicates(self) -> frozenset[str]:
        return frozenset()

    def bound(self) -> float:
        if self._exhausted:
            return -math.inf
        return self.context.scoring.max_possible()

    def column_order(self) -> str | None:
        """The column this scan is sorted on (for merge joins)."""
        return self.column

    def _open(self) -> None:
        table = self.context.catalog.table(self.table_name)
        self._schema = table.schema
        index = table.find_index(key=self.column)
        if isinstance(index, ColumnIndex):
            self._rows = index.scan_ascending()
        else:
            # No column index (dropped or never built): fall back to a
            # transient sort of the heap in (column, rid) order — the same
            # sequence the index would deliver — charging the sort's
            # comparison cost so the plan survives instead of erroring.
            position = table.schema.index_of(self.column)
            rows = sorted(table.rows(), key=lambda r: (r[position], r.rid))
            n = len(rows)
            self.context.metrics.charge_comparisons(
                int(n * max(1, math.log2(n or 1)))
            )
            self._rows = iter(rows)
        self._exhausted = False

    def _next(self) -> ScoredRow | None:
        assert self._rows is not None
        row = next(self._rows, None)
        if row is None:
            self._exhausted = True
            return None
        self.context.metrics.charge_scan()
        return ScoredRow(row, {})

    def _close(self) -> None:
        self._rows = None


class ScanSelect(PhysicalOperator):
    """Scan-based selection: multi-key index scan filtered on a Boolean
    attribute, emitting in descending predicate-score order (§4.2)."""

    kind = "scanSelect"

    def __init__(self, table_name: str, bool_column: str, predicate_name: str):
        super().__init__()
        self.table_name = table_name
        self.bool_column = bool_column
        self.predicate_name = predicate_name
        self._schema: Schema | None = None
        self._entries: Iterator[tuple[float, Row]] | None = None
        self._bound = math.inf
        self._exhausted = False

    def describe(self) -> str:
        return (
            f"scanSelect_{self.predicate_name}"
            f"[{self.bool_column}]({self.table_name})"
        )

    def schema(self) -> Schema:
        if self._schema is None:
            raise RuntimeError("scan not opened")
        return self._schema

    def predicates(self) -> frozenset[str]:
        return frozenset({self.predicate_name})

    def bound(self) -> float:
        if self._exhausted:
            return -math.inf
        return min(self._bound, self.context.scoring.max_possible())

    def _open(self) -> None:
        table = self.context.catalog.table(self.table_name)
        index = None
        for candidate in table.indexes.values():
            if (
                isinstance(candidate, MultiKeyIndex)
                and candidate.bool_column == self.bool_column
                and candidate.predicate_name == self.predicate_name
            ):
                index = candidate
                break
        if index is None:
            raise RuntimeError(
                f"no multi-key index ({self.bool_column}, {self.predicate_name}) "
                f"on {self.table_name!r}"
            )
        self._schema = table.schema
        self._entries = index.scan_matching(True)
        self._bound = math.inf
        self._exhausted = False

    def _next(self) -> ScoredRow | None:
        assert self._entries is not None
        entry = next(self._entries, None)
        if entry is None:
            self._exhausted = True
            return None
        score, row = entry
        self.context.metrics.charge_scan()
        scored = ScoredRow(row, {self.predicate_name: score})
        self._bound = self.context.upper_bound(scored)
        return scored

    def _close(self) -> None:
        self._entries = None
