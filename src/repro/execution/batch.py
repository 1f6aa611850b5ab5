"""Batched columnar execution for unranked (``P = φ``) plan segments.

The Volcano iterators of :mod:`repro.execution.iterator` move one
:class:`~repro.algebra.rank_relation.ScoredRow` per ``next()`` call — the
right granularity for rank-aware operators, whose whole point is emitting
incrementally in score order, but pure overhead for the unranked segments
below them.  A ``P = φ`` subtree has every tuple at the same maximal
possible score, so Definition 1 places no order constraint on it, and its
rank-aware consumer cannot emit anything before the subtree is exhausted
anyway (its bound stays at ``F_φ`` until then).  Those segments are free to
execute in bulk.

This module is that bulk path:

* :class:`Batch` — a column-vector slice of tuples (value vectors + rid
  vector + evaluated-score vectors), the unit batch operators exchange;
* batch operators (:class:`BatchScan`, :class:`BatchFilter`,
  :class:`BatchProject`, :class:`BatchHashJoin`,
  :class:`BatchSortMergeJoin`, :class:`BatchNestedLoopJoin`,
  :class:`BatchSort`, :class:`BatchLimit`) — vectorized equivalents of the
  row operators, producing the *same tuples in the same order* while
  charging :class:`~repro.execution.metrics.ExecutionMetrics` in per-batch
  increments (``charge_*(count)``) instead of one call per tuple;
* :class:`BatchToRow` — the adapter at the frontier where a rank-aware
  consumer begins: a :class:`~repro.execution.iterator.PhysicalOperator`
  that unpacks batches back into ``ScoredRow`` tuples, preserving rid
  tie-order and the ``bound()`` / ``predicates()`` contracts.

The planner's costed lowering pass
(:func:`repro.optimizer.hybrid.decide_batch_lowering`) swaps maximal
``P = φ`` descriptor subtrees onto this path where batch prices cheaper;
rank-aware operators (µ, HRJN/NRJN, rank set-ops, rank-scans) are never
lowered — batching them would destroy the incremental emission the
ranking principle is about.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable, Iterator

from ..algebra.expressions import Evaluator
from ..algebra.predicates import BooleanPredicate
from ..algebra.rank_relation import ScoredRow
from ..storage.row import Row
from ..storage.schema import Schema
from . import morsels, vectors
from .iterator import ExecutionContext, PhysicalOperator
from .metrics import ExecutionMetrics, OperatorStats
from .scans import sorted_column_order

#: tuples per batch — large enough to amortize per-batch dispatch, small
#: enough to keep intermediate vectors cache- and memory-friendly
BATCH_SIZE = 1024

Rid = tuple[tuple[str, int], ...]


class Batch:
    """A slice of tuples in columnar form.

    A batch always carries the parallel ``rids`` vector (deterministic
    identity / tie-order) and at least one tuple representation:

    * ``columns`` — per-column value vectors (built lazily when only a
      row-wise representation was supplied);
    * ``values`` — per-tuple value tuples (built lazily from columns);
    * ``rows`` — the original :class:`Row` objects, kept when the batch's
      tuples are 1:1 with stored base rows so the frontier can emit them
      without re-allocating.

    ``scores`` maps predicate name to an evaluated score vector — empty
    everywhere in a ``P = φ`` segment, populated by :class:`BatchSort` at
    the frontier of lowered traditional plans.
    """

    __slots__ = ("schema", "rids", "rows", "scores", "_columns", "_values")

    def __init__(
        self,
        schema: Schema,
        rids: list[Rid],
        *,
        columns: "tuple[list, ...] | None" = None,
        values: "list[tuple] | None" = None,
        rows: "list[Row] | None" = None,
        scores: "dict[str, list[float]] | None" = None,
    ):
        if columns is None and values is None and rows is None:
            raise ValueError("batch needs columns, values or rows")
        self.schema = schema
        self.rids = rids
        self.rows = rows
        self.scores: dict[str, list[float]] = scores if scores is not None else {}
        self._columns = columns
        self._values = values

    def __len__(self) -> int:
        return len(self.rids)

    @property
    def columns(self) -> tuple[list, ...]:
        """Per-column value vectors (computed from the tuples on demand)."""
        if self._columns is None:
            values = self.value_tuples()
            if values:
                self._columns = tuple(list(v) for v in zip(*values))
            else:
                self._columns = tuple([] for __ in range(len(self.schema)))
        return self._columns

    def value_tuples(self) -> list[tuple]:
        """Plain value tuples, one per tuple (for join concatenation)."""
        if self._values is None:
            if self.rows is not None:
                self._values = [r.values for r in self.rows]
            else:
                assert self._columns is not None
                self._values = list(zip(*self._columns))
        return self._values

    def tuples(self) -> "list[Row] | list[tuple]":
        """Indexable row-likes for compiled evaluators (``row[pos]``)."""
        if self.rows is not None:
            return self.rows
        return self.value_tuples()

    def select(self, indices: list[int]) -> "Batch":
        """The sub-batch at ``indices`` (order preserved)."""
        values = self.value_tuples()
        return Batch(
            self.schema,
            [self.rids[i] for i in indices],
            values=[values[i] for i in indices],
            rows=[self.rows[i] for i in indices] if self.rows is not None else None,
            scores={
                name: [vec[i] for i in indices] for name, vec in self.scores.items()
            },
        )

    def to_scored_rows(self) -> list[ScoredRow]:
        """Unpack into ``ScoredRow`` objects (the frontier conversion)."""
        names = list(self.scores)
        if self.rows is not None:
            rows: "list[Row]" = self.rows
        else:
            rows = [
                Row(values, rid)
                for values, rid in zip(self.value_tuples(), self.rids)
            ]
        if not names:
            return [ScoredRow(row, {}) for row in rows]
        vectors = [self.scores[n] for n in names]
        return [
            ScoredRow(row, dict(zip(names, per_row)))
            for row, per_row in zip(rows, zip(*vectors))
        ]


# ----------------------------------------------------------------------
# morsel decomposition (the parallel path)
# ----------------------------------------------------------------------
#
# A MorselChain is a *random-access* decomposition of a batch pipeline:
# a source that can produce any morsel's batches independently, plus the
# per-batch stages of the operators stacked above it.  BatchToRow turns a
# chain into one task per morsel and runs the tasks on the shared pool
# (morsels.run_tasks), gathering results in morsel order.
#
# Determinism contract: morsel boundaries partition the source in its
# serial emission order and every stage is order-preserving within a
# batch, so the ordered concatenation of per-morsel outputs is exactly
# the serial output — rid tie-order included.
#
# Metrics contract: every stage replicates the serial operator's charges,
# per tuple and under the same operator-stats names, into the task's
# *private* ExecutionMetrics sink (workers never touch shared state); the
# consuming thread merges each sink as it gathers the morsel's result.
# Charges that are formulas over the whole input (sort / merge-join
# comparison estimates) are applied once, on the statement's metrics, by
# the operator that owns them — so for fully-drained segments parallel
# totals equal serial totals exactly.  Blocking phases (hash build,
# sort-merge collection, sort materialization) run on the statement
# thread and fan out their own morsels before the probe chain is built.


class _Stage:
    """One operator's per-batch transform inside a morsel task."""

    __slots__ = ("name", "fn")

    def __init__(
        self, name: str, fn: "Callable[[Batch, ExecutionMetrics], Batch | None]"
    ):
        self.name = name
        self.fn = fn

    def __call__(self, batch: Batch, sink: ExecutionMetrics) -> Batch | None:
        return self.fn(batch, sink)


def _emit(batch: Batch, name: str, sink: ExecutionMetrics) -> Batch:
    """The serial emission accounting (:meth:`BatchOperator.next_batch`)
    for a batch produced inside a morsel task."""
    count = len(batch)
    sink.stats_for(name).tuples_out += count
    sink.charge_move(count)
    return batch


class _ViewSource:
    """Morsels over a table's :class:`~repro.storage.table.ColumnarView`
    (:class:`BatchScan`'s parallel twin)."""

    def __init__(self, view, name: str):
        self.view = view
        self.name = name
        self.width = morsels.morsel_size()

    def morsel_count(self) -> int:
        return math.ceil(len(self.view) / self.width)

    def batches(self, index: int, sink: ExecutionMetrics) -> Iterator[Batch]:
        view = self.view
        stop = min((index + 1) * self.width, len(view))
        position = index * self.width
        while position < stop:
            end = min(position + BATCH_SIZE, stop)
            sink.charge_scan(end - position)
            yield _emit(
                Batch(
                    view.schema,
                    view.rids[position:end],
                    columns=tuple(c[position:end] for c in view.columns),
                    rows=view.rows[position:end],
                ),
                self.name,
                sink,
            )
            position = end


class _RowSource:
    """Morsels over a materialized row list (column-order scans)."""

    def __init__(self, rows: list[Row], schema: Schema, name: str):
        self.rows = rows
        self.schema = schema
        self.name = name
        self.width = morsels.morsel_size()

    def morsel_count(self) -> int:
        return math.ceil(len(self.rows) / self.width)

    def batches(self, index: int, sink: ExecutionMetrics) -> Iterator[Batch]:
        rows = self.rows
        stop = min((index + 1) * self.width, len(rows))
        position = index * self.width
        while position < stop:
            end = min(position + BATCH_SIZE, stop)
            chunk = rows[position:end]
            sink.charge_scan(len(chunk))
            yield _emit(
                Batch(self.schema, [r.rid for r in chunk], rows=chunk),
                self.name,
                sink,
            )
            position = end


class _TupleSource:
    """Morsels over a blocking operator's materialized (values, rids)
    output (sort-merge join emission): no scan charge, emission accounting
    only — exactly what the serial wrapper charges."""

    def __init__(
        self, values: list[tuple], rids: "list[Rid]", schema: Schema, name: str
    ):
        self.values = values
        self.rids = rids
        self.schema = schema
        self.name = name
        self.width = morsels.morsel_size()

    def morsel_count(self) -> int:
        return math.ceil(len(self.values) / self.width)

    def batches(self, index: int, sink: ExecutionMetrics) -> Iterator[Batch]:
        stop = min((index + 1) * self.width, len(self.values))
        position = index * self.width
        while position < stop:
            end = min(position + BATCH_SIZE, stop)
            yield _emit(
                Batch(
                    self.schema,
                    self.rids[position:end],
                    values=self.values[position:end],
                ),
                self.name,
                sink,
            )
            position = end


class MorselChain:
    """A source plus the order-preserving stages stacked above it."""

    __slots__ = ("source", "stages")

    def __init__(self, source, stages: tuple[_Stage, ...] = ()):
        self.source = source
        self.stages = tuple(stages)

    def extended(self, stage: _Stage) -> "MorselChain":
        return MorselChain(self.source, self.stages + (stage,))

    def tasks(self, finalize=None) -> list:
        """One closure per morsel.

        Each task runs its morsel's batches through the stages with a
        private metrics sink, accumulating every operator's busy time
        into the sink's per-operator ``wall_seconds``, and returns
        ``(result, sink)`` — where ``result`` is the surviving batch
        list, or ``finalize(batches, sink)`` when a finalizer is given.
        """
        source = self.source
        stages = self.stages
        out = []
        for index in range(source.morsel_count()):

            def task(index: int = index):
                sink = ExecutionMetrics()
                source_stats = sink.stats_for(source.name)
                produced: list[Batch] = []
                iterator = source.batches(index, sink)
                while True:
                    started = time.perf_counter()
                    batch = next(iterator, None)
                    source_stats.wall_seconds += time.perf_counter() - started
                    if batch is None:
                        break
                    for stage in stages:
                        started = time.perf_counter()
                        batch = stage(batch, sink)
                        sink.stats_for(stage.name).wall_seconds += (
                            time.perf_counter() - started
                        )
                        if batch is None:
                            break
                    else:
                        produced.append(batch)
                result = produced if finalize is None else finalize(produced, sink)
                return result, sink

            out.append(task)
        return out


class BatchOperator:
    """Base class of batch (vector-at-a-time) operators.

    Mirrors the :class:`~repro.execution.iterator.PhysicalOperator`
    lifecycle — ``open(context)`` / ``next_batch()`` / ``close()`` — with
    the same per-operator stats and bulk metric charging: every emitted
    batch counts ``len(batch)`` tuples out and moves in one call.
    """

    kind = "batchOperator"

    def __init__(self) -> None:
        self._context: ExecutionContext | None = None
        self._stats: OperatorStats | None = None
        self._opened = False
        #: the segment's costed degree of parallelism (installed by
        #: :class:`BatchToRow` before open; 1 = the serial path)
        self._dop = 1

    # -- lifecycle ------------------------------------------------------
    def open(self, context: ExecutionContext) -> None:
        self._context = context
        self._stats = context.metrics.stats_for(context.unique_name(self.describe()))
        self._opened = True
        self._open()

    def next_batch(self) -> Batch | None:
        """The next non-empty batch, or None when exhausted."""
        if not self._opened:
            raise RuntimeError(f"{self.describe()}: next_batch() before open()")
        started = time.perf_counter()
        try:
            while True:
                batch = self._next_batch()
                if batch is None:
                    return None
                if len(batch):
                    assert self._stats is not None and self._context is not None
                    self._stats.tuples_out += len(batch)
                    self._context.metrics.charge_move(len(batch))
                    return batch
        finally:
            # inclusive wall time (children's pulls run inside this call);
            # morsel stages instead time their own busy share per worker
            self.stats.wall_seconds += time.perf_counter() - started

    def close(self) -> None:
        if self._opened:
            self._close()
            self._opened = False

    # -- contracts -------------------------------------------------------
    def schema(self) -> Schema:
        raise NotImplementedError

    def predicates(self) -> frozenset[str]:
        """Evaluated ranking-predicate set ``P`` of the output (φ for every
        batch operator except :class:`BatchSort`)."""
        return frozenset()

    def column_order(self) -> str | None:
        return None

    def bound_hint(self) -> float:
        """Upper bound on the ``F_P`` score of any tuple still to come
        (``F_φ`` for unranked operators)."""
        return self.context.scoring.max_possible()

    def notify_limit(self, k: int) -> None:
        """See :meth:`PhysicalOperator.notify_limit`; only
        :class:`BatchSort` reacts."""

    def describe(self) -> str:
        return self.kind

    def children(self) -> tuple["BatchOperator", ...]:
        return ()

    # -- parallelism ------------------------------------------------------
    def set_parallelism(self, dop: int) -> None:
        """Install the segment's costed degree of parallelism, recursively
        (called by :class:`BatchToRow` before ``open``)."""
        self._dop = max(1, int(dop))
        for child in self.children():
            child.set_parallelism(self._dop)

    @property
    def dop(self) -> int:
        return self._dop

    def morsel_chain(self) -> "MorselChain | None":
        """A random-access morsel decomposition of this operator's output,
        or None when the subtree cannot be decomposed (the serial
        ``next_batch`` path remains the fallback, always correct).

        Called only after ``open()`` and only with ``dop > 1`` installed.
        Blocking phases below (hash build, sort-merge collection) may run
        — themselves fanned out over morsels — as a side effect.
        """
        return None

    # -- subclass hooks ---------------------------------------------------
    def _open(self) -> None:
        raise NotImplementedError

    def _next_batch(self) -> Batch | None:
        raise NotImplementedError

    def _close(self) -> None:
        for child in self.children():
            child.close()

    # -- helpers ----------------------------------------------------------
    @property
    def context(self) -> ExecutionContext:
        assert self._context is not None, "operator not opened"
        return self._context

    @property
    def stats(self) -> OperatorStats:
        assert self._stats is not None, "operator not opened"
        return self._stats

    def _record_input(self, count: int) -> None:
        self.stats.tuples_in += count

    def _drain(self, child: "BatchOperator") -> Iterator[Batch]:
        while True:
            batch = child.next_batch()
            if batch is None:
                return
            self._record_input(len(batch))
            yield batch


# ----------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------

class BatchScan(BatchOperator):
    """Sequential scan over the table's columnar view (heap order)."""

    kind = "batchScan"

    def __init__(self, table_name: str):
        super().__init__()
        self.table_name = table_name
        self._schema: Schema | None = None
        self._view = None
        self._position = 0

    def describe(self) -> str:
        return f"batchScan({self.table_name})"

    def schema(self) -> Schema:
        if self._schema is None:
            raise RuntimeError("scan not opened")
        return self._schema

    def _open(self) -> None:
        table = self.context.catalog.table(self.table_name)
        self._schema = table.schema
        self._view = table.columns()
        self._position = 0

    def _next_batch(self) -> Batch | None:
        view = self._view
        assert view is not None
        start = self._position
        if start >= len(view):
            return None
        end = min(start + BATCH_SIZE, len(view))
        self._position = end
        self.context.metrics.charge_scan(end - start)
        return Batch(
            view.schema,
            view.rids[start:end],
            columns=tuple(column[start:end] for column in view.columns),
            rows=view.rows[start:end],
        )

    def morsel_chain(self) -> "MorselChain | None":
        assert self._view is not None
        return MorselChain(_ViewSource(self._view, self.stats.name))

    def _close(self) -> None:
        self._view = None


class BatchColumnOrderScan(BatchOperator):
    """Index scan in ascending column order, batched.

    Falls back to a transient heap sort (charging its comparisons) when the
    table has no :class:`~repro.storage.index.ColumnIndex` — same recovery
    as the row-mode :class:`~repro.execution.scans.ColumnOrderScan`.
    """

    kind = "batchScanCol"

    def __init__(self, table_name: str, column: str):
        super().__init__()
        self.table_name = table_name
        self.column = column
        self._schema: Schema | None = None
        self._rows: list[Row] | None = None
        self._position = 0

    def describe(self) -> str:
        return f"batchScan_{self.column}({self.table_name})"

    def schema(self) -> Schema:
        if self._schema is None:
            raise RuntimeError("scan not opened")
        return self._schema

    def column_order(self) -> str | None:
        return self.column

    def _open(self) -> None:
        from ..storage.index import ColumnIndex

        table = self.context.catalog.table(self.table_name)
        self._schema = table.schema
        index = table.find_index(key=self.column)
        if isinstance(index, ColumnIndex):
            self._rows = list(index.scan_ascending())
        else:
            self._rows = sorted_column_order(table, self.column, self.context.metrics)
        self._position = 0

    def _next_batch(self) -> Batch | None:
        rows = self._rows
        assert rows is not None
        start = self._position
        if start >= len(rows):
            return None
        end = min(start + BATCH_SIZE, len(rows))
        self._position = end
        chunk = rows[start:end]
        self.context.metrics.charge_scan(len(chunk))
        return Batch(self.schema(), [r.rid for r in chunk], rows=chunk)

    def morsel_chain(self) -> "MorselChain | None":
        # The ordered row list was materialized (and any fallback-sort
        # comparisons charged) serially in _open; morsels just slice it.
        assert self._rows is not None
        return MorselChain(_RowSource(self._rows, self.schema(), self.stats.name))

    def _close(self) -> None:
        self._rows = None


# ----------------------------------------------------------------------
# unary operators
# ----------------------------------------------------------------------

class BatchFilter(BatchOperator):
    """Selection σ_c applied over whole batches (order preserving)."""

    kind = "batchFilter"

    def __init__(self, child: BatchOperator, condition: BooleanPredicate):
        super().__init__()
        self.child = child
        self.condition = condition
        self._evaluator: Evaluator | None = None
        self._kernel = None

    def describe(self) -> str:
        return f"batchFilter({self.condition.name})"

    def children(self) -> tuple[BatchOperator, ...]:
        return (self.child,)

    def schema(self) -> Schema:
        return self.child.schema()

    def column_order(self) -> str | None:
        return self.child.column_order()

    def _open(self) -> None:
        self.child.open(self.context)
        self._evaluator = self.condition.compile(self.child.schema())
        self._kernel = vectors.boolean_kernel(self.condition, self.child.schema())

    def _next_batch(self) -> Batch | None:
        evaluate = self._evaluator
        assert evaluate is not None
        batch = self.child.next_batch()
        if batch is None:
            return None
        n = len(batch)
        self._record_input(n)
        self.context.metrics.charge_boolean(n, cost=self.condition.cost)
        keep = vectors.keep_indices(self._kernel, evaluate, batch)
        if len(keep) == n:
            return batch
        return batch.select(keep)

    def morsel_chain(self) -> "MorselChain | None":
        chain = self.child.morsel_chain()
        if chain is None:
            return None
        name = self.stats.name
        condition = self.condition
        evaluate = self._evaluator
        kernel = self._kernel
        assert evaluate is not None

        def stage(batch: Batch, sink: ExecutionMetrics) -> Batch | None:
            n = len(batch)
            sink.stats_for(name).tuples_in += n
            sink.charge_boolean(n, cost=condition.cost)
            keep = vectors.keep_indices(kernel, evaluate, batch)
            if len(keep) != n:
                batch = batch.select(keep)
            if not len(batch):
                return None  # the serial wrapper skips empty batches too
            return _emit(batch, name, sink)

        return chain.extended(_Stage(name, stage))


class BatchProject(BatchOperator):
    """Projection π over column vectors (narrows the value layout)."""

    kind = "batchProject"

    def __init__(self, child: BatchOperator, columns: tuple[str, ...]):
        super().__init__()
        self.child = child
        self.columns = tuple(columns)
        self._positions: list[int] | None = None
        self._schema: Schema | None = None

    def describe(self) -> str:
        return f"batchProject({', '.join(self.columns)})"

    def children(self) -> tuple[BatchOperator, ...]:
        return (self.child,)

    def schema(self) -> Schema:
        if self._schema is None:
            raise RuntimeError("project not opened")
        return self._schema

    def _open(self) -> None:
        self.child.open(self.context)
        child_schema = self.child.schema()
        self._positions = [child_schema.index_of(c) for c in self.columns]
        self._schema = child_schema.project(self.columns)

    def _next_batch(self) -> Batch | None:
        positions = self._positions
        assert positions is not None and self._schema is not None
        batch = self.child.next_batch()
        if batch is None:
            return None
        self._record_input(len(batch))
        vectors = batch.columns
        return Batch(
            self._schema,
            batch.rids,
            columns=tuple(vectors[p] for p in positions),
            scores=dict(batch.scores),
        )

    def morsel_chain(self) -> "MorselChain | None":
        chain = self.child.morsel_chain()
        if chain is None:
            return None
        name = self.stats.name
        positions = self._positions
        schema = self._schema
        assert positions is not None and schema is not None

        def stage(batch: Batch, sink: ExecutionMetrics) -> Batch | None:
            sink.stats_for(name).tuples_in += len(batch)
            columns = batch.columns
            return _emit(
                Batch(
                    schema,
                    batch.rids,
                    columns=tuple(columns[p] for p in positions),
                    scores=dict(batch.scores),
                ),
                name,
                sink,
            )

        return chain.extended(_Stage(name, stage))


class BatchLimit(BatchOperator):
    """λ_k over batches: truncate the stream after ``k`` tuples."""

    kind = "batchLimit"

    def __init__(self, child: BatchOperator, k: int):
        super().__init__()
        if k < 0:
            raise ValueError("k must be non-negative")
        self.child = child
        self.k = k
        self._emitted = 0

    def describe(self) -> str:
        return f"batchLimit({self.k})"

    def children(self) -> tuple[BatchOperator, ...]:
        return (self.child,)

    def schema(self) -> Schema:
        return self.child.schema()

    def predicates(self) -> frozenset[str]:
        return self.child.predicates()

    def _open(self) -> None:
        self.child.open(self.context)
        self._emitted = 0

    def _next_batch(self) -> Batch | None:
        remaining = self.k - self._emitted
        if remaining <= 0:
            return None
        batch = self.child.next_batch()
        if batch is None:
            return None
        self._record_input(len(batch))
        if len(batch) > remaining:
            batch = batch.select(list(range(remaining)))
        self._emitted += len(batch)
        return batch


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------

class _BatchBinaryJoin(BatchOperator):
    """Shared plumbing for binary batch joins."""

    def __init__(self, left: BatchOperator, right: BatchOperator):
        super().__init__()
        self.left = left
        self.right = right
        self._schema: Schema | None = None

    def children(self) -> tuple[BatchOperator, ...]:
        return (self.left, self.right)

    def schema(self) -> Schema:
        if self._schema is None:
            raise RuntimeError("join not opened")
        return self._schema

    def _open_children(self) -> None:
        self.left.open(self.context)
        self.right.open(self.context)
        self._schema = self.left.schema().concat(self.right.schema())


class BatchHashJoin(_BatchBinaryJoin):
    """Classical hash equi-join, batched: blocking build over the right
    input, vectorized probe over left batches.  Output order is identical
    to the row :class:`~repro.execution.joins.HashJoin` — probe-major, with
    partners in build-arrival order."""

    kind = "batchHashJoin"

    def __init__(
        self,
        left: BatchOperator,
        right: BatchOperator,
        left_key: str,
        right_key: str,
    ):
        super().__init__(left, right)
        self.left_key = left_key
        self.right_key = right_key
        self._hash: dict[Any, list[tuple[tuple, Rid]]] | None = None
        self._left_position = -1

    def describe(self) -> str:
        return f"batchHashJoin({self.left_key}={self.right_key})"

    def _open(self) -> None:
        self._open_children()
        self._hash = None
        self._left_position = self.left.schema().index_of(self.left_key)

    def _build(self) -> None:
        position = self.right.schema().index_of(self.right_key)
        table: dict[Any, list[tuple[tuple, Rid]]] = {}
        chain = self.right.morsel_chain() if self._dop > 1 else None
        if chain is not None:
            name = self.stats.name

            def finalize(batches: list[Batch], sink: ExecutionMetrics):
                partition: dict[Any, list[tuple[tuple, Rid]]] = {}
                stats = sink.stats_for(name)
                for batch in batches:
                    stats.tuples_in += len(batch)
                    keys = batch.columns[position]
                    values = batch.value_tuples()
                    rids = batch.rids
                    for i, key in enumerate(keys):
                        partition.setdefault(key, []).append((values[i], rids[i]))
                return partition

            # Merging the per-morsel partitions in morsel order reproduces
            # both the per-key partner order and the dict's key insertion
            # order of the serial build exactly.
            for partition, sink in morsels.run_tasks(
                chain.tasks(finalize), self._dop
            ):
                self.context.metrics.merge(sink)
                for key, entries in partition.items():
                    table.setdefault(key, []).extend(entries)
            self._hash = table
            return
        for batch in self._drain(self.right):
            keys = batch.columns[position]
            values = batch.value_tuples()
            rids = batch.rids
            for i, key in enumerate(keys):
                table.setdefault(key, []).append((values[i], rids[i]))
        self._hash = table

    def morsel_chain(self) -> "MorselChain | None":
        if self._hash is None:
            self._build()
        chain = self.left.morsel_chain()
        if chain is None:
            return None  # the built table still serves the serial probe
        table = self._hash
        assert table is not None
        position = self._left_position
        schema = self.schema()
        name = self.stats.name

        def stage(batch: Batch, sink: ExecutionMetrics) -> Batch | None:
            sink.stats_for(name).tuples_in += len(batch)
            keys = batch.columns[position]
            values = batch.value_tuples()
            rids = batch.rids
            out_values: list[tuple] = []
            out_rids: list[Rid] = []
            pairs = 0
            for i, key in enumerate(keys):
                partners = table.get(key)
                if not partners:
                    continue
                value, rid = values[i], rids[i]
                pairs += len(partners)
                for partner_value, partner_rid in partners:
                    out_values.append(value + partner_value)
                    out_rids.append(rid + partner_rid)
            if pairs:
                sink.charge_join_pair(pairs)
            if not out_values:
                return None
            return _emit(Batch(schema, out_rids, values=out_values), name, sink)

        return chain.extended(_Stage(name, stage))

    def _next_batch(self) -> Batch | None:
        if self._hash is None:
            self._build()
        table = self._hash
        assert table is not None
        while True:
            batch = self.left.next_batch()
            if batch is None:
                return None
            self._record_input(len(batch))
            keys = batch.columns[self._left_position]
            values = batch.value_tuples()
            rids = batch.rids
            out_values: list[tuple] = []
            out_rids: list[Rid] = []
            pairs = 0
            for i, key in enumerate(keys):
                partners = table.get(key)
                if not partners:
                    continue
                value, rid = values[i], rids[i]
                pairs += len(partners)
                for partner_value, partner_rid in partners:
                    out_values.append(value + partner_value)
                    out_rids.append(rid + partner_rid)
            if pairs:
                self.context.metrics.charge_join_pair(pairs)
            if out_values:
                return Batch(self.schema(), out_rids, values=out_values)


class BatchSortMergeJoin(_BatchBinaryJoin):
    """Classical sort-merge equi-join, batched (fully blocking).

    Drains both inputs into columnar buffers, argsorts each side by
    ``(key, rid)`` and merges — the same key-major output order (equal-key
    cross products in left-then-right rid order) as the row
    :class:`~repro.execution.joins.SortMergeJoin`, with comparison costs
    charged by the same formulas."""

    kind = "batchSMJ"

    def __init__(
        self,
        left: BatchOperator,
        right: BatchOperator,
        left_key: str,
        right_key: str,
    ):
        super().__init__(left, right)
        self.left_key = left_key
        self.right_key = right_key
        self._output: "tuple[list[tuple], list[Rid]] | None" = None
        self._position = 0

    def describe(self) -> str:
        return f"batchSMJ({self.left_key}={self.right_key})"

    def column_order(self) -> str | None:
        return self.left_key

    def _open(self) -> None:
        self._open_children()
        self._output = None
        self._position = 0

    def _collect(
        self, side: BatchOperator, key_name: str
    ) -> tuple[list, list[tuple], list[Rid]]:
        """Drain one input; return (key vector, value tuples, rids) sorted
        by ``(key, rid)``, charging sort comparisons unless the input
        already delivers the key's interesting order."""
        position = side.schema().index_of(key_name)
        chain = side.morsel_chain() if self._dop > 1 else None
        if chain is not None:
            return self._parallel_collect(side, key_name, position, chain)
        keys: list = []
        values: list[tuple] = []
        rids: list[Rid] = []
        for batch in self._drain(side):
            keys.extend(batch.columns[position])
            values.extend(batch.value_tuples())
            rids.extend(batch.rids)
        n = len(keys)
        if side.column_order() != key_name:
            self.context.metrics.charge_comparisons(
                int(n * max(1, math.log2(n or 1)))
            )
        order = sorted(range(n), key=lambda i: (keys[i], rids[i]))
        return (
            [keys[i] for i in order],
            [values[i] for i in order],
            [rids[i] for i in order],
        )

    def _parallel_collect(
        self, side: BatchOperator, key_name: str, position: int, chain: "MorselChain"
    ) -> tuple[list, list[tuple], list[Rid]]:
        """Per-morsel ``(key, rid)``-sorted runs, k-way merged.  Rids are
        unique, so ``(key, rid)`` is a total order and the run merge is
        identical to the serial side's one global sort."""
        name = self.stats.name

        def finalize(batches: list[Batch], sink: ExecutionMetrics):
            keys: list = []
            values: list[tuple] = []
            rids: list[Rid] = []
            stats = sink.stats_for(name)
            for batch in batches:
                stats.tuples_in += len(batch)
                keys.extend(batch.columns[position])
                values.extend(batch.value_tuples())
                rids.extend(batch.rids)
            m = len(keys)
            order = sorted(range(m), key=lambda i: (keys[i], rids[i]))
            return (
                [keys[i] for i in order],
                [values[i] for i in order],
                [rids[i] for i in order],
            )

        runs = []
        total = 0
        for run, sink in morsels.run_tasks(chain.tasks(finalize), self._dop):
            self.context.metrics.merge(sink)
            total += len(run[0])
            if run[0]:
                runs.append(run)
        if side.column_order() != key_name:
            # the serial comparison formula over the whole input, once
            self.context.metrics.charge_comparisons(
                int(total * max(1, math.log2(total or 1)))
            )
        keys = []
        values = []
        rids = []
        for key, value, rid in heapq.merge(
            *(zip(*run) for run in runs), key=lambda item: (item[0], item[2])
        ):
            keys.append(key)
            values.append(value)
            rids.append(rid)
        return keys, values, rids

    def morsel_chain(self) -> "MorselChain | None":
        if self._output is None:
            self._merge()
        values, rids = self._output  # type: ignore[misc]
        return MorselChain(
            _TupleSource(values, rids, self.schema(), self.stats.name)
        )

    def _merge(self) -> None:
        context = self.context
        left_keys, left_values, left_rids = self._collect(self.left, self.left_key)
        right_keys, right_values, right_rids = self._collect(
            self.right, self.right_key
        )
        out_values: list[tuple] = []
        out_rids: list[Rid] = []
        i = j = 0
        n_left, n_right = len(left_keys), len(right_keys)
        comparisons = 0
        pairs = 0
        while i < n_left and j < n_right:
            comparisons += 1
            lk = left_keys[i]
            rk = right_keys[j]
            if lk < rk:
                i += 1
            elif lk > rk:
                j += 1
            else:
                j_end = j
                while j_end < n_right and right_keys[j_end] == lk:
                    j_end += 1
                i_end = i
                while i_end < n_left and left_keys[i_end] == lk:
                    i_end += 1
                for a in range(i, i_end):
                    left_value, left_rid = left_values[a], left_rids[a]
                    for b in range(j, j_end):
                        out_values.append(left_value + right_values[b])
                        out_rids.append(left_rid + right_rids[b])
                pairs += (i_end - i) * (j_end - j)
                i, j = i_end, j_end
        context.metrics.charge_comparisons(comparisons)
        context.metrics.charge_join_pair(pairs)
        self._output = (out_values, out_rids)

    def _next_batch(self) -> Batch | None:
        if self._output is None:
            self._merge()
        values, rids = self._output  # type: ignore[misc]
        start = self._position
        if start >= len(values):
            return None
        end = min(start + BATCH_SIZE, len(values))
        self._position = end
        return Batch(self.schema(), rids[start:end], values=values[start:end])


class BatchNestedLoopJoin(_BatchBinaryJoin):
    """Classical nested-loop join, batched (inner side materialized).

    Outer-major output order, identical to the row
    :class:`~repro.execution.joins.NestedLoopJoin`."""

    kind = "batchNestLoop"

    def __init__(
        self,
        left: BatchOperator,
        right: BatchOperator,
        condition: BooleanPredicate | None,
    ):
        super().__init__(left, right)
        self.condition = condition
        self._inner: "tuple[list[tuple], list[Rid]] | None" = None
        self._evaluator: Evaluator | None = None

    def describe(self) -> str:
        name = self.condition.name if self.condition else "true"
        return f"batchNestLoop({name})"

    def _open(self) -> None:
        self._open_children()
        self._inner = None
        self._evaluator = (
            self.condition.compile(self.schema()) if self.condition else None
        )

    def _materialize_inner(self) -> None:
        values: list[tuple] = []
        rids: list[Rid] = []
        chain = self.right.morsel_chain() if self._dop > 1 else None
        if chain is not None:
            name = self.stats.name

            def finalize(batches: list[Batch], sink: ExecutionMetrics):
                stats = sink.stats_for(name)
                part_values: list[tuple] = []
                part_rids: list[Rid] = []
                for batch in batches:
                    stats.tuples_in += len(batch)
                    part_values.extend(batch.value_tuples())
                    part_rids.extend(batch.rids)
                return part_values, part_rids

            for (part_values, part_rids), sink in morsels.run_tasks(
                chain.tasks(finalize), self._dop
            ):
                self.context.metrics.merge(sink)
                values.extend(part_values)
                rids.extend(part_rids)
            self._inner = (values, rids)
            return
        for batch in self._drain(self.right):
            values.extend(batch.value_tuples())
            rids.extend(batch.rids)
        self._inner = (values, rids)

    def morsel_chain(self) -> "MorselChain | None":
        if self._inner is None:
            self._materialize_inner()
        chain = self.left.morsel_chain()
        if chain is None:
            return None
        inner_values, inner_rids = self._inner  # type: ignore[misc]
        evaluate = self._evaluator
        condition = self.condition
        schema = self.schema()
        name = self.stats.name

        def stage(batch: Batch, sink: ExecutionMetrics) -> Batch | None:
            sink.stats_for(name).tuples_in += len(batch)
            out_values: list[tuple] = []
            out_rids: list[Rid] = []
            pairs = len(batch) * len(inner_values)
            booleans = 0
            for outer_value, outer_rid in zip(batch.value_tuples(), batch.rids):
                for partner_value, partner_rid in zip(inner_values, inner_rids):
                    merged = outer_value + partner_value
                    if evaluate is not None:
                        booleans += 1
                        if not evaluate(merged):
                            continue
                    out_values.append(merged)
                    out_rids.append(outer_rid + partner_rid)
            if pairs:
                sink.charge_join_pair(pairs)
            if booleans:
                assert condition is not None
                sink.charge_boolean(booleans, cost=condition.cost)
            if not out_values:
                return None
            return _emit(Batch(schema, out_rids, values=out_values), name, sink)

        return chain.extended(_Stage(name, stage))

    def _next_batch(self) -> Batch | None:
        if self._inner is None:
            self._materialize_inner()
        inner_values, inner_rids = self._inner  # type: ignore[misc]
        context = self.context
        evaluate = self._evaluator
        condition = self.condition
        while True:
            batch = self.left.next_batch()
            if batch is None:
                return None
            self._record_input(len(batch))
            out_values: list[tuple] = []
            out_rids: list[Rid] = []
            pairs = len(batch) * len(inner_values)
            booleans = 0
            for outer_value, outer_rid in zip(batch.value_tuples(), batch.rids):
                for partner_value, partner_rid in zip(inner_values, inner_rids):
                    merged = outer_value + partner_value
                    if evaluate is not None:
                        booleans += 1
                        if not evaluate(merged):
                            continue
                    out_values.append(merged)
                    out_rids.append(outer_rid + partner_rid)
            if pairs:
                context.metrics.charge_join_pair(pairs)
            if booleans:
                assert condition is not None
                context.metrics.charge_boolean(booleans, cost=condition.cost)
            if out_values:
                return Batch(self.schema(), out_rids, values=out_values)


# ----------------------------------------------------------------------
# sort (the frontier of lowered traditional plans)
# ----------------------------------------------------------------------

class BatchSort(BatchOperator):
    """Blocking τ_F over batches: drain, evaluate every remaining ranking
    predicate as a score vector, argsort by ``(−F, rid)``, emit in rank
    order with the score vectors attached.

    Like the row :class:`~repro.execution.sort.Sort`, it keeps only a
    bounded top-k selection when a directly-enclosing λ_k announces its
    ``k`` via :meth:`notify_limit` (cursor plans strip the λ and therefore
    always get the full ordering).
    """

    kind = "batchSort"

    def __init__(self, child: BatchOperator, fetch_limit: int | None = None):
        super().__init__()
        self.child = child
        self.fetch_limit = fetch_limit
        self._ordered: "tuple[list, dict[str, list[float]], list[float]] | None" = None
        self._position = 0
        self._rows_kept = False

    def describe(self) -> str:
        if self.fetch_limit is not None:
            return f"batchSort(top {self.fetch_limit})"
        return "batchSort"

    def notify_limit(self, k: int) -> None:
        if self.fetch_limit is None:
            self.fetch_limit = k

    def children(self) -> tuple[BatchOperator, ...]:
        return (self.child,)

    def schema(self) -> Schema:
        return self.child.schema()

    def predicates(self) -> frozenset[str]:
        return frozenset(self.context.scoring.predicate_names)

    def bound_hint(self) -> float:
        if self._ordered is None:
            return self.context.scoring.max_possible()
        if self._position >= len(self._ordered[0]):
            return -math.inf
        return self._ordered[2][self._position]

    def _open(self) -> None:
        self.child.open(self.context)
        self._ordered = None
        self._position = 0

    def _materialize(self) -> None:
        if self._dop > 1 and self._parallel_materialize():
            return
        context = self.context
        scoring = context.scoring
        schema = self.child.schema()
        items: list = []  # Row objects or value tuples, kept per-source
        rids: list[Rid] = []
        rows: "list[Row] | None" = []
        scores: dict[str, list[float]] = {}
        for batch in self._drain(self.child):
            if rows is not None and batch.rows is not None:
                rows.extend(batch.rows)
            else:
                rows = None
            items.extend(batch.tuples())
            rids.extend(batch.rids)
            for name, vector in batch.scores.items():
                scores.setdefault(name, []).extend(vector)
        n = len(items)
        missing = [
            name
            for name in scoring.predicate_names
            if name not in scores or len(scores[name]) != n
        ]
        if missing:
            # One synthetic batch over the whole materialized input lets
            # the vector kernels (and the bulk python loop) score each
            # remaining predicate column-wise in a single pass.
            whole = Batch(
                schema,
                rids,
                rows=rows if rows is not None else None,
                values=None if rows is not None else items,
            )
            for name in missing:
                evaluate, cost = context.evaluators.entry(name, schema)
                kernel = vectors.ranking_kernel(scoring.predicate(name), schema)
                scores[name] = vectors.score_vector(kernel, evaluate, whole)
                context.metrics.charge_predicate(cost, n)
        names = scoring.predicate_names
        score_columns = [scores[name] for name in names]
        # Per-row F via the same upper_bound arithmetic as the row path, so
        # scores (and the sort order they induce) are bit-identical.
        bounds = [
            scoring.upper_bound(dict(zip(names, per_row)))
            for per_row in zip(*score_columns)
        ] if n else []
        k = self.fetch_limit
        if k is not None and k < n:
            context.metrics.charge_comparisons(int(n * max(1, math.log2(max(2, k)))))
            order = heapq.nsmallest(k, range(n), key=lambda i: (-bounds[i], rids[i]))
        else:
            context.metrics.charge_comparisons(int(n * max(1, math.log2(n or 1))))
            order = sorted(range(n), key=lambda i: (-bounds[i], rids[i]))
        carrier = rows if rows is not None else items
        self._ordered = (
            [(carrier[i], rids[i]) for i in order],
            {name: [scores[name][i] for i in order] for name in names},
            [bounds[i] for i in order],
        )
        self._rows_kept = rows is not None

    def _parallel_materialize(self) -> bool:
        """Per-morsel score + sort (+ top-k), k-way merged by the same
        ``(-F, rid)`` total order — identical output to the serial
        materialization.  Returns False when the child has no morsel
        decomposition (the caller falls back to the serial body)."""
        chain = self.child.morsel_chain()
        if chain is None:
            return False
        context = self.context
        scoring = context.scoring
        schema = self.child.schema()
        names = scoring.predicate_names
        # Resolve evaluators and kernels on the statement thread — the
        # evaluator cache mutates on first use and is not task-safe.
        prepared = {
            name: (
                *context.evaluators.entry(name, schema),
                vectors.ranking_kernel(scoring.predicate(name), schema),
            )
            for name in names
        }
        sort_name = self.stats.name
        k = self.fetch_limit

        def finalize(batches: list[Batch], sink: ExecutionMetrics):
            stats = sink.stats_for(sort_name)
            items: list = []
            rids: list[Rid] = []
            rows: "list[Row] | None" = []
            scores: dict[str, list[float]] = {}
            for batch in batches:
                stats.tuples_in += len(batch)
                if rows is not None and batch.rows is not None:
                    rows.extend(batch.rows)
                else:
                    rows = None
                items.extend(batch.tuples())
                rids.extend(batch.rids)
                for name, vector in batch.scores.items():
                    scores.setdefault(name, []).extend(vector)
            n = len(items)
            missing = [
                name
                for name in names
                if name not in scores or len(scores[name]) != n
            ]
            if missing and n:
                whole = Batch(
                    schema,
                    rids,
                    rows=rows if rows is not None else None,
                    values=None if rows is not None else items,
                )
                for name in missing:
                    evaluate, cost, kernel = prepared[name]
                    scores[name] = vectors.score_vector(kernel, evaluate, whole)
                    sink.charge_predicate(cost, n)
            elif missing:
                for name in missing:
                    scores[name] = []
            score_columns = [scores[name] for name in names]
            bounds = [
                scoring.upper_bound(dict(zip(names, per_row)))
                for per_row in zip(*score_columns)
            ] if n else []
            if k is not None and k < n:
                order = heapq.nsmallest(
                    k, range(n), key=lambda i: (-bounds[i], rids[i])
                )
            else:
                order = sorted(range(n), key=lambda i: (-bounds[i], rids[i]))
            run = [
                (
                    bounds[i],
                    rids[i],
                    items[i],
                    tuple(scores[name][i] for name in names),
                )
                for i in order
            ]
            return n, rows is not None, run

        total = 0
        rows_kept = True
        runs = []
        for (count, kept, run), sink in morsels.run_tasks(
            chain.tasks(finalize), self._dop
        ):
            context.metrics.merge(sink)
            total += count
            rows_kept = rows_kept and kept
            if run:
                runs.append(run)
        n = total
        # The serial comparison formulas over the whole input, charged once
        # — simulated cost stays identical to the serial sort.
        if k is not None and k < n:
            context.metrics.charge_comparisons(
                int(n * max(1, math.log2(max(2, k))))
            )
            limit = k
        else:
            context.metrics.charge_comparisons(int(n * max(1, math.log2(n or 1))))
            limit = n
        ordered: list[tuple] = []
        for entry in heapq.merge(*runs, key=lambda e: (-e[0], e[1])):
            if len(ordered) >= limit:
                break
            ordered.append(entry)
        # When every morsel carried base rows, items *are* those Row
        # objects (Batch.tuples returns rows when present), matching the
        # serial carrier choice in both representations.
        self._ordered = (
            [(item, rid) for __, rid, item, __ in ordered],
            {
                name: [per_row[position] for __, __, __, per_row in ordered]
                for position, name in enumerate(names)
            },
            [bound for bound, __, __, __ in ordered],
        )
        self._rows_kept = rows_kept
        return True

    def _next_batch(self) -> Batch | None:
        if self._ordered is None:
            self._materialize()
        ordered, score_vectors, __ = self._ordered  # type: ignore[misc]
        start = self._position
        if start >= len(ordered):
            return None
        end = min(start + BATCH_SIZE, len(ordered))
        self._position = end
        chunk = ordered[start:end]
        rids = [rid for __, rid in chunk]
        sliced_scores = {
            name: vector[start:end] for name, vector in score_vectors.items()
        }
        if self._rows_kept:
            return Batch(
                self.schema(),
                rids,
                rows=[item for item, __ in chunk],
                scores=sliced_scores,
            )
        return Batch(
            self.schema(),
            rids,
            values=[item for item, __ in chunk],
            scores=sliced_scores,
        )

    def _close(self) -> None:
        self.child.close()
        self._ordered = None


# ----------------------------------------------------------------------
# the frontier adapter
# ----------------------------------------------------------------------

class BatchToRow(PhysicalOperator):
    """Adapter from a batch segment back to the rank-aware iterator world.

    Sits exactly where a rank-aware consumer begins.  It pulls batches from
    the segment root and re-emits them one :class:`ScoredRow` at a time,
    preserving tuple order (hence rid tie-order), evaluated scores, and the
    ``bound()`` / ``predicates()`` contracts of the operator it replaces:
    ``F_φ`` until exhausted for an unranked segment, the next pending
    tuple's score for a segment topped by :class:`BatchSort`.

    Moves are *not* re-charged here — the segment root already charged its
    emitted tuples — so a lowered plan's ``tuples_moved`` stays comparable
    to its row-mode equivalent.

    **Frontier vectorization.**  A rank-aware consumer can push per-tuple
    predicate work *down into* the adapter, where it runs once per batch
    instead of once per ``next()``:

    * :meth:`request_prescore` — a directly-enclosing µ registers its
      ranking predicate; each incoming batch gets the predicate evaluated
      as one score vector (NumPy-vectorized when the
      :mod:`~repro.execution.vectors` backend allows, a tight bulk loop
      otherwise) before any tuple crosses into the row world.  µ's
      idempotent-input path then consumes the scores without re-evaluating.
      Only accepted while the segment is unranked (``P = φ``): prescored
      values ride along as extra score entries, and the adapter's
      :meth:`bound` / :meth:`predicates` contracts keep describing the
      *segment's* predicate set, so the consumer's thresholds stay sound
      (an unranked stream gives no per-tuple order information, prescored
      or not).
    * :meth:`request_prefilter` — a directly-enclosing σ registers its
      Boolean condition; batches are filtered columnar-side before
      conversion.  Membership-only, order-preserving, and charged here
      (same evaluation count the row filter would have charged).

    **Morsel-driven parallelism.**  At ``parallelism > 1`` the adapter
    asks the segment root for a :class:`MorselChain` and drives it as one
    task per morsel on the shared pool (:mod:`repro.execution.morsels`),
    gathering per-morsel ``ScoredRow`` lists **in morsel order** — the
    order-restoring gather that keeps parallel output byte-identical to
    serial execution.  Frontier prefilters/prescores and the row
    conversion run inside the tasks.  Segments without a decomposition
    (e.g. topped by :class:`BatchSort`, which instead parallelizes its
    own materialization) fall back to the serial pull path transparently.
    """

    kind = "batchSegment"

    def __init__(self, source: BatchOperator, parallelism: int = 1):
        super().__init__()
        self.source = source
        #: the segment's costed degree of parallelism (1 = serial); at
        #: DOP > 1 the segment runs as morsel tasks on the shared pool
        #: with an order-restoring gather here at the frontier
        self.parallelism = max(1, int(parallelism))
        source.set_parallelism(self.parallelism)
        self._pending: list[ScoredRow] = []
        self._position = 0
        self._exhausted = False
        self._prescore: list[str] = []
        self._prescore_kernels: dict[str, tuple] = {}
        self._prefilters: list[BooleanPredicate] = []
        self._prefilter_compiled: list[tuple] = []
        self._driver: "Iterator | None" = None
        self._driver_started = False
        #: trace spans (None when the query is untraced): the segment
        #: span lives from open to close; the dispatch span covers the
        #: parallel morsel drain
        self._segment_span = None
        self._dispatch_span = None

    def describe(self) -> str:
        return f"batch[{self.source.describe()}]"

    def notify_limit(self, k: int) -> None:
        self.source.notify_limit(k)

    def schema(self) -> Schema:
        return self.source.schema()

    def predicates(self) -> frozenset[str]:
        return self.source.predicates()

    def column_order(self) -> str | None:
        return self.source.column_order()

    # -- frontier vectorization hooks -----------------------------------
    def request_prescore(self, predicate_name: str) -> bool:
        """Register a ranking predicate for per-batch evaluation.

        Accepted only while the segment is unranked (``P = φ``) — above a
        :class:`BatchSort` frontier every predicate is already evaluated,
        and a non-empty ``P`` would make the extra score entries interfere
        with the descending-order contract.
        """
        if self.source.predicates():
            return False
        if predicate_name not in self._prescore:
            self._prescore.append(predicate_name)
            schema = self.source.schema()
            evaluate, cost = self.context.evaluators.entry(predicate_name, schema)
            kernel = vectors.ranking_kernel(
                self.context.scoring.predicate(predicate_name), schema
            )
            self._prescore_kernels[predicate_name] = (evaluate, cost, kernel)
        return True

    def request_prefilter(
        self, condition: BooleanPredicate, stats: OperatorStats | None = None
    ) -> bool:
        """Register a Boolean condition to apply columnar-side per batch.

        ``stats`` is the pushing operator's record: its ``tuples_in`` is
        charged here for every tuple the prefilter examines, so the σ
        node's actual-input cardinality reads the same whether or not the
        condition was pushed down.
        """
        schema = self.source.schema()
        self._prefilters.append(condition)
        self._prefilter_compiled.append(
            (
                condition,
                condition.compile(schema),
                vectors.boolean_kernel(condition, schema),
                stats,
            )
        )
        return True

    def _prepare_batch(self, batch: Batch) -> Batch:
        """Apply registered prefilters and prescores to an incoming batch."""
        metrics = self.context.metrics
        for condition, evaluate, kernel, stats in self._prefilter_compiled:
            n = len(batch)
            if not n:
                break
            if stats is not None:
                stats.tuples_in += n
            metrics.charge_boolean(n, cost=condition.cost)
            keep = vectors.keep_indices(kernel, evaluate, batch)
            if len(keep) != n:
                batch = batch.select(keep)
        n = len(batch)
        if n:
            for name in self._prescore:
                if name in batch.scores:
                    continue  # already evaluated below (e.g. by BatchSort)
                evaluate, cost, kernel = self._prescore_kernels[name]
                batch.scores[name] = vectors.score_vector(kernel, evaluate, batch)
                metrics.charge_predicate(cost, n)
        return batch

    def bound(self) -> float:
        if self._position < len(self._pending):
            scored = self._pending[self._position]
            if self._prescore:
                # Prescored entries are a consumer-side cache, not part of
                # this operator's evaluated set P: the bound must keep
                # describing F_P (= F_φ here), because batch order carries
                # no information about the prescored predicate.
                own = self.predicates()
                return self.context.scoring.upper_bound(
                    {n: v for n, v in scored.scores.items() if n in own}
                )
            return self.context.upper_bound(scored)
        if self._exhausted:
            return -math.inf
        return self.source.bound_hint()

    def next(self) -> ScoredRow | None:
        # Overridden from PhysicalOperator: count tuples out but skip the
        # per-tuple move charge (see class docstring).
        if not self._opened:
            raise RuntimeError(f"{self.describe()}: next() before open()")
        scored = self._next()
        if scored is not None:
            assert self._stats is not None
            self._stats.tuples_out += 1
        return scored

    def _open(self) -> None:
        self.source.open(self.context)
        self._pending = []
        self._position = 0
        self._exhausted = False
        self._prescore = []
        self._prescore_kernels = {}
        self._prefilters = []
        self._prefilter_compiled = []
        self._driver = None
        self._driver_started = False
        self._dispatch_span = None
        tracer = getattr(self.context, "tracer", None)
        self._segment_span = (
            tracer.open_span(
                "batch_segment",
                segment=self.source.describe(),
                dop=self.parallelism,
            )
            if tracer is not None
            else None
        )

    def _start_driver(self) -> "Iterator | None":
        """Build the parallel morsel driver, or None for the serial path.

        Runs at the first ``next()`` — after the consumer registered its
        prescores/prefilters and λ_k announced its limit — so the morsel
        stages capture the final frontier configuration.  The driver
        yields ``(scored_rows, sink)`` per morsel **in morsel order**
        (the order-restoring gather), with at most ``parallelism``
        morsels in flight.
        """
        if self.parallelism <= 1:
            return None
        chain = self.source.morsel_chain()
        if chain is None:
            return None
        name = self.stats.name
        prefilters = [
            (
                condition,
                evaluate,
                kernel,
                stats.name if stats is not None else None,
            )
            for condition, evaluate, kernel, stats in self._prefilter_compiled
        ]
        prescore = list(self._prescore)
        prescore_kernels = dict(self._prescore_kernels)

        def finalize(batches: list[Batch], sink: ExecutionMetrics):
            # The morsel-side twin of _record_input + _prepare_batch +
            # to_scored_rows, charging the private sink under the same
            # operator names the serial path uses.
            started = time.perf_counter()
            stats = sink.stats_for(name)
            scored: list[ScoredRow] = []
            for batch in batches:
                stats.tuples_in += len(batch)
                for condition, evaluate, kernel, stats_name in prefilters:
                    n = len(batch)
                    if not n:
                        break
                    if stats_name is not None:
                        sink.stats_for(stats_name).tuples_in += n
                    sink.charge_boolean(n, cost=condition.cost)
                    keep = vectors.keep_indices(kernel, evaluate, batch)
                    if len(keep) != n:
                        batch = batch.select(keep)
                n = len(batch)
                if n:
                    for predicate_name in prescore:
                        if predicate_name in batch.scores:
                            continue
                        evaluate, cost, kernel = prescore_kernels[predicate_name]
                        batch.scores[predicate_name] = vectors.score_vector(
                            kernel, evaluate, batch
                        )
                        sink.charge_predicate(cost, n)
                    scored.extend(batch.to_scored_rows())
            stats.wall_seconds += time.perf_counter() - started
            return scored

        tasks = chain.tasks(finalize)
        if self._segment_span is not None:
            from ..observe.trace import Span

            dispatch = Span("morsel_dispatch")
            dispatch.attrs.update(
                morsels=len(tasks),
                dop=self.parallelism,
                backend=morsels.parallel_backend(),
            )
            self._segment_span.children.append(dispatch)
            self._dispatch_span = dispatch
        return morsels.run_tasks(tasks, self.parallelism)

    def _next(self) -> ScoredRow | None:
        while self._position >= len(self._pending):
            if self._exhausted:
                return None
            if not self._driver_started:
                self._driver_started = True
                self._driver = self._start_driver()
            if self._driver is not None:
                step = next(self._driver, None)
                if step is None:
                    self._exhausted = True
                    if self._dispatch_span is not None:
                        self._dispatch_span.finish()
                    return None
                scored, sink = step
                self.context.metrics.merge(sink)
                self._pending = scored
                self._position = 0
                continue
            started = time.perf_counter()
            batch = self.source.next_batch()
            if batch is None:
                self._exhausted = True
                self.stats.wall_seconds += time.perf_counter() - started
                return None
            self._record_input(len(batch))
            batch = self._prepare_batch(batch)
            self._pending = batch.to_scored_rows()
            self._position = 0
            self.stats.wall_seconds += time.perf_counter() - started
        scored = self._pending[self._position]
        self._position += 1
        return scored

    def _close(self) -> None:
        self.source.close()
        self._pending = []
        if self._dispatch_span is not None:
            self._dispatch_span.finish()
        if self._segment_span is not None:
            self._segment_span.finish()
            self._segment_span = None
        self._driver = None
