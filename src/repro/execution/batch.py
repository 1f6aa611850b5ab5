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
* batch operators (:class:`BatchScan`, :class:`BatchColumnOrderScan`,
  :class:`BatchFilter`, :class:`BatchProject`, :class:`BatchHashJoin`,
  :class:`BatchSortMergeJoin`, :class:`BatchNestedLoopJoin`,
  :class:`BatchSort`) — vectorized equivalents of the row operators,
  producing the *same tuples in the same order* while charging
  :class:`~repro.execution.metrics.ExecutionMetrics` in per-batch
  increments (``charge_*(count)``) instead of one call per tuple.  Each
  writes its work once, as one piece of a :class:`MorselChain`: a source,
  an order-preserving per-batch stage, or a blocking phase;
* :class:`BatchToRow` — the adapter at the frontier where a rank-aware
  consumer begins: a :class:`~repro.execution.iterator.PhysicalOperator`
  that runs the segment's chain and unpacks batches back into
  ``ScoredRow`` tuples, preserving rid tie-order and the ``bound()`` /
  ``predicates()`` contracts.  At DOP 1 it walks the chain lazily, one
  batch per pull; at DOP > 1 it runs one task per morsel on the shared
  pool (:mod:`repro.execution.morsels`).

The planner's costed lowering pass
(:func:`repro.optimizer.hybrid.decide_batch_lowering`) swaps maximal
``P = φ`` descriptor subtrees onto this path where batch prices cheaper;
rank-aware operators (µ, HRJN/NRJN, rank set-ops, rank-scans) are never
lowered — batching them would destroy the incremental emission the
ranking principle is about.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
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
# the pipeline: sources, stages and morsel chains
# ----------------------------------------------------------------------
#
# Every batch segment runs as a MorselChain: a random-access source plus
# the per-batch stages of the operators stacked above it.  A blocking
# operator (hash build, sort-merge collection, nested-loop inner, sort)
# runs its input chain to completion as *runs* — the whole input as one
# run at DOP 1, one run per morsel on the shared pool otherwise —
# finalizes each run, merges the results in morsel order, and starts a
# new chain (the probe side's, or a source over its own output).
#
# Determinism contract: morsel boundaries partition the source in its
# emission order and every stage is order-preserving within a batch, so
# the ordered concatenation of per-morsel outputs is exactly the DOP-1
# output — rid tie-order included.
#
# Metrics contract: sources, stages and finalizers charge the sink they
# are handed, per batch and under their operator's stats name — the
# statement's metrics at DOP 1, a task-private ExecutionMetrics at DOP > 1
# (workers never touch shared state), merged on the statement thread as
# each morsel's result is gathered.  Charges that are formulas over the
# whole input (sort / merge-join comparison estimates) are applied once,
# by the merge step — so fully-drained totals are identical at every DOP.
# Per-operator wall_seconds is busy time everywhere: every source batch,
# stage call, finalizer and merge step is timed on its own (summed across
# workers at DOP > 1, so a DOP-4 node shows ~4× busy per elapsed second).


class _Stage:
    """One operator's order-preserving per-batch transform; returns None
    for a batch that left nothing to emit."""

    __slots__ = ("name", "fn")

    def __init__(
        self, name: str, fn: "Callable[[Batch, ExecutionMetrics], Batch | None]"
    ):
        self.name = name
        self.fn = fn

    def __call__(self, batch: Batch, sink: ExecutionMetrics) -> Batch | None:
        return self.fn(batch, sink)


def _emit(batch: Batch, name: str, sink: ExecutionMetrics) -> Batch:
    """Emission accounting: ``len(batch)`` tuples out of operator ``name``,
    each moved across one operator boundary."""
    count = len(batch)
    sink.stats_for(name).tuples_out += count
    sink.charge_move(count)
    return batch


class _Source:
    """A chain's source: parallel tuple vectors served in ``BATCH_SIZE``
    slices of any tuple range.

    It serves a table's columnar view (:class:`BatchScan`), a column-ordered
    row list (:class:`BatchColumnOrderScan`), or a blocking operator's
    materialized output (sort-merge join, and the score-ordered output of
    :class:`RankedFrontier`).  Scans charge their reads; every slice counts
    as operator ``name``'s emission.  A score-ordered output also carries
    each tuple's ``F`` (``bounds``), from which :meth:`bound_hint` reads the
    next pending tuple's.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rids: "list[Rid]",
        *,
        columns: "tuple[list, ...] | None" = None,
        values: "list[tuple] | None" = None,
        rows: "list[Row] | None" = None,
        scores: "dict[str, list[float]] | None" = None,
        bounds: "list[float] | None" = None,
        scanned: bool = False,
    ):
        self.name = name
        self.schema = schema
        self.rids = rids
        self.columns = columns
        self.values = values
        self.rows = rows
        self.scores = scores or {}
        self.bounds = bounds
        self.scanned = scanned
        #: end of the last slice served — the next pending tuple of an
        #: output walked in order (only score-ordered outputs are read)
        self.position = 0

    def __len__(self) -> int:
        return len(self.rids)

    def batches(self, start: int, stop: int, sink: ExecutionMetrics) -> Iterator[Batch]:
        columns, values, rows = self.columns, self.values, self.rows
        position = start
        while position < stop:
            end = min(position + BATCH_SIZE, stop)
            if self.scanned:
                sink.charge_scan(end - position)
            batch = Batch(
                self.schema,
                self.rids[position:end],
                columns=(
                    tuple(c[position:end] for c in columns)
                    if columns is not None
                    else None
                ),
                values=values[position:end] if values is not None else None,
                rows=rows[position:end] if rows is not None else None,
                scores={
                    name: vector[position:end]
                    for name, vector in self.scores.items()
                },
            )
            self.position = position = end
            yield _emit(batch, self.name, sink)

    def bound_hint(self) -> float:
        assert self.bounds is not None, "not a score-ordered output"
        if self.position >= len(self.bounds):
            return -math.inf
        return self.bounds[self.position]


class MorselChain:
    """A source plus the order-preserving stages stacked above it."""

    __slots__ = ("source", "stages")

    def __init__(self, source: _Source, stages: tuple[_Stage, ...] = ()):
        self.source = source
        self.stages = tuple(stages)

    def extended(self, stage: _Stage) -> "MorselChain":
        return MorselChain(self.source, self.stages + (stage,))

    def batches(self, start: int, stop: int, sink: ExecutionMetrics) -> Iterator[Batch]:
        """The surviving batches of source tuples ``[start, stop)``, pulled
        one at a time through every stage, charging ``sink`` and each
        operator's busy time."""
        source_stats = sink.stats_for(self.source.name)
        stages = [(stage, sink.stats_for(stage.name)) for stage in self.stages]
        iterator = self.source.batches(start, stop, sink)
        while True:
            started = time.perf_counter()
            batch = next(iterator, None)
            source_stats.wall_seconds += time.perf_counter() - started
            if batch is None:
                return
            for stage, stats in stages:
                started = time.perf_counter()
                batch = stage(batch, sink)
                stats.wall_seconds += time.perf_counter() - started
                if batch is None:
                    break
            else:
                yield batch

    def tasks(self, name: str, finalize: Callable) -> list:
        """One closure per morsel: it runs the morsel's batches on a private
        metrics sink, applies ``finalize(batches, sink)`` (timed as operator
        ``name``'s busy time) and returns ``(result, sink)``."""
        n = len(self.source)
        width = morsels.morsel_size()
        return [
            functools.partial(self._task, start, min(start + width, n), name, finalize)
            for start in range(0, n, width)
        ]

    def runs(
        self, name: str, finalize: Callable, dop: int, metrics: ExecutionMetrics
    ) -> list:
        """A blocking phase's per-run ``finalize`` results, in morsel order.

        At DOP 1 the whole input is a single run, charged straight to the
        statement's ``metrics``; otherwise each morsel is a run on the
        shared pool and its sink is merged into ``metrics`` as gathered.
        """
        if dop <= 1:
            return [self._finalize(0, len(self.source), name, finalize, metrics)]
        results = []
        for result, sink in morsels.run_tasks(self.tasks(name, finalize), dop):
            metrics.merge(sink)
            results.append(result)
        return results

    def _task(self, start: int, stop: int, name: str, finalize: Callable):
        sink = ExecutionMetrics()
        return self._finalize(start, stop, name, finalize, sink), sink

    def _finalize(self, start, stop, name, finalize, sink) -> Any:
        batches = list(self.batches(start, stop, sink))
        started = time.perf_counter()
        result = finalize(batches, sink)
        sink.stats_for(name).wall_seconds += time.perf_counter() - started
        return result


class BatchOperator:
    """Base class of batch (vector-at-a-time) operators.

    Lifecycle: ``open(context)`` registers the operator's stats under its
    unique name; :meth:`morsel_chain` — called once, at the frontier's
    first pull — returns the chain producing the operator's output;
    ``close()`` releases it.
    """

    kind = "batchOperator"

    def __init__(self) -> None:
        self._context: ExecutionContext | None = None
        self._stats: OperatorStats | None = None
        self._opened = False
        #: the segment's costed degree of parallelism (installed by
        #: :class:`BatchToRow` before open; 1 = one run on the statement
        #: thread)
        self._dop = 1

    # -- lifecycle ------------------------------------------------------
    def open(self, context: ExecutionContext) -> None:
        self._context = context
        self._stats = context.metrics.stats_for(context.unique_name(self.describe()))
        self._opened = True
        self._open()

    def close(self) -> None:
        if self._opened:
            self._close()
            self._opened = False

    # -- contracts -------------------------------------------------------
    def schema(self) -> Schema:
        raise NotImplementedError

    def predicates(self) -> frozenset[str]:
        """Evaluated ranking-predicate set ``P`` of the output (φ for every
        batch operator except a :class:`RankedFrontier`)."""
        return frozenset()

    def column_order(self) -> str | None:
        return None

    def bound_hint(self) -> float:
        """Upper bound on the ``F_P`` score of any tuple still to come
        (``F_φ`` for unranked operators)."""
        return self.context.scoring.max_possible()

    def notify_limit(self, k: int) -> None:
        """See :meth:`PhysicalOperator.notify_limit`; only a
        :class:`RankedFrontier` reacts."""

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

    def morsel_chain(self) -> MorselChain:
        """This operator's output as a source plus the stages above it.

        Called once, after ``open()``.  Blocking phases below (hash build,
        sort-merge collection, sort) run as a side effect — as one run at
        DOP 1, fanned out over morsels otherwise.
        """
        raise NotImplementedError

    # -- subclass hooks ---------------------------------------------------
    def _open(self) -> None:
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

    def _runs(self, child: "BatchOperator", finalize: Callable) -> list:
        """Run ``child``'s chain as this operator's blocking phase (see
        :meth:`MorselChain.runs`)."""
        return child.morsel_chain().runs(
            self.stats.name, finalize, self._dop, self.context.metrics
        )

    @contextlib.contextmanager
    def _busy(self):
        """Time a statement-thread step (a merge) as this operator's busy
        time."""
        started = time.perf_counter()
        yield
        self.stats.wall_seconds += time.perf_counter() - started


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

    def morsel_chain(self) -> MorselChain:
        view = self._view
        assert view is not None
        return MorselChain(
            _Source(
                self.stats.name,
                view.schema,
                view.rids,
                columns=view.columns,
                rows=view.rows,
                scanned=True,
            )
        )

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

    def morsel_chain(self) -> MorselChain:
        rows = self._rows
        assert rows is not None
        return MorselChain(
            _Source(
                self.stats.name,
                self.schema(),
                [r.rid for r in rows],
                rows=rows,
                scanned=True,
            )
        )

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

    def morsel_chain(self) -> MorselChain:
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
            if not keep:
                return None
            if len(keep) != n:
                batch = batch.select(keep)
            return _emit(batch, name, sink)

        return self.child.morsel_chain().extended(_Stage(name, stage))


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

    def morsel_chain(self) -> MorselChain:
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

        return self.child.morsel_chain().extended(_Stage(name, stage))


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
        self._left_position = -1

    def describe(self) -> str:
        return f"batchHashJoin({self.left_key}={self.right_key})"

    def _open(self) -> None:
        self._open_children()
        self._left_position = self.left.schema().index_of(self.left_key)

    def _build(self) -> dict[Any, list[tuple[tuple, Rid]]]:
        position = self.right.schema().index_of(self.right_key)
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

        # Merging the per-run partitions in morsel order reproduces both
        # the per-key partner order and the dict's key insertion order of
        # one build over the whole input exactly.
        partitions = self._runs(self.right, finalize)
        with self._busy():
            table = partitions[0] if partitions else {}
            for partition in partitions[1:]:
                for key, entries in partition.items():
                    table.setdefault(key, []).extend(entries)
        return table

    def morsel_chain(self) -> MorselChain:
        table = self._build()
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

        return self.left.morsel_chain().extended(_Stage(name, stage))


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

    def describe(self) -> str:
        return f"batchSMJ({self.left_key}={self.right_key})"

    def column_order(self) -> str | None:
        return self.left_key

    def _open(self) -> None:
        self._open_children()

    def _collect(
        self, side: BatchOperator, key_name: str
    ) -> tuple[list, list[tuple], list[Rid]]:
        """One input as (key vector, value tuples, rids) sorted by
        ``(key, rid)``: per-run sorts, k-way merged.  Rids are unique, so
        ``(key, rid)`` is a total order and the merge equals one global
        sort.  Sort comparisons over the whole input are charged unless
        the input already delivers the key's interesting order."""
        position = side.schema().index_of(key_name)
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
            order = sorted(range(len(keys)), key=lambda i: (keys[i], rids[i]))
            return (
                [keys[i] for i in order],
                [values[i] for i in order],
                [rids[i] for i in order],
            )

        runs = self._runs(side, finalize)
        with self._busy():
            total = sum(len(run[0]) for run in runs)
            if side.column_order() != key_name:
                self.context.metrics.charge_comparisons(
                    int(total * max(1, math.log2(total or 1)))
                )
            if len(runs) == 1:
                return runs[0]
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

    def morsel_chain(self) -> MorselChain:
        left_keys, left_values, left_rids = self._collect(self.left, self.left_key)
        right_keys, right_values, right_rids = self._collect(
            self.right, self.right_key
        )
        with self._busy():
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
            self.context.metrics.charge_comparisons(comparisons)
            self.context.metrics.charge_join_pair(pairs)
        return MorselChain(
            _Source(self.stats.name, self.schema(), out_rids, values=out_values)
        )


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
        self._evaluator: Evaluator | None = None

    def describe(self) -> str:
        name = self.condition.name if self.condition else "true"
        return f"batchNestLoop({name})"

    def _open(self) -> None:
        self._open_children()
        self._evaluator = (
            self.condition.compile(self.schema()) if self.condition else None
        )

    def _materialize_inner(self) -> tuple[list[tuple], list[Rid]]:
        name = self.stats.name

        def finalize(batches: list[Batch], sink: ExecutionMetrics):
            stats = sink.stats_for(name)
            values: list[tuple] = []
            rids: list[Rid] = []
            for batch in batches:
                stats.tuples_in += len(batch)
                values.extend(batch.value_tuples())
                rids.extend(batch.rids)
            return values, rids

        runs = self._runs(self.right, finalize)
        with self._busy():
            values = [value for part, __ in runs for value in part]
            rids = [rid for __, part in runs for rid in part]
        return values, rids

    def morsel_chain(self) -> MorselChain:
        inner_values, inner_rids = self._materialize_inner()
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

        return self.left.morsel_chain().extended(_Stage(name, stage))


# ----------------------------------------------------------------------
# the ranked frontier (sort, and the compiled segment source)
# ----------------------------------------------------------------------

class RankedFrontier(BatchOperator):
    """A blocking segment root that emits in rank order.

    Its :meth:`_materialize` runs the segment and returns every tuple with
    all ranking predicates evaluated, in ``(−F, rid)`` order — only the
    top ``fetch_limit`` when a directly-enclosing λ_k announced its ``k``
    via :meth:`notify_limit` (cursor plans strip the λ and therefore always
    get the full ordering).  That output is served as a score-ordered
    :class:`_Source`, so ``P`` is the full predicate set and the bound hint
    is the next pending tuple's ``F``.
    """

    def __init__(self, fetch_limit: int | None = None):
        super().__init__()
        self.fetch_limit = fetch_limit
        self._output: _Source | None = None

    def notify_limit(self, k: int) -> None:
        if self.fetch_limit is None:
            self.fetch_limit = k

    def predicates(self) -> frozenset[str]:
        return frozenset(self.context.scoring.predicate_names)

    def bound_hint(self) -> float:
        if self._output is None:
            return self.context.scoring.max_possible()
        return self._output.bound_hint()

    def morsel_chain(self) -> MorselChain:
        self._output = self._materialize()
        return MorselChain(self._output)

    def _materialize(self) -> _Source:
        raise NotImplementedError

    def _ordered_source(
        self,
        items: list,
        rids: "list[Rid]",
        rows_kept: bool,
        scores: dict[str, list[float]],
        bounds: list[float],
    ) -> _Source:
        """The output source over rank-ordered carriers: base ``Row``
        objects when ``rows_kept``, plain value tuples otherwise."""
        return _Source(
            self.stats.name,
            self.schema(),
            rids,
            rows=items if rows_kept else None,
            values=None if rows_kept else items,
            scores=scores,
            bounds=bounds,
        )

    def _close(self) -> None:
        super()._close()
        self._output = None


class BatchSort(RankedFrontier):
    """Blocking τ_F over batches: drain, evaluate every remaining ranking
    predicate as a score vector, argsort by ``(−F, rid)``, emit in rank
    order with the score vectors attached — like the row
    :class:`~repro.execution.sort.Sort`, a bounded top-k under λ_k.
    """

    kind = "batchSort"

    def __init__(self, child: BatchOperator, fetch_limit: int | None = None):
        super().__init__(fetch_limit)
        self.child = child

    def describe(self) -> str:
        if self.fetch_limit is not None:
            return f"batchSort(top {self.fetch_limit})"
        return "batchSort"

    def children(self) -> tuple[BatchOperator, ...]:
        return (self.child,)

    def schema(self) -> Schema:
        return self.child.schema()

    def _open(self) -> None:
        self.child.open(self.context)

    def _materialize(self) -> _Source:
        """Per-run score + sort (+ top-k), k-way merged by the same
        ``(-F, rid)`` total order, so every DOP yields one sort's output."""
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
            items: list = []  # Row objects or value tuples, kept per-source
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
            # One synthetic batch over the whole run lets the vector
            # kernels (and the bulk python loop) score each remaining
            # predicate column-wise in a single pass.
            whole = Batch(
                schema, rids, rows=rows, values=None if rows is not None else items
            )
            for name in names:
                if name in scores and len(scores[name]) == n:
                    continue
                evaluate, cost, kernel = prepared[name]
                scores[name] = (
                    vectors.score_vector(kernel, evaluate, whole) if n else []
                )
                sink.charge_predicate(cost, n)
            # Per-row F via the same upper_bound arithmetic as the row
            # path, so scores (and the order they induce) are bit-identical.
            score_columns = [scores[name] for name in names]
            bounds = [
                scoring.upper_bound(dict(zip(names, per_row)))
                for per_row in zip(*score_columns)
            ]
            if k is not None and k < n:
                order = heapq.nsmallest(
                    k, range(n), key=lambda i: (-bounds[i], rids[i])
                )
            else:
                order = sorted(range(n), key=lambda i: (-bounds[i], rids[i]))
            return (
                n,
                rows is not None,
                [bounds[i] for i in order],
                [rids[i] for i in order],
                [items[i] for i in order],
                [[column[i] for i in order] for column in score_columns],
            )

        runs = self._runs(self.child, finalize)
        with self._busy():
            n = sum(run[0] for run in runs)
            # The comparison formulas over the whole input, charged once —
            # simulated cost is the same at every DOP.
            if k is not None and k < n:
                context.metrics.charge_comparisons(
                    int(n * max(1, math.log2(max(2, k))))
                )
                limit = k
            else:
                context.metrics.charge_comparisons(
                    int(n * max(1, math.log2(n or 1)))
                )
                limit = n
            if len(runs) == 1:
                __, __, bounds, rids, items, score_columns = runs[0]
            else:
                merged = itertools.islice(
                    heapq.merge(
                        *(zip(run[2], run[3], run[4], *run[5]) for run in runs),
                        key=lambda entry: (-entry[0], entry[1]),
                    ),
                    limit,
                )
                columns = [list(column) for column in zip(*merged)]
                bounds, rids, items, *score_columns = columns or [
                    [] for __ in range(3 + len(names))
                ]
        # When every run carried base rows, items *are* those Row objects
        # (Batch.tuples returns rows when present).
        return self._ordered_source(
            items,
            rids,
            all(run[1] for run in runs),
            dict(zip(names, score_columns)),
            bounds,
        )


# ----------------------------------------------------------------------
# the frontier adapter
# ----------------------------------------------------------------------

def _scored_rows(batches: list[Batch], sink: ExecutionMetrics) -> list[ScoredRow]:
    """The frontier conversion of a run of batches (a morsel finalizer)."""
    return [scored for batch in batches for scored in batch.to_scored_rows()]


class BatchToRow(PhysicalOperator):
    """Adapter from a batch segment back to the rank-aware iterator world.

    Sits exactly where a rank-aware consumer begins.  It runs the segment
    root's :class:`MorselChain` and re-emits its batches one
    :class:`ScoredRow` at a time, preserving tuple order (hence rid
    tie-order), evaluated scores, and the ``bound()`` / ``predicates()``
    contracts of the operator it replaces: ``F_φ`` until exhausted for an
    unranked segment, the next pending tuple's score for a segment topped
    by a :class:`RankedFrontier`.

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

    Both run as the adapter's own stage at the top of the chain.

    **Execution.**  At the first ``next()`` — after λ_k announced its
    limit and the consumer registered its prescores/prefilters — the
    adapter asks the segment root for its chain.  At DOP 1 it walks the
    chain lazily on the statement thread, one batch per pull.  At
    ``parallelism > 1`` it runs one task per morsel on the shared pool and
    gathers per-morsel ``ScoredRow`` lists **in morsel order** — the
    order-restoring gather that keeps parallel output byte-identical to
    DOP 1.  A ranked segment root has already done its blocking work (in
    parallel at DOP > 1) and is always walked lazily, so :meth:`bound`
    can follow its next pending score.
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
        self._prefilter_compiled: list[tuple] = []
        self._driver: "Iterator[list[ScoredRow]] | None" = None
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
        :class:`RankedFrontier` every predicate is already evaluated, and
        a non-empty ``P`` would make the extra score entries interfere
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
        self._prefilter_compiled.append(
            (
                condition,
                condition.compile(schema),
                vectors.boolean_kernel(condition, schema),
                stats.name if stats is not None else None,
            )
        )
        return True

    def _frontier_stage(self) -> _Stage:
        """The adapter's own per-batch work: count the input, then apply
        the registered prefilters and prescores (captured now, at the first
        pull, so the stage sees the final frontier configuration)."""
        name = self.stats.name
        prefilters = list(self._prefilter_compiled)
        prescores = [
            (predicate_name, *self._prescore_kernels[predicate_name])
            for predicate_name in self._prescore
        ]

        def stage(batch: Batch, sink: ExecutionMetrics) -> Batch | None:
            sink.stats_for(name).tuples_in += len(batch)
            for condition, evaluate, kernel, stats_name in prefilters:
                n = len(batch)
                if stats_name is not None:
                    sink.stats_for(stats_name).tuples_in += n
                sink.charge_boolean(n, cost=condition.cost)
                keep = vectors.keep_indices(kernel, evaluate, batch)
                if not keep:
                    return None
                if len(keep) != n:
                    batch = batch.select(keep)
            for predicate_name, evaluate, cost, kernel in prescores:
                if predicate_name in batch.scores:
                    continue  # already evaluated below (e.g. by BatchSort)
                batch.scores[predicate_name] = vectors.score_vector(
                    kernel, evaluate, batch
                )
                sink.charge_predicate(cost, len(batch))
            return batch

        return _Stage(name, stage)

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
        self._prefilter_compiled = []
        self._driver = None
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

    def _drive(self) -> Iterator[list[ScoredRow]]:
        """The segment's output as ``ScoredRow`` lists, in order: one per
        batch when walked lazily, one per morsel when run on the pool
        (at most ``parallelism`` morsels in flight)."""
        chain = self.source.morsel_chain().extended(self._frontier_stage())
        metrics = self.context.metrics
        if self.parallelism <= 1 or self.source.predicates():
            stats = self.stats
            for batch in chain.batches(0, len(chain.source), metrics):
                started = time.perf_counter()
                scored = batch.to_scored_rows()
                stats.wall_seconds += time.perf_counter() - started
                yield scored
            return
        tasks = chain.tasks(self.stats.name, _scored_rows)
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
        for scored, sink in morsels.run_tasks(tasks, self.parallelism):
            metrics.merge(sink)
            yield scored
        if self._dispatch_span is not None:
            self._dispatch_span.finish()

    def _next(self) -> ScoredRow | None:
        while self._position >= len(self._pending):
            if self._exhausted:
                return None
            if self._driver is None:
                self._driver = self._drive()
            scored = next(self._driver, None)
            if scored is None:
                self._exhausted = True
                return None
            self._pending = scored
            self._position = 0
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
