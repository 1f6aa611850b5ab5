"""The physical iterator protocol (Volcano model, rank-aware).

Physical operators follow the classical three-method interface (§4) —
:meth:`PhysicalOperator.open`, :meth:`PhysicalOperator.next`,
:meth:`PhysicalOperator.close` — with two rank-aware extensions:

* operators emit :class:`~repro.algebra.rank_relation.ScoredRow` streams in
  **descending maximal-possible-score order** (``F_P`` with respect to the
  operator's evaluated predicate set ``P``), realizing Definition 1; and
* every operator exposes :meth:`PhysicalOperator.bound`, an upper bound on
  the ``F_P`` score of *any tuple it may still emit*.  Consumers use the
  producer's bound as the emission threshold of the ranking principle
  (Property 1): a buffered tuple may leave only when no possible future
  tuple can score higher.

Ties are broken by row id *within* a ranking queue.  Across the queue and
the input, the buffering operators (µ, the rank-joins, the rank set-ops)
emit their top tuple as soon as its score *reaches* the threshold
(``peek_bound() >= threshold``, §4.1's rule), so an equal-score tuple with
a smaller row id that has not been drawn yet comes out after it: on exact
score ties a rank-aware plan's tie order can differ from the sort plan's
(``tests/execution/test_rank_ties.py`` records the case).

Each tuple's ``F_P`` is computed once, by whoever creates the scored row,
and cached on it (:meth:`ExecutionContext.upper_bound`).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Iterator, Mapping

from ..algebra.expressions import Evaluator
from ..algebra.predicates import ScoringFunction
from ..algebra.rank_relation import ScoredRow
from ..observe.trace import _NULL_CONTEXT
from ..storage.catalog import Catalog
from ..storage.schema import Schema
from .metrics import ExecutionMetrics, OperatorStats


class EvaluatorCache:
    """Compiled ranking-predicate evaluators, keyed by ``(name, schema)``.

    Compilation (column-position resolution, clamping closure construction)
    happens once per predicate/schema pair; the compiled closures are pure,
    so a cache may be shared across *executions* of the same plan — this is
    what makes a cached/prepared plan's warm runs skip recompilation
    entirely.  One cache must only ever be used with one scoring function.
    """

    __slots__ = ("scoring", "_compiled")

    def __init__(self, scoring: ScoringFunction):
        self.scoring = scoring
        #: (name, schema) -> (compiled evaluator, per-evaluation cost)
        self._compiled: dict[tuple[str, Schema], tuple[Evaluator, float]] = {}

    def __len__(self) -> int:
        return len(self._compiled)

    def entry(self, name: str, schema: Schema) -> tuple[Evaluator, float]:
        """The compiled ``(evaluator, cost)`` pair, compiling on first use."""
        key = (name, schema)
        hit = self._compiled.get(key)
        if hit is None:
            predicate = self.scoring.predicate(name)
            hit = (predicate.compile(schema), predicate.cost)
            self._compiled[key] = hit
        return hit


class ExecutionContext:
    """Shared state of one plan execution: catalog, scoring, metrics and
    bind-variable values.

    ``evaluators`` may be supplied to share compiled predicate evaluators
    across executions (the prepared-statement warm path); when omitted a
    private cache is created.  ``params`` are this execution's validated
    bind-variable values (``{slot key: value}``): row operators compile
    their conditions against them at open and a compiled segment's fused
    function reads them at call time, so the plan itself stays value-free.
    Per-run state — metrics and operator-naming counters — is reset by
    :meth:`begin_run`.

    **Isolation audit (the snapshot contract).**  ``catalog`` may be the
    live :class:`~repro.storage.catalog.Catalog` *or* a
    :class:`~repro.storage.snapshot.DatabaseSnapshot` — operators must
    reach table state exclusively through ``context.catalog.table(name)``
    and the returned object's read surface (``rows()``, ``columns()``,
    ``find_index()``, ``indexes``, ``schema`` …), never by caching a
    ``Table`` across runs or reaching into the catalog another way.  That
    single entry point is what makes a whole plan execute against the
    versions captured at admission.  Everything else a run touches is
    already isolation-safe: one context is built per execution (the engine
    and server never share one across concurrent statements), metrics are
    context-local, the evaluator cache is append-only with idempotent
    entries, and scoring/predicate objects are immutable registrations.
    """

    def __init__(
        self,
        catalog: Catalog,
        scoring: ScoringFunction,
        evaluators: EvaluatorCache | None = None,
        params: "Mapping[str, Any] | None" = None,
    ):
        self.catalog = catalog
        self.scoring = scoring
        self.params = params
        self.metrics = ExecutionMetrics()
        if evaluators is None:
            evaluators = EvaluatorCache(scoring)
        elif evaluators.scoring is not scoring:
            raise ValueError("evaluator cache belongs to a different scoring function")
        self.evaluators = evaluators
        self._naming: dict[str, int] = {}
        #: the owning query's tracer, set by the engine when a trace is
        #: active — how row and compiled operators report spans into the
        #: one per-query tree.  ``None`` (the default) keeps standalone
        #: contexts span-free.
        self.tracer = None

    def span(self, name: str, **attrs):
        """A child span under the active query trace (context manager
        yielding the span, or None when tracing is off).  Call per
        *phase* — a fused function call, say — never per tuple."""
        tracer = self.tracer
        if tracer is None:
            return _NULL_CONTEXT
        return tracer.span(name, **attrs)

    def begin_run(self) -> None:
        """Reset per-run state (operator-name counters) for a fresh execution.

        Without this, reusing a context across plan executions let
        ``unique_name`` counters leak: the second run's operators were named
        ``rank_p4#2`` and charged to fresh stats records while the compiled
        evaluators of dead schemas accumulated.  Compiled evaluators now live
        in the (deliberately shared) :class:`EvaluatorCache`; the naming
        counters are per-run and cleared here.  Metrics keep accumulating —
        a reused context measures the *total* work it has hosted.
        """
        self._naming.clear()

    def evaluate_predicate(self, name: str, row, schema: Schema) -> float:
        """Evaluate ranking predicate ``name`` on a row, charging its cost."""
        evaluate, cost = self.evaluators.entry(name, schema)
        self.metrics.charge_predicate(cost)
        return evaluate(row)

    def upper_bound(self, scored: ScoredRow) -> float:
        """``F_P[t]`` for a scored row (P = the keys of its score map).

        Computed once per tuple: the first caller (a scan, a µ push, a
        rank-join's merged row) stores the bound on the row, tagged with
        this run's scoring function, and every later consumer of the same
        row reads it back.  A row tagged with a different scoring function
        is recomputed (and retagged), never trusted.
        """
        scoring = self.scoring
        if scored.bound_of is scoring:
            return scored.bound
        bound = scored.bound = scoring.upper_bound(scored.scores)
        scored.bound_of = scoring
        return bound

    def unique_name(self, base: str) -> str:
        """A unique per-run operator instance name (``mu_p4``, ``mu_p4#2``)."""
        n = self._naming.get(base, 0)
        self._naming[base] = n + 1
        return base if n == 0 else f"{base}#{n + 1}"


class PhysicalOperator:
    """Base class of physical operators."""

    #: human-readable operator kind, overridden by subclasses
    kind = "operator"

    def __init__(self) -> None:
        self._context: ExecutionContext | None = None
        self._stats: OperatorStats | None = None
        self._opened = False

    # -- lifecycle ------------------------------------------------------
    def open(self, context: ExecutionContext) -> None:
        """Initialize; must be called before :meth:`next`."""
        self._context = context
        self._stats = context.metrics.stats_for(context.unique_name(self.describe()))
        self._opened = True
        self._open()

    def next(self) -> ScoredRow | None:
        """The next output tuple in descending ``F_P`` order, or None."""
        if not self._opened:
            raise RuntimeError(f"{self.describe()}: next() before open()")
        scored = self._next()
        if scored is not None:
            assert self._stats is not None
            self._stats.tuples_out += 1
            assert self._context is not None
            self._context.metrics.charge_move()
        return scored

    def close(self) -> None:
        """Release resources; idempotent."""
        if self._opened:
            self._close()
            self._opened = False

    # -- rank-aware extensions -------------------------------------------
    def bound(self) -> float:
        """Upper bound on the ``F_P`` score of any future output tuple."""
        raise NotImplementedError

    def schema(self) -> Schema:
        raise NotImplementedError

    def predicates(self) -> frozenset[str]:
        """The output rank-relation's evaluated predicate set ``P``."""
        raise NotImplementedError

    def column_order(self) -> str | None:
        """The column this operator's output is sorted on, if any — the
        System-R "interesting order" physical property."""
        return None

    def notify_limit(self, k: int) -> None:
        """Hint from a directly-enclosing λ_k that at most ``k`` tuples will
        ever be pulled.  Blocking operators (Sort, CompiledSegment) use it to
        keep a bounded top-k heap instead of fully sorting; everyone else
        ignores it.  Only :class:`~repro.execution.sort.Limit` may call this
        — a consumer that pulls past ``k`` (cursors) must build its plan
        without the λ, which never sends the hint."""

    def describe(self) -> str:
        return self.kind

    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    # -- subclass hooks ---------------------------------------------------
    def _open(self) -> None:
        raise NotImplementedError

    def _next(self) -> ScoredRow | None:
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

    def _record_input(self, count: int = 1) -> None:
        self.stats.tuples_in += count

    def iterate(self) -> Iterator[ScoredRow]:
        """Drain the operator as a Python iterator (after :meth:`open`)."""
        while True:
            scored = self.next()
            if scored is None:
                return
            yield scored


class RankingQueue:
    """A max-priority queue over scored rows, keyed by ``F_P`` then row id.

    This is the "ranking queue" every buffering rank-aware operator uses
    (§4.1).  Pop order equals the reference rank-relation order.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple[float, tuple, ScoredRow]] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, bound: float, scored: ScoredRow) -> None:
        heapq.heappush(self._heap, (-bound, scored.row.rid, scored))

    def peek_bound(self) -> float:
        """Score of the best buffered tuple (−inf when empty)."""
        if not self._heap:
            return -math.inf
        return -self._heap[0][0]

    def pop(self) -> ScoredRow:
        __, __, scored = heapq.heappop(self._heap)
        return scored


def run_plan(
    root: PhysicalOperator,
    context: ExecutionContext,
    k: int | None = None,
) -> list[ScoredRow]:
    """Open, pull up to ``k`` tuples (all when None), close; return them.

    This realizes the incremental execution model: pulling stops as soon as
    ``k`` results are reported, so work is proportional to ``k``.
    """
    return collect_plan(root, context, k)[1]


def collect_plan(
    root: PhysicalOperator,
    context: ExecutionContext,
    k: int | None = None,
) -> tuple[Schema, list[ScoredRow]]:
    """:func:`run_plan` that also captures the output schema (only
    observable while the plan is open) — the engine's result path."""
    context.begin_run()
    root.open(context)
    try:
        schema = root.schema()
        out: list[ScoredRow] = []
        while k is None or len(out) < k:
            scored = root.next()
            if scored is None:
                break
            out.append(scored)
        return schema, out
    finally:
        root.close()


def explain_physical(root: PhysicalOperator, indent: int = 0) -> str:
    """Pretty-print a physical plan tree."""
    lines = ["  " * indent + root.describe()]
    for child in root.children():
        lines.append(explain_physical(child, indent + 1))
    return "\n".join(lines)
