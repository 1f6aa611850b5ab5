"""The unified planner: parse → bind → optimize behind one interface.

Before this layer existed, ``engine/database.py`` wired the SQL front end
and the optimizers together ad hoc, re-running the full ``(SR, SP)`` DP
enumeration on every ``query()`` call.  :class:`Planner` owns that pipeline
as explicit stages:

1. **parse** — SQL text to AST (:mod:`repro.sql.parser`);
2. **bind** — AST to a canonical :class:`~repro.optimizer.query_spec.QuerySpec`;
3. **optimize** — spec to a physical :class:`~repro.optimizer.plans.PlanNode`
   by the one DP (:class:`~repro.optimizer.enumeration.RankAwareOptimizer`)
   under a named *strategy* (``rank-aware`` | ``traditional``, the DP
   without its ranking dimension) and explicit knobs;
4. **cache** — the chosen plan, keyed by the normalized signature, together
   with its compiled-evaluator cache so warm executions skip both
   enumeration and predicate recompilation.

Hand-built logical plans (:meth:`Planner.plan_logical`, the set-operation
path) skip the DP: the implementation rules of
:class:`~repro.optimizer.rule_based.RuleBasedOptimizer` map them bottom-up,
cheapest alternative per node, and nothing caches them.

The planner never executes plans — that remains the engine's job — and it
never mutates the catalog beyond what binding requires.  Any change to
tables, indexes or statistics must be reported via :meth:`invalidate`,
which bumps the planner *generation* and orphans every cached artifact.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from ..algebra.operators import LogicalOperator
from ..algebra.parameters import validate_params
from ..observe.trace import _NULL_CONTEXT
from ..execution.iterator import EvaluatorCache
from ..optimizer.cost_model import CostModel, plan_estimates
from ..optimizer.enumeration import RankAwareOptimizer
from ..optimizer.hybrid import decide_regimes
from ..optimizer.plans import PlanNode, ProjectPlan
from ..optimizer.query_spec import QuerySpec
from ..optimizer.rule_based import RuleBasedOptimizer
from ..optimizer.synopsis import JoinSynopsis, join_graph_key
from ..sql.binder import Binder
from ..sql.parser import parse
from ..storage.catalog import Catalog
from .cache import CachedPlan, PlanCache
from .signature import plan_signature

#: the optimization strategies: the DP with and without its ranking dimension
STRATEGIES = ("rank-aware", "traditional")

#: join synopses kept per planner (least recently used dropped first)
SYNOPSIS_CAPACITY = 64

#: optimizer arguments the planner supplies itself — never knobs
_ENGINE_ARGUMENTS = ("synopsis", "estimator", "params")

#: accepted ``execution`` modes — the one regime selector (per engine and
#: per statement):
#:
#: * ``"auto"`` — cost-governed: every sort-topped ``P = φ`` segment is
#:   priced as row and as compiled, and the cheaper regime wins;
#: * ``"row"`` — pure tuple-at-a-time (Volcano) execution;
#: * ``"compiled"`` — compile every supported segment; unsupported shapes
#:   run as their row plans.
EXECUTION_MODES = ("auto", "row", "compiled")


def normalize_execution(mode: str) -> str:
    """Validate and normalize an ``execution`` mode value."""
    if isinstance(mode, str):
        text = mode.strip().lower()
        if text in EXECUTION_MODES:
            return text
    raise ValueError(
        f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}"
    )


def _from_order(plan: PlanNode, spec: QuerySpec, catalog: Catalog) -> PlanNode:
    """``plan``, under a projection that lists a ``SELECT *``'s columns in
    FROM order when the cheapest join order scans its tables otherwise —
    so a statement's row layout never depends on the plan picked."""
    scans = [node.table for node in plan.walk() if not node.children]
    if (
        spec.projection is not None
        or scans == spec.tables
        or sorted(scans) != sorted(spec.tables)
    ):
        return plan
    return ProjectPlan(
        plan,
        [
            name
            for table in spec.tables
            for name in catalog.table(table).schema.qualified_names()
        ],
    )


@dataclass
class PlannerMetrics:
    """Counters over the planner's lifetime (cache stats live on the cache)."""

    binds: int = 0
    plans_built: int = 0
    prepares: int = 0
    invalidations: int = 0
    plan_seconds: float = 0.0
    #: plans built with at least one compiled (fused-function) segment
    plans_compiled: int = 0
    #: cumulative wall time spent generating + compiling fused functions
    compile_seconds: float = 0.0
    #: join synopses drawn (first use of a join graph, or a stale one)
    synopses_built: int = 0

    def summary(self) -> dict[str, float]:
        return {
            "binds": self.binds,
            "plans_built": self.plans_built,
            "prepares": self.prepares,
            "invalidations": self.invalidations,
            "plan_seconds": self.plan_seconds,
            "plans_compiled": self.plans_compiled,
            "compile_seconds": self.compile_seconds,
            "synopses_built": self.synopses_built,
        }


class Planner:
    """The staged query-planning pipeline over one catalog."""

    def __init__(
        self,
        catalog: Catalog,
        cache_capacity: int = 256,
        execution: str = "auto",
        tracer: Any = None,
    ):
        self.catalog = catalog
        self.cache = PlanCache(cache_capacity)
        #: the owning engine's :class:`~repro.observe.trace.Tracer`, when
        #: one is attached — the planner reports parse/bind/optimize/
        #: compile spans into the active query trace.
        self.tracer = tracer
        #: the execution regime selector (see EXECUTION_MODES).
        #: Overridable per statement via the ``execution=`` prepare knob.
        self.execution = normalize_execution(execution)
        self.metrics = PlannerMetrics()
        #: bumped on every invalidation; cached artifacts carry the value
        #: they were built under and are stale once it moves on
        self.generation = 0
        #: join graph -> its synopsis; survives invalidation (refreshed
        #: lazily when stale, see :meth:`synopsis`)
        self._synopses: dict[tuple, JoinSynopsis] = {}
        #: guards generation bumps, the caches and metric counters —
        #: the planner is shared by every concurrent session of a served
        #: database, so its bookkeeping must be race-free.  Optimization
        #: itself (the expensive part) runs outside the lock; two sessions
        #: missing on the same signature may both plan it, and the second
        #: ``cache.put`` simply wins — wasted work, never corruption.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # front end
    # ------------------------------------------------------------------
    def _span(self, name: str, **attrs: Any):
        """A tracing span under the active query trace (no-op context
        manager when no tracer is attached or no trace is active)."""
        if self.tracer is None:
            return _NULL_CONTEXT
        return self.tracer.span(name, **attrs)

    def bind(self, sql: str) -> QuerySpec:
        """Parse and bind a SQL string to a canonical query spec."""
        with self._lock:
            self.metrics.binds += 1
        with self._span("parse"):
            ast = parse(sql)
        with self._span("bind"):
            return Binder(self.catalog).bind(ast)

    def _resolve(self, query: "str | QuerySpec") -> QuerySpec:
        return self.bind(query) if isinstance(query, str) else query

    # ------------------------------------------------------------------
    # synopses (every optimizer's statistics)
    # ------------------------------------------------------------------
    def synopsis(self, spec: QuerySpec) -> JoinSynopsis:
        """The (cached) join synopsis for the spec's join graph: ranked
        cardinalities and selectivities for every strategy.

        It survives :meth:`invalidate`: a data commit leaves it in place
        until a covered table's row count drifts past
        :data:`~repro.optimizer.synopsis.DRIFT` or its table or index set
        changes, and only then is it drawn again."""
        key = join_graph_key(spec)
        with self._lock:
            synopsis = self._synopses.pop(key, None)
            if synopsis is None or synopsis.stale():
                synopsis = JoinSynopsis(self.catalog, spec.join_conditions)
                self.metrics.synopses_built += 1
            self._synopses[key] = synopsis
            while len(self._synopses) > SYNOPSIS_CAPACITY:
                del self._synopses[next(iter(self._synopses))]
            return synopsis

    def drop_synopses(self, table: str | None = None) -> None:
        """Forget the cached synopses covering ``table`` (every one without
        it), so the next statement draws its statistics afresh — what an
        explicit ANALYZE asks for, whatever the drift."""
        with self._lock:
            for key in list(self._synopses):
                if table is None or table in key[0]:
                    del self._synopses[key]

    @staticmethod
    def _check_knobs(knobs: dict[str, Any]) -> None:
        supplied = sorted(set(knobs) & set(_ENGINE_ARGUMENTS))
        if supplied:
            raise TypeError(f"not planner knobs: {supplied}")

    # ------------------------------------------------------------------
    # optimization
    # ------------------------------------------------------------------
    def optimizer(
        self, spec: QuerySpec, params: Any = None, **knobs: Any
    ) -> RankAwareOptimizer:
        """A rank-aware optimizer instance for a spec (for inspection),
        peeking ``params`` when the spec has parameters."""
        self._check_knobs(knobs)
        return RankAwareOptimizer(
            self.catalog,
            spec,
            synopsis=self.synopsis(spec),
            params=validate_params(spec.parameters, params),
            **knobs,
        )

    def plan(
        self,
        query: "str | QuerySpec",
        strategy: str = "rank-aware",
        use_cache: bool = True,
        params: Any = None,
        **knobs: Any,
    ) -> PlanNode:
        """Optimize a query under a strategy; returns the physical plan."""
        return self.prepare(
            query, strategy=strategy, use_cache=use_cache, params=params, **knobs
        )[0].plan

    def prepare(
        self,
        query: "str | QuerySpec",
        strategy: str = "rank-aware",
        use_cache: bool = True,
        params: Any = None,
        **knobs: Any,
    ) -> tuple[CachedPlan, bool]:
        """The full staged pipeline; returns ``(entry, was_cache_hit)``.

        SQL strings always pass through parse + bind (the cheap stages; the
        signature is computed from the bound spec).  On a hit, everything
        after — the DP enumeration and predicate compilation — is skipped:
        the entry carries the chosen plan and the compiled-evaluator cache
        shared by all of its executions.

        ``params`` are the bind-variable values for parameterized queries.
        The signature never covers them, so every binding of one template
        shares a single value-free cache entry; the entry returned is that
        template bound to ``params`` (:meth:`CachedPlan.bind
        <repro.planner.cache.CachedPlan.bind>`), so executing it needs no
        further values and no lock.  On a miss the values are also *peeked*:
        the optimizer receives them as an argument and evaluates the
        selections on the join synopsis's walk rows and uniform rows with
        them, so the first binding shapes the template plan — later
        bindings reuse it unchanged (standard bind-peeking semantics;
        correctness never depends on the peeked values, only plan quality).
        A parameterized query prepared without ``params`` raises
        :class:`~repro.algebra.parameters.ParameterError`.
        """
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        with self._lock:
            self.metrics.prepares += 1
            # One generation read serves the whole prepare: an invalidation
            # racing with this build just makes the entry stale-on-arrival
            # (dropped by the next get), never wrongly fresh.
            generation = self.generation
        spec = self._resolve(query)
        # Popped before the optimizer sees the knobs (the enumerators do
        # not take it) but folded into the signature: plans decided under
        # different execution regimes are different plans (a compiled
        # entry must never serve a row-mode session and vice versa).
        execution = normalize_execution(knobs.pop("execution", self.execution))
        signature = plan_signature(spec, strategy, dict(knobs, execution=execution))
        if use_cache:
            entry = self.cache.get(signature, generation)
            if entry is not None:
                return entry.bind(params), True
        values = validate_params(spec.parameters, params)
        start = time.perf_counter()
        with self._span("optimize", strategy=strategy):
            plan, cost_model = self._optimize(spec, strategy, knobs, values)
            plan = _from_order(plan, spec, self.catalog)
        decisions = None
        compiled_segments = 0
        compile_seconds = 0.0
        if execution != "row":
            # The execution regime as a costed post-pass: each sort-topped
            # P = φ segment runs compiled iff that prices cheaper (or is
            # forced).  Compilation happens once, here — every warm
            # execution of this cached entry reuses the artifact.
            with self._span("compile"):
                plan, decisions, compiled_segments, compile_seconds = (
                    decide_regimes(
                        plan, cost_model, forced=execution == "compiled"
                    )
                )
        estimates = plan_estimates(plan, cost_model)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.metrics.plan_seconds += elapsed
            self.metrics.plans_built += 1
            if compiled_segments:
                self.metrics.plans_compiled += 1
                self.metrics.compile_seconds += compile_seconds
        entry = CachedPlan(
            signature=signature,
            spec=spec,
            plan=plan,
            strategy=strategy,
            evaluators=EvaluatorCache(spec.scoring),
            generation=generation,
            k=spec.k,
            scoring=spec.scoring,
            decisions=decisions,
            estimates=estimates,
            plan_cost=elapsed,
            compiled_segments=compiled_segments,
            compile_seconds=compile_seconds,
        )
        if use_cache:
            self.cache.put(entry)
        return entry.bind(params), False

    def _optimize(
        self,
        spec: QuerySpec,
        strategy: str,
        knobs: dict[str, Any],
        params: dict[str, Any],
    ) -> tuple[PlanNode, CostModel]:
        """Run the DP under the strategy on the peeked ``params``; returns
        the plan *and* the cost model that priced it (the regime pass
        reuses it, so row-vs-compiled is judged by the same model that
        chose the plan)."""
        self._check_knobs(knobs)
        if strategy == "traditional":
            if knobs:
                raise TypeError(
                    f"traditional strategy takes no knobs, got {sorted(knobs)}"
                )
            knobs = {"enumerate_ranking": False}
        optimizer = RankAwareOptimizer(
            self.catalog, spec, synopsis=self.synopsis(spec), params=params, **knobs
        )
        return optimizer.optimize(), optimizer.cost_model

    def plan_logical(self, logical: LogicalOperator, spec: QuerySpec) -> PlanNode:
        """Implement a hand-built logical plan bottom-up, cheapest
        alternative per node (uncached — logical trees carry no normalized
        signature)."""
        start = time.perf_counter()
        with self._span("optimize"):
            optimizer = RuleBasedOptimizer(
                self.catalog, spec, synopsis=self.synopsis(spec)
            )
            plan = optimizer.optimize(logical)
        elapsed = time.perf_counter() - start
        with self._lock:
            self.metrics.plan_seconds += elapsed
            self.metrics.plans_built += 1
        return plan

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Orphan every cached plan (schema/data/stats changed).  Join
        synopses stay: each refreshes itself when stale."""
        with self._lock:
            self.generation += 1
            self.metrics.invalidations += 1
        self.cache.invalidate()
