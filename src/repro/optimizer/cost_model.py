"""Cost model for ranking query plans.

Costs are expressed in the same abstract units the execution engine's
metrics charge (:mod:`repro.execution.metrics`), so estimated and measured
costs are directly comparable.

Two cardinalities drive the model:

* **full cardinality** — the classical, k-independent output size of the
  operator (System-R style: table sizes × selectivities).  It governs
  *blocking* regions of a plan: below a Sort or a classical join everything
  is drained completely.
* **ranked (k-sensitive) cardinality** — the estimator's count of how many
  tuples the operator must emit for the query's top-k (the join synopsis,
  :mod:`repro.optimizer.synopsis`, in the engine; §5.2's table samples in
  the reproduced baseline); it governs the incremental regions.

An operator consumes its child's *ranked* cardinality when the child
delivers an informative descending stream (some predicate evaluated below),
and the child's *full* cardinality otherwise — a child with ``P = φ`` ties
every tuple at the maximal score, so any buffering consumer drains it.
"""

from __future__ import annotations

from ..algebra.expressions import ColumnRef
from ..algebra.predicates import BooleanPredicate, ScoringFunction
from ..execution.metrics import (
    BOOLEAN_EVAL_UNIT,
    COMPARE_UNIT,
    JOIN_PAIR_UNIT,
    MOVE_UNIT,
    SCAN_UNIT,
)
from ..storage.catalog import Catalog
from .cardinality import CardinalityEstimator
from .plans import (
    BatchSegmentPlan,
    ColumnOrderScanPlan,
    FilterPlan,
    HRJNPlan,
    HashJoinPlan,
    LimitPlan,
    MuPlan,
    NRJNPlan,
    NestedLoopJoinPlan,
    PlanNode,
    ProjectPlan,
    RankDifferencePlan,
    RankIntersectPlan,
    RankScanPlan,
    RankUnionPlan,
    ScanSelectPlan,
    SeqScanPlan,
    SortMergeJoinPlan,
    SortPlan,
)
from .query_spec import QuerySpec
from .synopsis import FullCardinalities, SynopsisEstimator

import math

#: Default selectivity for join conditions the model cannot analyze.
DEFAULT_JOIN_SELECTIVITY = 0.1
#: Per-tuple priority-queue maintenance cost inside buffering operators.
QUEUE_UNIT = 0.02

# ---------------------------------------------------------------------------
# Compiled-regime units.
#
# The *simulated* runtime cost (execution/metrics.py) is the same in both
# regimes: compilation changes how fast tuples move, not how many
# operations happen.  What the fused function removes is per-tuple
# *dispatch* — one Python operator call, one metrics charge, one ScoredRow
# per tuple per operator — which the row regime's ``MOVE_UNIT`` stands in
# for.  The compiled regime replaces that per-tuple term with plain-loop
# handling, plus a one-off setup unit for emitting and compiling the
# function (amortized across every execution of the cached template, but
# enough to keep one-shot tiny segments from compiling for nothing).
# These units exist so the optimizer can price the two regimes against
# each other; they are never charged at runtime.
# ---------------------------------------------------------------------------

#: per tuple flowing through the fused loop body
COMPILED_TUPLE_UNIT = 0.002
#: fixed per-segment cost of emitting + compiling the fused function,
#: amortized over the cached plan's lifetime
COMPILED_SETUP_UNIT = 8.0
#: per tuple the compiled segment emits into the row world as a ScoredRow
COMPILED_EMIT_UNIT = 0.015

_BLOCKING = (SortPlan, SortMergeJoinPlan, HashJoinPlan, NestedLoopJoinPlan)


def plan_estimates(
    plan: PlanNode, cost_model: "CostModel"
) -> dict[str, tuple[float, float]]:
    """``fingerprint -> (estimated rows, estimated cost)`` for every node
    of ``plan``, as ``cost_model`` priced them — what EXPLAIN ANALYZE and
    plan feedback compare actuals against."""
    return {
        node.fingerprint(): (cost_model.production(node), cost_model.cost(node))
        for node in plan.walk()
    }


class CostModel:
    """Plan costing bound to one query (via its cardinality estimator)."""

    def __init__(
        self,
        catalog: Catalog,
        spec: QuerySpec,
        estimator: "SynopsisEstimator | FullCardinalities | CardinalityEstimator",
    ):
        self.catalog = catalog
        self.spec = spec
        self.scoring: ScoringFunction = spec.scoring
        self.estimator = estimator
        self._full_memo: dict[str, float] = {}
        self._production_memo: dict[tuple, float] = {}
        self._cost_memo: dict[tuple, float] = {}
        self._selectivity_memo: dict[str, float] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def cost(self, plan: PlanNode) -> float:
        """Estimated execution cost of the (sub)plan in abstract units."""
        return self._cost(plan, drained=False)

    def full_cardinality(self, plan: PlanNode) -> float:
        """Classical (k-independent) output cardinality estimate."""
        key = plan.fingerprint()
        if key not in self._full_memo:
            self._full_memo[key] = self._full(plan)
        return self._full_memo[key]

    def ranked_cardinality(self, plan: PlanNode) -> float:
        """k-sensitive output cardinality, from the estimator: the join
        synopsis in the engine, §5.2's table samples in the baseline."""
        return self.estimator.estimate(plan)

    def production(self, plan: PlanNode, drained: bool = False) -> float:
        """How many tuples this node emits in context.

        Ranked (k-sensitive) when the node delivers an informative
        descending stream; full otherwise.
        """
        key = (plan.fingerprint(), drained)
        value = self._production_memo.get(key)
        if value is None:
            value = self.full_cardinality(plan)
            if not drained and plan.is_ranked and plan.rank_predicates:
                value = min(self.ranked_cardinality(plan), value)
            self._production_memo[key] = value
        return value

    # ------------------------------------------------------------------
    # selectivities
    # ------------------------------------------------------------------
    def selection_selectivity(self, condition: BooleanPredicate) -> float:
        """Fraction of tuples satisfying a single-table condition (the
        estimator's: the join synopsis's uniform rows in the engine)."""
        key = condition.name
        fraction = self._selectivity_memo.get(key)
        if fraction is None:
            tables = condition.tables()
            fraction = 0.5
            if len(tables) == 1:
                (table,) = tables
                fraction = self.estimator.selectivity(table, condition.expression)
            self._selectivity_memo[key] = fraction
        return fraction

    def join_selectivity(self, left_key: str, right_key: str) -> float:
        """Classical equi-join selectivity ``1 / max(V(R,a), V(S,b))``."""
        left_table, __, left_col = left_key.partition(".")
        right_table, __, right_col = right_key.partition(".")
        try:
            left_stats = self.catalog.stats(left_table)
            right_stats = self.catalog.stats(right_table)
        except Exception:
            return DEFAULT_JOIN_SELECTIVITY
        return left_stats.join_selectivity(left_col, right_stats, right_col)

    # ------------------------------------------------------------------
    # full (k-independent) cardinalities
    # ------------------------------------------------------------------
    def _table_size(self, table: str) -> float:
        return float(self.catalog.table(table).row_count)

    def _full(self, plan: PlanNode) -> float:
        if isinstance(plan, BatchSegmentPlan):
            # The compiled twin produces the identical tuples.
            return self.full_cardinality(plan.inner)
        if isinstance(plan, (SeqScanPlan, RankScanPlan, ColumnOrderScanPlan)):
            return self._table_size(plan.table)
        if isinstance(plan, ScanSelectPlan):
            # the fraction of rows whose Boolean key is true
            key = ColumnRef(plan.bool_column)
            return self._table_size(plan.table) * self.estimator.selectivity(
                plan.table, key
            )
        if isinstance(plan, FilterPlan):
            return self.full_cardinality(plan.children[0]) * self.selection_selectivity(
                plan.condition
            )
        if isinstance(plan, (MuPlan, ProjectPlan, SortPlan)):
            return self.full_cardinality(plan.children[0])
        if isinstance(plan, LimitPlan):
            return min(plan.k, self.full_cardinality(plan.children[0]))
        if isinstance(plan, (HRJNPlan, SortMergeJoinPlan, HashJoinPlan)):
            left, right = plan.children
            sel = self.join_selectivity(plan.left_key, plan.right_key)
            return self.full_cardinality(left) * self.full_cardinality(right) * sel
        if isinstance(plan, (NRJNPlan, NestedLoopJoinPlan)):
            left, right = plan.children
            sel = DEFAULT_JOIN_SELECTIVITY if getattr(plan, "condition", None) else 1.0
            return self.full_cardinality(left) * self.full_cardinality(right) * sel
        if isinstance(plan, RankUnionPlan):
            left, right = plan.children
            return self.full_cardinality(left) + self.full_cardinality(right)
        if isinstance(plan, RankIntersectPlan):
            left, right = plan.children
            return min(self.full_cardinality(left), self.full_cardinality(right))
        if isinstance(plan, RankDifferencePlan):
            return self.full_cardinality(plan.children[0])
        raise TypeError(f"unknown plan node: {type(plan).__name__}")

    # ------------------------------------------------------------------
    # cost
    # ------------------------------------------------------------------
    def _cost(self, plan: PlanNode, drained: bool) -> float:
        key = (plan.fingerprint(), drained)
        if key in self._cost_memo:
            return self._cost_memo[key]
        value = self._cost_inner(plan, drained)
        self._cost_memo[key] = value
        return value

    def _consumed(self, child: PlanNode, drained: bool) -> float:
        return self.production(child, drained)

    @staticmethod
    def _order_matches(order: str | None, key: str) -> bool:
        return order is not None and order == key

    def _predicate_cost(self, name: str) -> float:
        return self.scoring.predicate(name).cost

    def _cost_inner(self, plan: PlanNode, drained: bool) -> float:
        if isinstance(plan, BatchSegmentPlan):
            return self.compiled_segment_cost(plan.inner, drained)

        child_drained = drained or isinstance(plan, _BLOCKING)
        children_cost = sum(self._cost(c, child_drained) for c in plan.children)

        if isinstance(plan, (SeqScanPlan, RankScanPlan, ColumnOrderScanPlan, ScanSelectPlan)):
            return self.production(plan, drained) * SCAN_UNIT

        if isinstance(plan, FilterPlan):
            n_in = self._consumed(plan.children[0], child_drained)
            return children_cost + n_in * (plan.condition.cost + MOVE_UNIT)

        if isinstance(plan, ProjectPlan):
            n_in = self._consumed(plan.children[0], child_drained)
            return children_cost + n_in * MOVE_UNIT

        if isinstance(plan, MuPlan):
            n_in = self._consumed(plan.children[0], child_drained)
            return children_cost + n_in * (
                self._predicate_cost(plan.predicate_name) + MOVE_UNIT + QUEUE_UNIT
            )

        if isinstance(plan, SortPlan):
            n_in = self.full_cardinality(plan.children[0])
            missing = frozenset(self.scoring.predicate_names) - plan.children[0].rank_predicates
            predicate_cost = sum(self._predicate_cost(name) for name in missing)
            sort_cost = n_in * max(1.0, math.log2(n_in or 1)) * COMPARE_UNIT
            return children_cost + n_in * (predicate_cost + MOVE_UNIT) + sort_cost

        if isinstance(plan, LimitPlan):
            n_out = self.production(plan, drained)
            return children_cost + n_out * MOVE_UNIT

        if isinstance(plan, HRJNPlan):
            left, right = plan.children
            n_left = self._consumed(left, child_drained)
            n_right = self._consumed(right, child_drained)
            sel = self.join_selectivity(plan.left_key, plan.right_key)
            pairs = sel * n_left * n_right
            return children_cost + (n_left + n_right) * (MOVE_UNIT + QUEUE_UNIT) + (
                pairs * JOIN_PAIR_UNIT
            )

        if isinstance(plan, NRJNPlan):
            left, right = plan.children
            n_left = self._consumed(left, child_drained)
            n_right = self._consumed(right, child_drained)
            pairs = n_left * n_right
            return children_cost + (n_left + n_right) * (MOVE_UNIT + QUEUE_UNIT) + (
                pairs * (JOIN_PAIR_UNIT + plan.condition.cost)
            )

        if isinstance(plan, SortMergeJoinPlan):
            left, right = plan.children
            n_left = self.full_cardinality(left)
            n_right = self.full_cardinality(right)
            # Interesting orders: a child already sorted on its join key
            # needs no sort (System-R's physical-property benefit).
            sort_cost = 0.0
            for child, key, n in (
                (left, plan.left_key, n_left),
                (right, plan.right_key, n_right),
            ):
                if not self._order_matches(child.column_order, key):
                    sort_cost += n * max(1.0, math.log2(n or 1)) * COMPARE_UNIT
            pairs = self.full_cardinality(plan)
            return children_cost + sort_cost + (n_left + n_right) * MOVE_UNIT + (
                pairs * JOIN_PAIR_UNIT
            )

        if isinstance(plan, HashJoinPlan):
            left, right = plan.children
            n_left = self.full_cardinality(left)
            n_right = self.full_cardinality(right)
            pairs = self.full_cardinality(plan)
            return children_cost + (n_left + n_right) * MOVE_UNIT + pairs * JOIN_PAIR_UNIT

        if isinstance(plan, NestedLoopJoinPlan):
            left, right = plan.children
            n_left = self.full_cardinality(left)
            n_right = self.full_cardinality(right)
            pairs = n_left * n_right
            extra = BOOLEAN_EVAL_UNIT if plan.condition else 0.0
            return children_cost + pairs * (JOIN_PAIR_UNIT + extra)

        if isinstance(plan, (RankUnionPlan, RankIntersectPlan, RankDifferencePlan)):
            left, right = plan.children
            n_left = self._consumed(left, child_drained)
            n_right = self._consumed(right, child_drained)
            missing = frozenset(self.scoring.predicate_names) - plan.rank_predicates
            completion = sum(self._predicate_cost(name) for name in missing)
            return children_cost + (n_left + n_right) * (
                MOVE_UNIT + QUEUE_UNIT + completion
            )

        raise TypeError(f"unknown plan node: {type(plan).__name__}")

    # ------------------------------------------------------------------
    # compiled-regime cost (the fused-function twin of _cost_inner)
    # ------------------------------------------------------------------
    def compiled_segment_cost(self, inner: PlanNode, drained: bool = False) -> float:
        """Cost of a sort-topped segment executed as one compiled fused
        function — the alternative priced against the row plan.

        Includes the per-segment compile setup and the conversion of each
        emitted tuple into a ``ScoredRow``.  Only the node kinds the code
        generator supports are priced; callers must guard with
        :func:`repro.execution.codegen.supports`.
        """
        key = ("compiled-segment", inner.fingerprint(), drained)
        if key in self._cost_memo:
            return self._cost_memo[key]
        n_out = self.production(inner, drained)
        value = (
            self._compiled_cost(inner, drained)
            + COMPILED_SETUP_UNIT
            + n_out * COMPILED_EMIT_UNIT
        )
        self._cost_memo[key] = value
        return value

    def _compiled_cost(self, plan: PlanNode, drained: bool) -> float:
        key = ("compiled", plan.fingerprint(), drained)
        if key in self._cost_memo:
            return self._cost_memo[key]
        value = self._compiled_cost_inner(plan, drained)
        self._cost_memo[key] = value
        return value

    def _compiled_cost_inner(self, plan: PlanNode, drained: bool) -> float:
        """The fused-loop twin of ``_cost_inner``: the same cardinality
        and predicate/join/sort work terms (the algorithms are identical),
        but per-tuple handling at COMPILED_TUPLE_UNIT instead of
        ``MOVE_UNIT``."""
        child_drained = drained or isinstance(plan, _BLOCKING)
        children_cost = sum(
            self._compiled_cost(c, child_drained) for c in plan.children
        )

        if isinstance(plan, SeqScanPlan):
            return self.production(plan, drained) * SCAN_UNIT

        if isinstance(plan, FilterPlan):
            n_in = self._consumed(plan.children[0], child_drained)
            return children_cost + n_in * (
                plan.condition.cost + COMPILED_TUPLE_UNIT
            )

        if isinstance(plan, ProjectPlan):
            n_in = self._consumed(plan.children[0], child_drained)
            return children_cost + n_in * COMPILED_TUPLE_UNIT

        if isinstance(plan, SortPlan):
            n_in = self.full_cardinality(plan.children[0])
            missing = (
                frozenset(self.scoring.predicate_names)
                - plan.children[0].rank_predicates
            )
            predicate_cost = sum(self._predicate_cost(name) for name in missing)
            sort_cost = n_in * max(1.0, math.log2(n_in or 1)) * COMPARE_UNIT
            return (
                children_cost
                + n_in * predicate_cost
                + n_in * COMPILED_TUPLE_UNIT
                + sort_cost
            )

        if isinstance(plan, HashJoinPlan):
            left, right = plan.children
            n_left = self.full_cardinality(left)
            n_right = self.full_cardinality(right)
            pairs = self.full_cardinality(plan)
            return (
                children_cost
                + (n_left + n_right) * COMPILED_TUPLE_UNIT
                + pairs * JOIN_PAIR_UNIT
            )

        raise TypeError(
            f"no compiled-regime cost for plan node: {type(plan).__name__}"
        )
