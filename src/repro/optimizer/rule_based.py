"""Volcano/Cascades-style rule-based optimization (§5, first half).

The paper notes that for *top-down, rule-based* optimizers, the algebraic
laws of Figure 5 become **transformation rules** (rewriting between
equivalent logical expressions) and the physical algorithms of §4.2 become
**implementation rules** (mapping logical operators to physical ones).

This module provides exactly that pipeline, complementing the bottom-up DP
of :mod:`repro.optimizer.enumeration`:

1. build the canonical logical plan of Eq. 1 from a :class:`QuerySpec`
   (product of the base tables → selections → monolithic sort → limit);
2. close it under the law rewriter (:func:`repro.algebra.laws.transformations`),
   bounded — the Volcano memo;
3. *implement* each logical plan: map scans to seq-/rank-scans (preferring
   indexes), σ to Filter, µ to Mu, ⋈ to HRJN/NRJN/classical joins, τ to
   Sort, ∪/∩/− to their rank-aware operators;
4. cost every complete physical plan with the shared cost model and keep
   the cheapest.

The search is less thorough than the DP enumerator (it does not reorder
joins beyond what the closure reaches) but demonstrates the transformation-
rule path and is useful for queries with set operations, which the DP
enumerator does not cover.
"""

from __future__ import annotations

from typing import Any

from ..algebra.expressions import ColumnRef, Comparison, conjunction
from ..algebra.laws import equivalence_closure
from ..algebra.operators import (
    LogicalDifference,
    LogicalIntersect,
    LogicalJoin,
    LogicalLimit,
    LogicalOperator,
    LogicalProject,
    LogicalRank,
    LogicalRankScan,
    LogicalScan,
    LogicalSelect,
    LogicalSort,
    LogicalUnion,
)
from ..algebra.predicates import BooleanPredicate
from ..storage.catalog import Catalog
from ..storage.index import RankIndex
from .cost_model import CostModel
from .synopsis import JoinSynopsis, engine_estimator
from .enumeration import OptimizationError
from .plans import (
    FilterPlan,
    HRJNPlan,
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
    SeqScanPlan,
    SortPlan,
)
from .query_spec import QuerySpec


def canonical_logical_plan(spec: QuerySpec, catalog: Catalog) -> LogicalOperator:
    """The Eq. 1 canonical form: π λ_k τ_F σ_B (R1 ⋈ ... ⋈ Rh).

    Join conditions are attached to the joins they connect (the standard
    σ-over-× to ⋈ rewrite, which classical optimizers always apply);
    single-table selections stay in one σ_B above, and the monolithic sort
    τ_F sits on top — the shape the rank-aware laws then improve.
    """
    plan: LogicalOperator | None = None
    joined: frozenset[str] = frozenset()
    attached: set[int] = set()
    for table_name in spec.tables:
        scan = LogicalScan(table_name, catalog.table(table_name).schema)
        if plan is None:
            plan, joined = scan, frozenset({table_name})
            continue
        new_joined = joined | {table_name}
        conditions = [
            (i, j)
            for i, j in enumerate(spec.join_conditions)
            if i not in attached and j.tables <= new_joined
        ]
        condition: BooleanPredicate | None = None
        if conditions:
            attached.update(i for i, __ in conditions)
            expressions = [j.predicate.expression for __, j in conditions]
            names = " and ".join(j.predicate.name for __, j in conditions)
            condition = BooleanPredicate(conjunction(expressions), names)
        plan = LogicalJoin(plan, scan, condition)
        joined = new_joined
    assert plan is not None
    selections = [c.expression for c in spec.selections]
    if selections:
        plan = LogicalSelect(
            plan, BooleanPredicate(conjunction(selections), "B")
        )
    plan = LogicalSort(plan, spec.scoring)
    plan = LogicalLimit(plan, spec.k)
    if spec.projection:
        plan = LogicalProject(plan, spec.projection)
    return plan


class RuleBasedOptimizer:
    """Transformation-rule search over the law closure, then costing."""

    def __init__(
        self,
        catalog: Catalog,
        spec: QuerySpec,
        max_plans: int = 300,
        *,
        synopsis: JoinSynopsis | None = None,
        params: dict[str, Any] | None = None,
    ):
        self.catalog = catalog
        self.spec = spec
        self.estimator = engine_estimator(catalog, spec, synopsis, params=params)
        self.cost_model = CostModel(catalog, spec, self.estimator)
        self.max_plans = max_plans
        #: logical plans explored in the last optimize() call
        self.logical_plans_explored = 0

    def optimize(self, logical: LogicalOperator | None = None) -> PlanNode:
        """Search the closure of the (canonical) logical plan; return the
        cheapest implementable physical plan."""
        root = logical or canonical_logical_plan(self.spec, self.catalog)
        closure = equivalence_closure(root, self.spec.scoring, self.max_plans)
        self.logical_plans_explored = len(closure)
        best: PlanNode | None = None
        best_cost = float("inf")
        for candidate in closure:
            for physical in self.implement(candidate):
                cost = self.cost_model.cost(physical)
                if cost < best_cost:
                    best, best_cost = physical, cost
        if best is None:
            raise OptimizationError("no implementable plan in the closure")
        return best

    # ------------------------------------------------------------------
    # implementation rules: logical operator -> physical alternatives
    # ------------------------------------------------------------------
    def implement(self, plan: LogicalOperator) -> list[PlanNode]:
        """All physical implementations of a logical plan (leaf-combinatorial
        growth is bounded by taking the cheapest implementation per child)."""
        if isinstance(plan, LogicalScan):
            return [SeqScanPlan(plan.table_name)]
        if isinstance(plan, LogicalRankScan):
            if self._has_rank_index(plan.table_name, plan.predicate_name):
                return [RankScanPlan(plan.table_name, plan.predicate_name)]
            return [MuPlan(SeqScanPlan(plan.table_name), plan.predicate_name)]
        if isinstance(plan, LogicalRank):
            out = []
            for child in self._implemented_children(plan):
                out.append(MuPlan(child, plan.predicate_name))
                # Implementation rule: µ over a base scan with a matching
                # rank index collapses to a rank-scan (Figure 7's
                # "µ_p1 combined with scan ... to form an idxScan").
                if isinstance(plan.child, LogicalScan) and self._has_rank_index(
                    plan.child.table_name, plan.predicate_name
                ):
                    out.append(
                        RankScanPlan(plan.child.table_name, plan.predicate_name)
                    )
            return out
        if isinstance(plan, LogicalSelect):
            return [
                FilterPlan(child, plan.condition)
                for child in self._implemented_children(plan)
            ]
        if isinstance(plan, LogicalProject):
            return [
                ProjectPlan(child, plan.columns)
                for child in self._implemented_children(plan)
            ]
        if isinstance(plan, LogicalSort):
            return [
                SortPlan(child, frozenset(plan.scoring.predicate_names))
                for child in self._implemented_children(plan)
            ]
        if isinstance(plan, LogicalLimit):
            return [
                LimitPlan(child, plan.k)
                for child in self._implemented_children(plan)
            ]
        if isinstance(plan, LogicalJoin):
            return self._implement_join(plan)
        if isinstance(plan, LogicalUnion):
            return self._implement_binary(plan, RankUnionPlan)
        if isinstance(plan, LogicalIntersect):
            left, right = plan.children()
            return [
                RankIntersectPlan(
                    [self._best_child(left), self._best_child(right)],
                    by_identity=plan.by_identity,
                )
            ]
        if isinstance(plan, LogicalDifference):
            return self._implement_binary(plan, RankDifferencePlan)
        raise OptimizationError(f"no implementation rule for {plan.label()}")

    def _best_child(self, child: LogicalOperator) -> PlanNode:
        alternatives = self.implement(child)
        return min(alternatives, key=self.cost_model.cost)

    def _implemented_children(self, plan: LogicalOperator) -> list[PlanNode]:
        (child,) = plan.children()
        return [self._best_child(child)]

    def _implement_binary(self, plan, node_type) -> list[PlanNode]:
        left, right = plan.children()
        return [node_type([self._best_child(left), self._best_child(right)])]

    def _implement_join(self, plan: LogicalJoin) -> list[PlanNode]:
        left = self._best_child(plan.left)
        right = self._best_child(plan.right)
        out: list[PlanNode] = []
        condition = plan.condition
        keys = self._equi_keys(plan)
        ranked_below = bool(left.rank_predicates | right.rank_predicates)
        if keys and left.is_ranked and right.is_ranked:
            out.append(HRJNPlan(left, right, keys[0], keys[1]))
        if condition is not None and left.is_ranked and right.is_ranked:
            out.append(NRJNPlan(left, right, condition))
        if not ranked_below:
            out.append(NestedLoopJoinPlan(left, right, condition))
        if not out and left.is_ranked and right.is_ranked:
            # Cartesian rank-join: NRJN with a vacuously-true condition.
            from ..algebra.expressions import lit

            out.append(
                NRJNPlan(left, right, BooleanPredicate(lit(True), "true"))
            )
        if not out:
            raise OptimizationError(
                f"join {plan.label()} not implementable over ranked inputs"
            )
        return out

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _has_rank_index(self, table_name: str, predicate_name: str) -> bool:
        table = self.catalog.table(table_name)
        index = table.find_index(key=predicate_name)
        return isinstance(index, RankIndex)

    def _equi_keys(self, plan: LogicalJoin) -> tuple[str, str] | None:
        condition = plan.condition
        if condition is None:
            return None
        expression = condition.expression
        if not (
            isinstance(expression, Comparison)
            and expression.op == "="
            and isinstance(expression.left, ColumnRef)
            and isinstance(expression.right, ColumnRef)
        ):
            return None
        left_schema = plan.left.schema()
        right_schema = plan.right.schema()
        a, b = expression.left.name, expression.right.name
        if left_schema.has_column(a) and right_schema.has_column(b):
            return a, b
        if left_schema.has_column(b) and right_schema.has_column(a):
            return b, a
        return None
