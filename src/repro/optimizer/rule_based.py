"""Implementation rules for hand-built logical plans (§5, first half).

The paper notes that for rule-based optimizers the physical algorithms of
§4.2 become **implementation rules**, mapping logical operators to physical
ones.  This module holds those rules for the plans the SQL dialect cannot
express — chiefly the rank-aware set operations ∪, ∩ and −, which the
``(SR, SP)`` DP of :mod:`repro.optimizer.enumeration` does not cover:

* scans map to seq-scans, and µ over a base scan to a rank-scan when the
  table has a matching rank index;
* σ maps to Filter, µ to Mu, τ to Sort, λ to Limit, π to Project;
* ⋈ maps to HRJN / NRJN over ranked inputs, else to a nested-loop join;
* ∪, ∩ and − map to their rank-aware operators.

:meth:`RuleBasedOptimizer.optimize` implements the tree bottom-up and keeps
the cheapest alternative per node under the shared cost model.  It does not
rewrite the tree: the transformation rules (the laws of Figure 5,
:mod:`repro.algebra.laws`) are checked for equivalence but not searched —
every SQL statement is planned by the DP.
"""

from __future__ import annotations

from ..algebra.expressions import ColumnRef, Comparison
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


class RuleBasedOptimizer:
    """Implementation rules over a hand-built logical plan, then costing."""

    def __init__(
        self,
        catalog: Catalog,
        spec: QuerySpec,
        *,
        synopsis: JoinSynopsis | None = None,
    ):
        self.catalog = catalog
        self.spec = spec
        self.estimator = engine_estimator(catalog, spec, synopsis)
        self.cost_model = CostModel(catalog, spec, self.estimator)

    def optimize(self, logical: LogicalOperator) -> PlanNode:
        """The cheapest physical implementation of ``logical``, built
        bottom-up: each node keeps its cheapest alternative."""
        return self._best_child(logical)

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
