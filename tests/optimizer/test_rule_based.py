"""Tests for the Volcano-style rule-based optimizer path."""

import pytest

from repro.algebra.operators import (
    LogicalJoin,
    LogicalLimit,
    LogicalRank,
    LogicalScan,
    LogicalSelect,
    LogicalSort,
)
from repro.execution import ExecutionContext, run_plan
from repro.optimizer import (
    MuPlan,
    RankAwareOptimizer,
    RankScanPlan,
    RuleBasedOptimizer,
    SortPlan,
    canonical_logical_plan,
)


class TestCanonicalPlan:
    def test_shape(self, example5):
        plan = canonical_logical_plan(example5.spec, example5.catalog)
        kinds = [type(node).__name__ for node in plan.walk()]
        assert kinds[0] == "LogicalLimit"
        assert "LogicalSort" in kinds
        assert kinds.count("LogicalScan") == 2
        assert "LogicalJoin" in kinds

    def test_join_conditions_attached_to_joins(self, example5):
        plan = canonical_logical_plan(example5.spec, example5.catalog)
        joins = [n for n in plan.walk() if isinstance(n, LogicalJoin)]
        assert len(joins) == 1
        assert joins[0].condition is not None
        # No single-table selections in this spec → no σ node.
        selects = [n for n in plan.walk() if isinstance(n, LogicalSelect)]
        assert selects == []

    def test_selections_collected_above_joins(self, example5):
        from repro.algebra.expressions import col
        from repro.algebra.predicates import BooleanPredicate
        from repro.optimizer import QuerySpec

        spec = QuerySpec(
            tables=example5.spec.tables,
            scoring=example5.spec.scoring,
            k=example5.spec.k,
            selections=[BooleanPredicate(col("R.x") > 0.5, "R.x>0.5")],
            join_conditions=example5.spec.join_conditions,
        )
        plan = canonical_logical_plan(spec, example5.catalog)
        selects = [n for n in plan.walk() if isinstance(n, LogicalSelect)]
        assert len(selects) == 1

    def test_signature_complete(self, example5):
        plan = canonical_logical_plan(example5.spec, example5.catalog)
        assert plan.tables() == frozenset({"R", "S"})
        assert plan.evaluated_predicates() == frozenset({"p1", "p3", "p4"})


class TestImplementationRules:
    def optimizer(self, example5, **kwargs):
        return RuleBasedOptimizer(
            example5.catalog, example5.spec, **kwargs
        )

    def test_scan_implementation(self, example5):
        optimizer = self.optimizer(example5)
        scan = LogicalScan("R", example5.R.schema)
        plans = optimizer.implement(scan)
        assert [p.label() for p in plans] == ["seqScan(R)"]

    def test_mu_over_indexed_scan_collapses_to_rank_scan(self, example5):
        optimizer = self.optimizer(example5)
        plan = LogicalRank(LogicalScan("R", example5.R.schema), "p1")
        labels = {p.label() for p in optimizer.implement(plan)}
        assert "idxScan_p1(R)" in labels
        assert "rank_p1" in labels

    def test_mu_without_index_stays_mu(self, example5):
        optimizer = self.optimizer(example5)
        plan = LogicalRank(LogicalScan("S", example5.S.schema), "p4")
        labels = {p.label() for p in optimizer.implement(plan)}
        assert labels == {"rank_p4"}

    def test_sort_implementation(self, example5):
        optimizer = self.optimizer(example5)
        plan = LogicalSort(LogicalScan("R", example5.R.schema), example5.scoring)
        (physical,) = optimizer.implement(plan)
        assert isinstance(physical, SortPlan)
        assert physical.rank_predicates == frozenset({"p1", "p3", "p4"})


class TestEndToEnd:
    def test_rule_based_answers_match_brute_force(self, example5):
        optimizer = RuleBasedOptimizer(
            example5.catalog, example5.spec, max_plans=150
        )
        plan = optimizer.optimize()
        context = ExecutionContext(example5.catalog, example5.scoring)
        out = run_plan(plan.build(), context, k=example5.spec.k)
        got = [round(context.upper_bound(s), 9) for s in out]
        expected = [round(v, 9) for v in example5.brute_force_scores(example5.spec.k)]
        assert got == expected
        assert optimizer.logical_plans_explored > 1

    def test_rule_based_beats_canonical(self, example5):
        """The closure search must find something cheaper than the naive
        materialize-then-sort canonical plan."""
        optimizer = RuleBasedOptimizer(
            example5.catalog, example5.spec, max_plans=150
        )
        chosen = optimizer.optimize()
        canonical = canonical_logical_plan(example5.spec, example5.catalog)
        (canonical_physical,) = optimizer.implement(canonical)
        assert optimizer.cost_model.cost(chosen) < optimizer.cost_model.cost(
            canonical_physical
        )

    def test_comparable_to_dp_optimizer(self, example5):
        """Both optimizer paths must return correct plans; the DP one may be
        cheaper (it reorders joins freely)."""
        rule_plan = RuleBasedOptimizer(
            example5.catalog, example5.spec, max_plans=150
        ).optimize()
        dp = RankAwareOptimizer(
            example5.catalog, example5.spec
        )
        dp_plan = dp.optimize()
        for plan in (rule_plan, dp_plan):
            context = ExecutionContext(example5.catalog, example5.scoring)
            out = run_plan(plan.build(), context, k=example5.spec.k)
            got = [round(context.upper_bound(s), 9) for s in out]
            assert got == [
                round(v, 9) for v in example5.brute_force_scores(example5.spec.k)
            ]
