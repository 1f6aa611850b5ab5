"""Tests for the implementation rules that plan hand-built logical trees."""

from repro.algebra.expressions import col
from repro.algebra.operators import (
    LogicalJoin,
    LogicalLimit,
    LogicalRank,
    LogicalScan,
    LogicalSelect,
    LogicalSort,
)
from repro.algebra.predicates import BooleanPredicate
from repro.execution import ExecutionContext, run_plan
from repro.optimizer import (
    FilterPlan,
    HRJNPlan,
    RankAwareOptimizer,
    RankScanPlan,
    RuleBasedOptimizer,
    SortPlan,
)


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


class TestOptimize:
    def test_each_node_keeps_its_cheapest_alternative(self, example5):
        optimizer = RuleBasedOptimizer(example5.catalog, example5.spec)
        logical = LogicalRank(LogicalScan("R", example5.R.schema), "p1")
        cheapest = min(optimizer.implement(logical), key=optimizer.cost_model.cost)
        assert optimizer.optimize(logical).fingerprint() == cheapest.fingerprint()

    def test_the_tree_is_implemented_as_given(self, example5):
        """A hand-built Eq. 1 tree (join, then a monolithic sort) keeps its
        shape — nothing rewrites it — and returns the top-k."""
        (join,) = example5.spec.join_conditions
        logical = LogicalLimit(
            LogicalSort(
                LogicalJoin(
                    LogicalScan("R", example5.R.schema),
                    LogicalScan("S", example5.S.schema),
                    join.predicate,
                ),
                example5.scoring,
            ),
            example5.spec.k,
        )
        plan = RuleBasedOptimizer(example5.catalog, example5.spec).optimize(logical)
        assert isinstance(plan.children[0], SortPlan)
        context = ExecutionContext(example5.catalog, example5.scoring)
        out = run_plan(plan.build(), context, k=example5.spec.k)
        got = [round(context.upper_bound(s), 9) for s in out]
        expected = [round(v, 9) for v in example5.brute_force_scores(example5.spec.k)]
        assert got == expected


def rank_aware_tree(example5):
    """Example 5 as a rank-aware tree: µ's pushed below the join."""
    (join,) = example5.spec.join_conditions
    return LogicalLimit(
        LogicalJoin(
            LogicalRank(LogicalScan("R", example5.R.schema), "p1"),
            LogicalRank(
                LogicalRank(LogicalScan("S", example5.S.schema), "p3"), "p4"
            ),
            join.predicate,
        ),
        example5.spec.k,
    )


def materialize_then_sort_tree(example5):
    """Example 5 as Eq. 1: join everything, then one monolithic sort."""
    (join,) = example5.spec.join_conditions
    return LogicalLimit(
        LogicalSort(
            LogicalJoin(
                LogicalScan("R", example5.R.schema),
                LogicalScan("S", example5.S.schema),
                join.predicate,
            ),
            example5.scoring,
        ),
        example5.spec.k,
    )


def top_scores(example5, plan):
    context = ExecutionContext(example5.catalog, example5.scoring)
    out = run_plan(plan.build(), context, k=example5.spec.k)
    return [round(context.upper_bound(s), 9) for s in out]


class TestEndToEnd:
    def test_rule_based_answers_match_brute_force(self, example5):
        plan = RuleBasedOptimizer(example5.catalog, example5.spec).optimize(
            rank_aware_tree(example5)
        )
        (join,) = plan.children
        assert isinstance(join, HRJNPlan)
        assert isinstance(join.children[0], RankScanPlan)
        expected = [round(v, 9) for v in example5.brute_force_scores(example5.spec.k)]
        assert top_scores(example5, plan) == expected

    def test_rule_based_beats_canonical(self, example5):
        """Under the shared cost model the rank-aware tree is far cheaper
        than the materialize-then-sort tree of the same query."""
        optimizer = RuleBasedOptimizer(example5.catalog, example5.spec)
        ranked = optimizer.optimize(rank_aware_tree(example5))
        canonical = optimizer.optimize(materialize_then_sort_tree(example5))
        assert optimizer.cost_model.cost(ranked) < optimizer.cost_model.cost(
            canonical
        )

    def test_comparable_to_dp_optimizer(self, example5):
        """The DP pick is never costlier than the hand-built rank-aware
        tree (it searches that tree's join orders too), and both return
        the brute-force top-k."""
        rule = RuleBasedOptimizer(example5.catalog, example5.spec)
        rule_plan = rule.optimize(rank_aware_tree(example5))
        dp_plan = RankAwareOptimizer(example5.catalog, example5.spec).optimize()
        assert rule.cost_model.cost(dp_plan) <= rule.cost_model.cost(rule_plan)
        expected = [round(v, 9) for v in example5.brute_force_scores(example5.spec.k)]
        for plan in (rule_plan, dp_plan):
            assert top_scores(example5, plan) == expected

    def test_selection_is_implemented_as_a_filter(self, example5):
        """σ keeps its place in the tree as a Filter, and the rank join
        above it still returns the top-k of the filtered join."""
        (join,) = example5.spec.join_conditions
        condition = BooleanPredicate(col("S.y") > 0.5, "S.y>0.5")
        logical = LogicalLimit(
            LogicalJoin(
                LogicalRank(LogicalScan("R", example5.R.schema), "p1"),
                LogicalSelect(
                    LogicalRank(
                        LogicalRank(LogicalScan("S", example5.S.schema), "p3"),
                        "p4",
                    ),
                    condition,
                ),
                join.predicate,
            ),
            example5.spec.k,
        )
        plan = RuleBasedOptimizer(example5.catalog, example5.spec).optimize(logical)
        assert any(isinstance(node, FilterPlan) for node in plan.walk())
        expected = sorted(
            (
                r[1] + s[1] + s[2]
                for r in example5.R.rows()
                for s in example5.S.rows()
                if r[0] == s[0] and s[1] > 0.5
            ),
            reverse=True,
        )[: example5.spec.k]
        assert top_scores(example5, plan) == [round(v, 9) for v in expected]
