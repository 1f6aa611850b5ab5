"""Tests for the two-dimensional DP enumerator (Figure 8) and the
Figure 10 heuristics, including the Example 5 / Figure 9 signatures."""

import pytest

from repro.execution import ExecutionContext, run_plan
from repro.optimizer import (
    HRJNPlan,
    LimitPlan,
    MuPlan,
    RankAwareOptimizer,
    RankScanPlan,
    SortPlan,
    optimize_traditional,
)


def run_scores(db, plan, k):
    context = ExecutionContext(db.catalog, db.scoring)
    out = run_plan(plan.build(), context, k=k)
    return [round(context.upper_bound(s), 9) for s in out], context


class TestEnumerationCorrectness:
    def test_optimized_plan_answers_correctly(self, example5):
        optimizer = RankAwareOptimizer(
            example5.catalog, example5.spec
        )
        plan = optimizer.optimize()
        got, __ = run_scores(example5, plan, example5.spec.k)
        expected = [round(v, 9) for v in example5.brute_force_scores(example5.spec.k)]
        assert got == expected

    def test_root_is_limit(self, example5):
        optimizer = RankAwareOptimizer(
            example5.catalog, example5.spec
        )
        plan = optimizer.optimize()
        assert isinstance(plan, LimitPlan)
        assert plan.k == example5.spec.k

    def test_signature_of_final_plan(self, example5):
        optimizer = RankAwareOptimizer(
            example5.catalog, example5.spec
        )
        plan = optimizer.optimize()
        assert plan.tables == frozenset({"R", "S"})
        assert plan.rank_predicates == frozenset({"p1", "p3", "p4"})


class TestFigure9Signatures:
    """Example 5: the memo holds best plans per (|SR|, |SP|) signature."""

    def optimizer(self, example5):
        optimizer = RankAwareOptimizer(
            example5.catalog, example5.spec
        )
        optimizer.optimize()
        return optimizer

    def test_single_table_signatures_present(self, example5):
        optimizer = self.optimizer(example5)
        r, s = frozenset({"R"}), frozenset({"S"})
        assert optimizer.best_candidate((r, frozenset())) is not None
        assert optimizer.best_candidate((s, frozenset())) is not None
        assert optimizer.best_candidate((r, frozenset({"p1"}))) is not None
        assert optimizer.best_candidate((s, frozenset({"p3"}))) is not None
        assert optimizer.best_candidate((s, frozenset({"p4"}))) is not None
        assert optimizer.best_candidate((s, frozenset({"p3", "p4"}))) is not None

    def test_joined_signatures_present(self, example5):
        optimizer = self.optimizer(example5)
        rs = frozenset({"R", "S"})
        for sp in (
            frozenset(),
            frozenset({"p1"}),
            frozenset({"p1", "p3"}),
            frozenset({"p1", "p3", "p4"}),
        ):
            assert optimizer.best_candidate((rs, sp)) is not None

    def test_predicates_not_evaluable_are_absent(self, example5):
        optimizer = self.optimizer(example5)
        # p3 lives on S; there is no plan for ({R}, {p3}).
        assert optimizer.best_candidate((frozenset({"R"}), frozenset({"p3"}))) is None

    def test_rank_scan_used_for_indexed_predicate(self, example5):
        """Figure 9 row (1,1): idxScan_p3(S) beats µ_p3(seqScan(S))."""
        optimizer = self.optimizer(example5)
        best = optimizer.best_candidate((frozenset({"S"}), frozenset({"p3"})))
        labels = [node.label() for node in best.plan.walk()]
        assert any(label.startswith("idxScan_p3") for label in labels)


class TestHeuristics:
    def test_left_deep_reduces_plans_generated(self, example5):
        exhaustive = RankAwareOptimizer(
            example5.catalog, example5.spec
        )
        exhaustive.optimize()
        heuristic = RankAwareOptimizer(
            example5.catalog,
            example5.spec,
            left_deep=True,
            greedy_mu=True,
        )
        heuristic.optimize()
        assert heuristic.plans_generated <= exhaustive.plans_generated

    def test_heuristic_plan_still_correct(self, example5):
        optimizer = RankAwareOptimizer(
            example5.catalog,
            example5.spec,
            left_deep=True,
            greedy_mu=True,
        )
        plan = optimizer.optimize()
        got, __ = run_scores(example5, plan, example5.spec.k)
        expected = [round(v, 9) for v in example5.brute_force_scores(example5.spec.k)]
        assert got == expected

    def test_heuristic_cost_close_to_exhaustive(self, example5):
        exhaustive = RankAwareOptimizer(
            example5.catalog, example5.spec
        )
        best = exhaustive.optimize()
        heuristic = RankAwareOptimizer(
            example5.catalog,
            example5.spec,
            left_deep=True,
            greedy_mu=True,
        )
        chosen = heuristic.optimize()
        best_cost = exhaustive.cost_model.cost(best)
        chosen_cost = heuristic.cost_model.cost(chosen)
        # The heuristic sacrifices optimality but should stay in range.
        assert chosen_cost <= best_cost * 25 + 1


class TestTraditionalBaseline:
    def test_traditional_plan_has_sort(self, example5):
        plan = optimize_traditional(
            example5.catalog, example5.spec
        )
        kinds = [type(node) for node in plan.walk()]
        assert SortPlan in kinds
        assert MuPlan not in kinds
        assert HRJNPlan not in kinds
        assert RankScanPlan not in kinds

    def test_traditional_answers_match(self, example5):
        plan = optimize_traditional(
            example5.catalog, example5.spec
        )
        got, __ = run_scores(example5, plan, example5.spec.k)
        expected = [round(v, 9) for v in example5.brute_force_scores(example5.spec.k)]
        assert got == expected

    def test_rank_aware_cheaper_in_measured_cost(self, example5):
        ranked_plan = RankAwareOptimizer(
            example5.catalog, example5.spec
        ).optimize()
        traditional_plan = optimize_traditional(
            example5.catalog, example5.spec
        )
        __, ranked_context = run_scores(example5, ranked_plan, example5.spec.k)
        __, traditional_context = run_scores(
            example5, traditional_plan, example5.spec.k
        )
        assert (
            ranked_context.metrics.simulated_cost
            < traditional_context.metrics.simulated_cost
        )


class TestOptimizerChoosesWell:
    def test_chosen_cost_at_most_all_final_candidates(self, example5):
        optimizer = RankAwareOptimizer(
            example5.catalog, example5.spec
        )
        plan = optimizer.optimize()
        chosen_cost = optimizer.cost_model.cost(plan.children[0])
        final = optimizer._final_candidates(frozenset(example5.spec.tables))
        assert final
        assert all(chosen_cost <= candidate.cost + 1e-9 for candidate in final)
