"""Optimizer edge cases: Cartesian fallback, single tables, missing
indexes, unbounded k, cost-model blocking semantics."""

import random

import pytest

from repro.algebra.predicates import RankingPredicate, ScoringFunction
from repro.execution import ExecutionContext, run_plan
from repro.optimizer import (
    NRJNPlan,
    NestedLoopJoinPlan,
    QuerySpec,
    RankAwareOptimizer,
)
from repro.storage import Catalog, DataType, Schema


def build_two_tables(n=40, seed=5):
    rng = random.Random(seed)
    catalog = Catalog()
    left = catalog.create_table("L", Schema.of(("x", DataType.FLOAT)))
    right = catalog.create_table("Rr", Schema.of(("y", DataType.FLOAT)))
    for __ in range(n):
        left.insert([rng.random()])
        right.insert([rng.random()])
    pl = RankingPredicate("pl", ["L.x"], lambda x: x)
    pr = RankingPredicate("pr", ["Rr.y"], lambda y: y)
    catalog.register_predicate(pl)
    catalog.register_predicate(pr)
    return catalog, ScoringFunction([pl, pr])


class TestCartesianFallback:
    def test_no_join_condition_still_optimizes(self):
        """With no join condition the optimizer retries with Cartesian
        products enabled and produces a correct plan."""
        catalog, scoring = build_two_tables()
        spec = QuerySpec(tables=["L", "Rr"], scoring=scoring, k=3)
        optimizer = RankAwareOptimizer(catalog, spec)
        plan = optimizer.optimize()
        assert optimizer.allow_cartesian  # the retry kicked in
        context = ExecutionContext(catalog, scoring)
        out = run_plan(plan.build(), context, k=3)
        xs = sorted((r[0] for r in catalog.table("L").rows()), reverse=True)
        ys = sorted((r[0] for r in catalog.table("Rr").rows()), reverse=True)
        best = max(xs) + max(ys)
        assert context.upper_bound(out[0]) == pytest.approx(best)

    def test_cartesian_plan_uses_product_join(self):
        catalog, scoring = build_two_tables()
        spec = QuerySpec(tables=["L", "Rr"], scoring=scoring, k=3)
        plan = RankAwareOptimizer(
            catalog, spec, allow_cartesian=True
        ).optimize()
        kinds = {type(node) for node in plan.walk()}
        assert NestedLoopJoinPlan in kinds or NRJNPlan in kinds


class TestSingleTable:
    def test_no_indexes_falls_back_to_seqscan_mu(self):
        catalog, scoring = build_two_tables()
        spec = QuerySpec(tables=["L"], scoring=ScoringFunction(
            [catalog.predicate("pl")]
        ), k=2)
        plan = RankAwareOptimizer(catalog, spec).optimize()
        labels = [n.label() for n in plan.walk()]
        assert any(label.startswith("seqScan") for label in labels)
        assert "rank_pl" in labels

    def test_unbounded_k(self):
        catalog, scoring = build_two_tables()
        spec = QuerySpec(
            tables=["L"],
            scoring=ScoringFunction([catalog.predicate("pl")]),
            k=10**9,
        )
        plan = RankAwareOptimizer(catalog, spec).optimize()
        context = ExecutionContext(catalog, scoring)
        out = run_plan(plan.build(), context, k=None)
        assert len(out) == 40  # min(k, |result|), paper's footnote 2


class TestDeterminism:
    def test_same_seed_same_plan(self, example5):
        plans = [
            RankAwareOptimizer(
                example5.catalog, example5.spec
            )
            .optimize()
            .fingerprint()
            for __ in range(2)
        ]
        assert plans[0] == plans[1]

    def test_plan_count_deterministic(self, example5):
        counts = []
        for __ in range(2):
            optimizer = RankAwareOptimizer(
                example5.catalog, example5.spec
            )
            optimizer.optimize()
            counts.append(optimizer.plans_generated)
        assert counts[0] == counts[1]
