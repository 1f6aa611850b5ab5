"""Rule-based optimizer: join implementation-rule coverage."""

import random

import pytest

from repro.algebra.expressions import col
from repro.algebra.operators import LogicalJoin, LogicalRank, LogicalScan
from repro.algebra.predicates import BooleanPredicate, RankingPredicate, ScoringFunction
from repro.optimizer import (
    HRJNPlan,
    JoinCondition,
    NRJNPlan,
    NestedLoopJoinPlan,
    QuerySpec,
    RuleBasedOptimizer,
)
from repro.storage import Catalog, DataType, Schema


@pytest.fixture
def join_db():
    rng = random.Random(131)
    catalog = Catalog()
    left = catalog.create_table(
        "L", Schema.of(("k", DataType.INT), ("x", DataType.FLOAT))
    )
    right = catalog.create_table(
        "Rr", Schema.of(("k", DataType.INT), ("y", DataType.FLOAT))
    )
    for __ in range(50):
        left.insert([rng.randrange(8), rng.random()])
        right.insert([rng.randrange(8), rng.random()])
    pl = RankingPredicate("pl", ["L.x"], lambda x: x)
    pr = RankingPredicate("pr", ["Rr.y"], lambda y: y)
    for predicate in (pl, pr):
        catalog.register_predicate(predicate)
    scoring = ScoringFunction([pl, pr])
    condition = BooleanPredicate(col("L.k").eq(col("Rr.k")), "j")
    spec = QuerySpec(
        tables=["L", "Rr"],
        scoring=scoring,
        k=3,
        join_conditions=[JoinCondition.from_predicate(condition)],
    )
    return catalog, spec, scoring, condition


def optimizer_for(catalog, spec):
    return RuleBasedOptimizer(catalog, spec)


class TestJoinImplementation:
    def test_equi_join_over_ranked_gets_hrjn_and_nrjn(self, join_db):
        catalog, spec, scoring, condition = join_db
        optimizer = optimizer_for(catalog, spec)
        logical = LogicalJoin(
            LogicalRank(LogicalScan("L", catalog.table("L").schema), "pl"),
            LogicalRank(LogicalScan("Rr", catalog.table("Rr").schema), "pr"),
            condition,
        )
        kinds = {type(p) for p in optimizer.implement(logical)}
        assert HRJNPlan in kinds
        assert NRJNPlan in kinds

    def test_plain_join_gets_classical(self, join_db):
        catalog, spec, scoring, condition = join_db
        optimizer = optimizer_for(catalog, spec)
        logical = LogicalJoin(
            LogicalScan("L", catalog.table("L").schema),
            LogicalScan("Rr", catalog.table("Rr").schema),
            condition,
        )
        kinds = {type(p) for p in optimizer.implement(logical)}
        assert NestedLoopJoinPlan in kinds

    def test_non_equi_over_ranked_only_nrjn(self, join_db):
        catalog, spec, scoring, __ = join_db
        optimizer = optimizer_for(catalog, spec)
        non_equi = BooleanPredicate(col("L.k") < col("Rr.k"), "lt")
        logical = LogicalJoin(
            LogicalRank(LogicalScan("L", catalog.table("L").schema), "pl"),
            LogicalRank(LogicalScan("Rr", catalog.table("Rr").schema), "pr"),
            non_equi,
        )
        kinds = {type(p) for p in optimizer.implement(logical)}
        assert kinds == {NRJNPlan}

    def test_cartesian_over_ranked_gets_true_nrjn(self, join_db):
        catalog, spec, scoring, __ = join_db
        optimizer = optimizer_for(catalog, spec)
        logical = LogicalJoin(
            LogicalRank(LogicalScan("L", catalog.table("L").schema), "pl"),
            LogicalRank(LogicalScan("Rr", catalog.table("Rr").schema), "pr"),
            None,
        )
        plans = optimizer.implement(logical)
        assert len(plans) == 1
        assert isinstance(plans[0], NRJNPlan)
        assert plans[0].condition.name == "true"

    def test_equi_keys_detected_in_either_orientation(self, join_db):
        catalog, spec, scoring, __ = join_db
        optimizer = optimizer_for(catalog, spec)
        flipped = BooleanPredicate(col("Rr.k").eq(col("L.k")), "flipped")
        logical = LogicalJoin(
            LogicalScan("L", catalog.table("L").schema),
            LogicalScan("Rr", catalog.table("Rr").schema),
            flipped,
        )
        keys = optimizer._equi_keys(logical)
        assert keys == ("L.k", "Rr.k")
