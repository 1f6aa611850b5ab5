"""Optimizer access-path selection: rank-scan and scan-based selection."""

import random

import pytest

from repro.algebra.expressions import col
from repro.algebra.predicates import BooleanPredicate, RankingPredicate, ScoringFunction
from repro.engine import Database
from repro.execution import ExecutionContext, run_plan
from repro.optimizer import (
    QuerySpec,
    RankAwareOptimizer,
    ScanSelectPlan,
)
from repro.storage import DataType


@pytest.fixture
def flagged_db():
    """One table with a selective Boolean flag and a scored column, with
    seq-scan, rank-index and multi-key-index access paths available."""
    rng = random.Random(31)
    db = Database()
    db.create_table("t", [("flag", DataType.BOOL), ("x", DataType.FLOAT)])
    db.insert("t", [(rng.random() < 0.3, rng.random()) for __ in range(500)])
    db.register_predicate("px", ["t.x"], lambda x: x, cost=2.0)
    db.create_rank_index("t", "px")
    db.create_multikey_index("t", "flag", "px")
    db.analyze()
    return db


def spec_for(db, k=5):
    predicate = db.catalog.predicate("px")
    return QuerySpec(
        tables=["t"],
        scoring=ScoringFunction([predicate]),
        k=k,
        selections=[BooleanPredicate(col("t.flag"), "t.flag")],
    )


class TestScanSelect:
    def test_optimizer_considers_scan_select(self, flagged_db):
        optimizer = RankAwareOptimizer(
            flagged_db.catalog, spec_for(flagged_db)
        )
        optimizer.optimize()
        signature = (
            frozenset({"t"}),
            frozenset({"px"}),
            optimizer._selection_names(frozenset({"t"})),
        )
        candidates = optimizer.memo.get(signature, {})
        labels = {c.plan.label() for c in candidates.values()} | {
            node.label()
            for c in candidates.values()
            for node in c.plan.walk()
        }
        assert any(label.startswith("scanSelect") for label in labels)

    def test_scan_select_answers_correct(self, flagged_db):
        spec = spec_for(flagged_db)
        plan = ScanSelectPlan("t", "t.flag", "px")
        context = ExecutionContext(flagged_db.catalog, spec.scoring)
        out = run_plan(plan.build(), context, k=5)
        expected = sorted(
            (r[1] for r in flagged_db.catalog.table("t").rows() if r[0]),
            reverse=True,
        )[:5]
        got = [context.upper_bound(s) for s in out]
        assert got == pytest.approx(expected)

    def test_scan_select_avoids_boolean_evaluations(self, flagged_db):
        """Scan-based selection filters inside the index: no filter calls,
        no predicate evaluations."""
        spec = spec_for(flagged_db)
        context = ExecutionContext(flagged_db.catalog, spec.scoring)
        run_plan(ScanSelectPlan("t", "t.flag", "px").build(), context, k=5)
        assert context.metrics.boolean_evaluations == 0
        assert context.metrics.predicate_evaluations == 0

    def test_end_to_end_query_correct(self, flagged_db):
        spec = spec_for(flagged_db)
        optimizer = RankAwareOptimizer(
            flagged_db.catalog, spec
        )
        plan = optimizer.optimize()
        context = ExecutionContext(flagged_db.catalog, spec.scoring)
        out = run_plan(plan.build(), context, k=spec.k)
        expected = sorted(
            (r[1] for r in flagged_db.catalog.table("t").rows() if r[0]),
            reverse=True,
        )[: spec.k]
        assert [context.upper_bound(s) for s in out] == pytest.approx(expected)

