"""Tests for the third enumeration dimension: Boolean-predicate scheduling.

§5.1: "dimensional enumeration can incorporate the scheduling of both
selection and ranking predicates by treating Boolean predicates as another
dimension" — implemented behind ``enumerate_selections=True``.

The scenario where scheduling matters: an *expensive* Boolean predicate
(e.g. a user-defined function calling a remote service) should be evaluated
late — after cheap filters and rank operators have cut the cardinality —
instead of being blindly pushed to the scan.
"""

import random

import pytest

from repro.algebra.expressions import col
from repro.algebra.predicates import BooleanPredicate, RankingPredicate, ScoringFunction
from repro.execution import ExecutionContext, run_plan
from repro.optimizer import FilterPlan, QuerySpec, RankAwareOptimizer
from repro.storage import Catalog, ColumnIndex, DataType, RankIndex, Schema


@pytest.fixture
def expensive_filter_db():
    """One table; one cheap and one very expensive Boolean selection."""
    rng = random.Random(53)
    catalog = Catalog()
    table = catalog.create_table(
        "t",
        Schema.of(
            ("a", DataType.INT), ("flag", DataType.BOOL), ("x", DataType.FLOAT)
        ),
    )
    for __ in range(600):
        table.insert([rng.randrange(100), rng.random() < 0.5, rng.random()])
    px = RankingPredicate("px", ["t.x"], lambda x: x, cost=1.0)
    catalog.register_predicate(px)
    table.attach_index(RankIndex("t_px", table.schema, "px", px.compile(table.schema)))
    cheap = BooleanPredicate(col("t.flag"), "t.flag", cost=0.1)
    expensive = BooleanPredicate(col("t.a") < 90, "t.a<90", cost=500.0)
    scoring = ScoringFunction([px])
    spec = QuerySpec(
        tables=["t"], scoring=scoring, k=5, selections=[cheap, expensive]
    )
    return catalog, spec, scoring


def brute_force(catalog, k):
    scores = sorted(
        (
            r[2]
            for r in catalog.table("t").rows()
            if r[1] and r[0] < 90
        ),
        reverse=True,
    )
    return scores[:k]


class TestSelectionScheduling:
    def optimize(self, catalog, spec, **kwargs):
        return RankAwareOptimizer(
            catalog, spec, **kwargs
        )

    def test_three_dimensional_memo(self, expensive_filter_db):
        catalog, spec, __ = expensive_filter_db
        optimizer = self.optimize(catalog, spec, enumerate_selections=True)
        optimizer.optimize()
        t = frozenset({"t"})
        # Partial-SB signatures exist alongside the complete ones.
        partial = [s for s in optimizer.memo if s[0] == t and s[2] == frozenset()]
        complete = [
            s
            for s in optimizer.memo
            if s[0] == t and s[2] == frozenset({"t.flag", "t.a<90"})
        ]
        assert partial and complete

    def test_answers_identical_with_and_without(self, expensive_filter_db):
        catalog, spec, scoring = expensive_filter_db
        expected = [round(v, 9) for v in brute_force(catalog, spec.k)]
        for flag in (False, True):
            plan = self.optimize(
                catalog, spec, enumerate_selections=flag
            ).optimize()
            context = ExecutionContext(catalog, scoring)
            out = run_plan(plan.build(), context, k=spec.k)
            got = [round(context.upper_bound(s), 9) for s in out]
            assert got == expected, f"enumerate_selections={flag}"

    def test_scheduling_defers_expensive_filter(self, expensive_filter_db):
        """With scheduling on, the expensive filter moves above the rank
        operator chain (fewer evaluations); pushed-down placement would
        evaluate it on the whole scan."""
        catalog, spec, scoring = expensive_filter_db
        scheduled_plan = self.optimize(
            catalog, spec, enumerate_selections=True
        ).optimize()
        pushed_plan = self.optimize(
            catalog, spec, enumerate_selections=False
        ).optimize()

        def measure(plan):
            context = ExecutionContext(catalog, scoring)
            run_plan(plan.build(), context, k=spec.k)
            return context.metrics

        scheduled = measure(scheduled_plan)
        pushed = measure(pushed_plan)
        assert scheduled.boolean_cost_units <= pushed.boolean_cost_units
        assert scheduled.simulated_cost <= pushed.simulated_cost

    def test_estimated_cost_no_worse(self, expensive_filter_db):
        """The 3-D space is a superset: the optimizer can only do better."""
        catalog, spec, __ = expensive_filter_db
        scheduled = self.optimize(catalog, spec, enumerate_selections=True)
        scheduled_cost = scheduled.cost_model.cost(scheduled.optimize())
        pushed = self.optimize(catalog, spec, enumerate_selections=False)
        pushed_cost = pushed.cost_model.cost(pushed.optimize())
        assert scheduled_cost <= pushed_cost + 1e-6

    def test_filter_nodes_present_in_scheduled_plan(self, expensive_filter_db):
        catalog, spec, __ = expensive_filter_db
        plan = self.optimize(catalog, spec, enumerate_selections=True).optimize()
        filters = [n for n in plan.walk() if isinstance(n, FilterPlan)]
        names = {f.condition.name for f in filters}
        assert names == {"t.flag", "t.a<90"}
