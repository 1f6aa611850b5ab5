"""Tests for the join synopsis: weighted random walks over the join graph
and the ranked cardinalities the engine's optimizer reads off them."""

import math

import pytest

from repro import Database, DataType
from repro.algebra.expressions import col
from repro.algebra.predicates import BooleanPredicate
from repro.optimizer import (
    JoinCondition,
    QuerySpec,
    RankAwareOptimizer,
    SeqScanPlan,
)
from repro.optimizer.plans import PlanNode
from repro.optimizer.synopsis import (
    DRIFT,
    WALKS,
    JoinSynopsis,
    SynopsisEstimator,
)


def estimator_for(db, spec=None):
    spec = spec or db.spec
    return SynopsisEstimator(JoinSynopsis(db.catalog, spec.join_conditions), spec)


def exact_join_size(db):
    return sum(1 for r in db.R.rows() for s in db.S.rows() if r[0] == s[0])


class TestWalks:
    def test_single_table_count_is_the_table_size(self, example5):
        estimator = estimator_for(example5)
        count = estimator.count(frozenset({"R"}), frozenset(), frozenset())
        assert count == pytest.approx(example5.R.row_count)

    def test_weighted_walks_estimate_the_join_size(self, example5):
        estimator = estimator_for(example5)
        count = estimator.count(frozenset({"R", "S"}), frozenset(), frozenset())
        assert count == pytest.approx(exact_join_size(example5), rel=0.15)

    def test_index_and_dictionary_lookups_weigh_alike(self, example5):
        """Without the ColumnIndex the walk follows a one-off value
        dictionary; the degree it multiplies by is the same."""
        indexed = JoinSynopsis(example5.catalog, example5.spec.join_conditions)
        sr = frozenset({"R", "S"})
        weights = indexed.walks(sr).weights
        table = example5.catalog.table("S")
        saved = dict(table._live_indexes)
        table._live_indexes.pop("S_a")
        try:
            plain = JoinSynopsis(example5.catalog, example5.spec.join_conditions)
            assert plain.walks(sr).weights == weights
        finally:
            table._live_indexes.clear()
            table._live_indexes.update(saved)

    def test_non_equi_edge_tests_a_uniform_row(self, example5):
        condition = JoinCondition.from_predicate(
            BooleanPredicate(col("R.x") < col("S.y"), "R.x<S.y")
        )
        spec = QuerySpec(
            tables=["R", "S"],
            scoring=example5.scoring,
            k=5,
            join_conditions=[condition],
        )
        exact = sum(
            1 for r in example5.R.rows() for s in example5.S.rows() if r[1] < s[1]
        )
        count = estimator_for(example5, spec).count(
            frozenset({"R", "S"}), frozenset(), frozenset()
        )
        assert count == pytest.approx(exact, rel=0.15)

    def test_walks_are_deterministic(self, example5):
        sr = frozenset({"R", "S"})
        a = JoinSynopsis(example5.catalog, example5.spec.join_conditions).walks(sr)
        b = JoinSynopsis(example5.catalog, example5.spec.join_conditions).walks(sr)
        assert a.weights == b.weights
        assert [r.rid for r in a.rows("S")] == [r.rid for r in b.rows("S")]


class TestCutoff:
    def test_cutoff_is_the_weighted_kth_complete_score(self, example5):
        estimator = estimator_for(example5)
        everything = frozenset(example5.scoring.predicate_names)
        tables = frozenset({"R", "S"})
        assert math.isfinite(estimator.cutoff)
        # At least k answers score >= x' ...
        assert estimator.count(tables, everything, frozenset()) >= example5.spec.k
        # ... and x' lies in the join's real score range.
        scores = example5.brute_force_scores(10**9)
        assert scores[-1] <= estimator.cutoff <= scores[0]

    def test_cutoff_is_minus_inf_below_k_answers(self, example5):
        spec = QuerySpec(
            tables=["R", "S"],
            scoring=example5.scoring,
            k=10**9,
            join_conditions=example5.spec.join_conditions,
        )
        estimator = estimator_for(example5, spec)
        assert estimator.answers() < spec.k
        assert estimator.cutoff == -math.inf

    def test_evaluating_a_predicate_never_raises_the_count(self, example5):
        estimator = estimator_for(example5)
        sr = frozenset({"R", "S"})
        counts = [
            estimator.count(sr, frozenset(sp), frozenset())
            for sp in ((), ("p1",), ("p1", "p3"), ("p1", "p3", "p4"))
        ]
        assert counts == sorted(counts, reverse=True)

    def test_selections_filter_the_walks(self, example5):
        half = BooleanPredicate(col("R.x") > 0.5, "R.x>0.5")
        spec = QuerySpec(
            tables=["R", "S"],
            scoring=example5.scoring,
            k=5,
            selections=[half],
            join_conditions=example5.spec.join_conditions,
        )
        estimator = estimator_for(example5, spec)
        r = frozenset({"R"})
        filtered = estimator.count(r, frozenset(), frozenset({"R.x>0.5"}))
        exact = sum(1 for row in example5.R.rows() if row[1] > 0.5)
        assert filtered == pytest.approx(exact, rel=0.15)
        assert filtered < estimator.count(r, frozenset(), frozenset())

    def test_estimates_depend_only_on_the_signature(self, example5):
        estimator = estimator_for(example5)
        plan = SeqScanPlan("R")
        assert estimator.estimate(plan) == estimator.count(
            frozenset({"R"}), frozenset(), frozenset()
        )


class TestNoSampleExecution:
    def test_optimizing_builds_no_operator(self, example5, monkeypatch):
        """Candidate subplans are priced from the synopsis, never run."""

        def refuse(self):
            raise AssertionError(f"{self.fingerprint()} was executed")

        for kind in _plan_kinds():
            monkeypatch.setattr(kind, "build", refuse)
        plan = RankAwareOptimizer(example5.catalog, example5.spec).optimize()
        assert plan.tables == {"R", "S"}


def _plan_kinds():
    from repro.optimizer import plans

    for value in vars(plans).values():
        if isinstance(value, type) and issubclass(value, PlanNode):
            yield value


SQL = (
    "SELECT * FROM R, S WHERE R.a = S.a "
    "ORDER BY px(R.x) + py(S.y) LIMIT 5"
)


@pytest.fixture
def db():
    import random

    rng = random.Random(5)
    database = Database()
    database.create_table("R", [("a", DataType.INT), ("x", DataType.FLOAT)])
    database.create_table("S", [("a", DataType.INT), ("y", DataType.FLOAT)])
    database.insert("R", [(rng.randrange(10), rng.random()) for __ in range(200)])
    database.insert("S", [(rng.randrange(10), rng.random()) for __ in range(200)])
    database.register_predicate("px", ["R.x"], lambda x: x)
    database.register_predicate("py", ["S.y"], lambda y: y)
    database.create_rank_index("R", "px")
    database.create_rank_index("S", "py")
    database.create_column_index("S", "a")
    database.analyze()
    return database


class TestPlannerCache:
    def test_one_synopsis_per_join_graph(self, db):
        db.query(SQL)
        db.query(SQL.replace("LIMIT 5", "LIMIT 7"))
        db.query(SQL.replace("R.a = S.a", "R.a = S.a AND R.x > 0.1"))
        assert db.planner.metrics.synopses_built == 1

    def test_a_commit_does_not_redraw_the_synopsis(self, db):
        db.query(SQL)
        invalidations = db.planner.metrics.invalidations
        db.insert("R", [(1, 0.5)])
        result = db.query(SQL)
        assert db.planner.metrics.invalidations > invalidations
        assert not result.plan_cached
        assert db.planner.metrics.synopses_built == 1

    def test_drift_past_the_threshold_redraws(self, db):
        db.query(SQL)
        grow = int(200 * DRIFT) + 1
        db.insert("R", [(1, 0.5)] * grow)
        db.query(SQL)
        assert db.planner.metrics.synopses_built == 2

    def test_a_new_index_redraws(self, db):
        db.query(SQL)
        db.create_column_index("R", "a")
        db.query(SQL)
        assert db.planner.metrics.synopses_built == 2

    def test_the_estimator_is_not_a_knob(self, db):
        with pytest.raises(TypeError):
            db.query(SQL, estimator=None)
        with pytest.raises(TypeError):
            db.query(SQL, synopsis=None)

    def test_walk_count_is_a_constant(self, db):
        spec = db.bind(SQL)
        synopsis = db.planner.synopsis(spec)
        walks = synopsis.walks(frozenset({"R"}))
        assert len(walks.weights) == WALKS
