"""Engine-level tests for hand-built logical plans (set operations)."""

import random

import pytest

from repro.algebra.operators import (
    LogicalDifference,
    LogicalIntersect,
    LogicalLimit,
    LogicalRank,
    LogicalScan,
    LogicalUnion,
)
from repro.algebra.predicates import RankingPredicate, ScoringFunction
from repro.engine import Database
from repro.optimizer import QuerySpec
from repro.storage import DataType


@pytest.fixture
def movie_db():
    """Two union-compatible tables: streaming and cinema movies."""
    rng = random.Random(17)
    db = Database()
    for name in ("streaming", "cinema"):
        db.create_table(
            name, [("title", DataType.TEXT), ("rating", DataType.FLOAT)]
        )
    titles = [f"movie-{i}" for i in range(60)]
    ratings = {t: round(rng.random(), 3) for t in titles}
    streaming_titles = titles[:40]
    cinema_titles = titles[25:]
    db.insert("streaming", [(t, ratings[t]) for t in streaming_titles])
    db.insert("cinema", [(t, ratings[t]) for t in cinema_titles])
    # Two predicates over the shared (bare) columns so they evaluate on
    # either operand: critic score = rating, freshness = 1 - rating/2.
    critic = db.register_predicate("critic", ["rating"], lambda r: r)
    fresh = db.register_predicate("fresh", ["rating"], lambda r: 1 - r / 2)
    db.analyze()
    scoring = ScoringFunction([critic, fresh])
    return db, scoring, ratings, set(streaming_titles), set(cinema_titles)


def ranked_sides(db):
    streaming = LogicalRank(
        LogicalScan("streaming", db.catalog.table("streaming").schema), "critic"
    )
    cinema = LogicalRank(
        LogicalScan("cinema", db.catalog.table("cinema").schema), "fresh"
    )
    return streaming, cinema


def spec_for(db, scoring, k):
    return QuerySpec(tables=["streaming"], scoring=scoring, k=k)


def final_score(ratings, title):
    r = ratings[title]
    return r + (1 - r / 2)


class TestLogicalSetQueries:
    def test_union_topk(self, movie_db):
        db, scoring, ratings, streaming, cinema = movie_db
        left, right = ranked_sides(db)
        plan = LogicalLimit(LogicalUnion(left, right), 5)
        result = db.query_logical(plan, spec_for(db, scoring, 5))
        expected = sorted(
            (final_score(ratings, t) for t in streaming | cinema), reverse=True
        )[:5]
        assert [round(s, 9) for s in result.scores] == [round(v, 9) for v in expected]

    def test_intersection_topk(self, movie_db):
        db, scoring, ratings, streaming, cinema = movie_db
        left, right = ranked_sides(db)
        plan = LogicalLimit(LogicalIntersect(left, right), 5)
        result = db.query_logical(plan, spec_for(db, scoring, 5))
        both = streaming & cinema
        expected = sorted(
            (final_score(ratings, t) for t in both), reverse=True
        )[:5]
        assert [round(s, 9) for s in result.scores] == [round(v, 9) for v in expected]

    def test_difference_membership(self, movie_db):
        db, scoring, ratings, streaming, cinema = movie_db
        left, right = ranked_sides(db)
        plan = LogicalLimit(LogicalDifference(left, right), 10)
        result = db.query_logical(plan, spec_for(db, scoring, 10))
        only_streaming = streaming - cinema
        got_titles = {row[0] for row in result.rows}
        assert got_titles <= only_streaming
        assert len(result) == min(10, len(only_streaming))

    def test_union_plan_uses_rank_operators(self, movie_db):
        db, scoring, *__ = movie_db
        left, right = ranked_sides(db)
        plan = LogicalLimit(LogicalUnion(left, right), 3)
        result = db.query_logical(plan, spec_for(db, scoring, 3))
        assert "rankUnion" in result.explain()

    @pytest.mark.parametrize(
        "operator,k,fingerprint",
        [
            (LogicalUnion, 5, "limit(5)(rankUnion(rank_critic(seqScan(streaming)),"
             "rank_fresh(seqScan(cinema))))"),
            (LogicalIntersect, 5, "limit(5)(rankIntersect(rank_critic("
             "seqScan(streaming)),rank_fresh(seqScan(cinema))))"),
            (LogicalDifference, 10, "limit(10)(rankDifference(rank_critic("
             "seqScan(streaming)),rank_fresh(seqScan(cinema))))"),
        ],
    )
    def test_set_op_plans_are_pinned(self, movie_db, operator, k, fingerprint):
        """Each node of the hand-built tree keeps its cheapest
        implementation: µ over a seq-scan (no rank index) under the
        rank-aware set operator."""
        db, scoring, *__ = movie_db
        left, right = ranked_sides(db)
        plan = LogicalLimit(operator(left, right), k)
        result = db.query_logical(plan, spec_for(db, scoring, k))
        assert result.plan.fingerprint() == fingerprint


class TestLogicalSurface:
    def test_traced_as_its_own_statement(self, movie_db):
        """``query_logical`` opens a statement like every other surface:
        one ``query.count`` and one ``system.queries`` row per call."""
        db, scoring, *__ = movie_db
        left, right = ranked_sides(db)
        plan = LogicalLimit(LogicalUnion(left, right), 5)
        queries = db.registry.get("query.count")
        before = queries.value
        rows = len(db.query("SELECT * FROM system.queries").rows)
        db.query_logical(plan, spec_for(db, scoring, 5))
        assert queries.value == before + 1
        records = db.query("SELECT * FROM system.queries").to_dicts()
        assert len(records) == rows + 1
        assert records[0]["surface"] == "logical"
        assert records[0]["sql"] == "<logical plan>"

    def test_max_plans_is_gone(self, movie_db):
        """The tree is implemented as given — there is no closure search
        to bound."""
        db, scoring, *__ = movie_db
        left, right = ranked_sides(db)
        plan = LogicalLimit(LogicalUnion(left, right), 5)
        with pytest.raises(TypeError):
            db.query_logical(plan, spec_for(db, scoring, 5), max_plans=30)
        with pytest.raises(TypeError):
            db.planner.plan_logical(plan, spec_for(db, scoring, 5), max_plans=30)
