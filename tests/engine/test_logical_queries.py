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
        result = db.query_logical(
            plan, spec_for(db, scoring, 5), max_plans=30
        )
        expected = sorted(
            (final_score(ratings, t) for t in streaming | cinema), reverse=True
        )[:5]
        assert [round(s, 9) for s in result.scores] == [round(v, 9) for v in expected]

    def test_intersection_topk(self, movie_db):
        db, scoring, ratings, streaming, cinema = movie_db
        left, right = ranked_sides(db)
        plan = LogicalLimit(LogicalIntersect(left, right), 5)
        result = db.query_logical(
            plan, spec_for(db, scoring, 5), max_plans=30
        )
        both = streaming & cinema
        expected = sorted(
            (final_score(ratings, t) for t in both), reverse=True
        )[:5]
        assert [round(s, 9) for s in result.scores] == [round(v, 9) for v in expected]

    def test_difference_membership(self, movie_db):
        db, scoring, ratings, streaming, cinema = movie_db
        left, right = ranked_sides(db)
        plan = LogicalLimit(LogicalDifference(left, right), 10)
        result = db.query_logical(
            plan, spec_for(db, scoring, 10), max_plans=30
        )
        only_streaming = streaming - cinema
        got_titles = {row[0] for row in result.rows}
        assert got_titles <= only_streaming
        assert len(result) == min(10, len(only_streaming))

    def test_union_plan_uses_rank_operators(self, movie_db):
        db, scoring, *__ = movie_db
        left, right = ranked_sides(db)
        plan = LogicalLimit(LogicalUnion(left, right), 3)
        result = db.query_logical(
            plan, spec_for(db, scoring, 3), max_plans=30
        )
        assert "rankUnion" in result.explain()
