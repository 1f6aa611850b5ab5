"""Each tuple's upper bound ``F_P`` is computed once and rides on its
:class:`ScoredRow`; a row must never serve a bound computed under another
scoring function.

Results and cursors outlive their execution, and the same database runs
many statements whose scoring functions differ only in weights — none of
that may leak a stale bound into a score or an order.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.predicates import RankingPredicate, ScoringFunction
from repro.algebra.rank_relation import ScoredRow
from repro.engine import Database
from repro.execution.iterator import ExecutionContext
from repro.storage import Catalog, DataType, Row

TEMPLATE = "SELECT * FROM t ORDER BY pa(t.a) + pb(t.b) LIMIT 15"
REWEIGHTED = "SELECT * FROM t ORDER BY 0.2 * pa(t.a) + 0.8 * pb(t.b) LIMIT 15"


def build() -> Database:
    rng = random.Random(13)
    db = Database()
    db.create_table(
        "t", [("name", DataType.TEXT), ("a", DataType.FLOAT), ("b", DataType.FLOAT)]
    )
    db.insert("t", [(f"r{i}", rng.random(), rng.random()) for i in range(200)])
    db.register_predicate("pa", ["t.a"], lambda a: a, cost=1.0)
    db.register_predicate("pb", ["t.b"], lambda b: b, cost=1.0)
    db.create_rank_index("t", "pa")
    db.create_rank_index("t", "pb")
    db.analyze()
    return db


def ranked(result) -> list[tuple]:
    """``(rid, score)`` best first, plus any bound cached on the row under
    the result's scoring function (it must equal the score)."""
    out = []
    for scored, score in zip(result.scored_rows, result.scores):
        if scored.bound_of is result.scoring:
            assert scored.bound == score
        out.append((scored.row.rid, score))
    return out


@pytest.mark.parametrize("strategy", ["rank-aware", "traditional"])
def test_reruns_cursors_and_reweighting_match_fresh_runs(strategy):
    fresh = build()
    expected = ranked(fresh.query(TEMPLATE, strategy=strategy))
    expected_reweighted = ranked(fresh.query(REWEIGHTED, strategy=strategy))
    assert [rid for rid, __ in expected] != [rid for rid, __ in expected_reweighted]

    db = build()
    prepared = db.prepare(TEMPLATE, strategy=strategy)
    first = prepared.run()
    cursor = db.open_cursor(TEMPLATE, strategy=strategy)
    opened = [cursor.fetch_next_scored() for __ in range(5)]
    second = prepared.run()
    reweighted = db.query(REWEIGHTED, strategy=strategy)
    rest = [cursor.fetch_next_scored() for __ in range(10)]
    cursor.close()

    assert ranked(first) == expected
    assert ranked(second) == expected
    assert ranked(reweighted) == expected_reweighted
    fresh_rows = fresh.query(TEMPLATE, strategy=strategy)
    assert opened + rest == list(zip(fresh_rows.rows, fresh_rows.scores))
    # Re-reading the first result after the other statements ran still
    # gives its own scores.
    assert ranked(first) == expected


def test_a_row_bound_under_another_scoring_function_is_recomputed():
    pa = RankingPredicate("pa", ["t.a"], lambda a: a)
    pb = RankingPredicate("pb", ["t.b"], lambda b: b)
    plain = ScoringFunction([pa, pb])
    weighted = ScoringFunction([pa, pb], combiner="wsum", weights=[0.2, 0.8])
    scored = ScoredRow(Row.base([0.9, 0.1], "t", 0), {"pa": 0.9})

    assert ExecutionContext(Catalog(), plain).upper_bound(scored) == 1.9
    assert scored.bound_of is plain
    context = ExecutionContext(Catalog(), weighted)
    assert context.upper_bound(scored) == weighted.upper_bound({"pa": 0.9})
    assert scored.bound_of is weighted
    assert context.upper_bound(scored) == weighted.upper_bound({"pa": 0.9})
    # Derived rows start uncached.
    assert scored.with_score("pb", 0.1).bound_of is None
