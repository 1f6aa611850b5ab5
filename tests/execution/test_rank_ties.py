"""Known bug: rank-aware plans break row-id ties on exact score ties.

Definition 1 orders a rank-relation by descending ``F_P`` and then by row
id, and the sort plan does exactly that.  µ, HRJN and the rank-aware set
operators emit their queue top once ``peek_bound() >= threshold`` (§4.1's
rule), so a buffered tuple leaves as soon as it *equals* the input
threshold — before an equal-score tuple with a smaller row id has been
drawn.  Here rid 10 comes out ahead of rid 1 at score 1.6666666666666665.

Emitting only on ``>`` fixes the order but changes the paper's tuple-flow
counts (Figure 6, plan b) and the depth of the ledger's joins, so the fix
is tracked on the ROADMAP rather than made here.
"""

from __future__ import annotations

import random

import pytest

from repro import DataType
from repro.engine import Database

SQL = "SELECT * FROM h ORDER BY pa(h.a) + pb(h.b) LIMIT 60"


@pytest.fixture(scope="module")
def db():
    rng = random.Random(7)
    db = Database()
    db.create_table("h", [("a", DataType.INT), ("b", DataType.INT)])
    db.insert("h", [(rng.randrange(1, 4), rng.randrange(1, 4)) for __ in range(300)])
    db.register_predicate("pa", ["h.a"], lambda a: a / 3)
    db.register_predicate("pb", ["h.b"], lambda b: b / 3)
    db.create_rank_index("h", "pa")
    db.analyze()
    return db


def ranked(db, strategy: str, execution: str) -> list[tuple]:
    result = db.query(SQL, strategy=strategy, execution=execution)
    return [(s.row.rid, score) for s, score in zip(result.scored_rows, result.scores)]


REGIMES = ["row", "auto", "compiled"]


@pytest.mark.parametrize("execution", REGIMES)
def test_rank_aware_plan_returns_the_sort_plans_scores(db, execution):
    """The repro's premise: a real rank-aware plan, the same score
    sequence as the sort plan, and exact ties at 5/3 to break."""
    assert "rank_" in db.explain(SQL, strategy="rank-aware", execution=execution)
    expected = ranked(db, "traditional", execution)
    actual = ranked(db, "rank-aware", execution)
    assert [score for __, score in actual] == [score for __, score in expected]
    assert sum(score == 1.6666666666666665 for __, score in expected) > 1


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="µ/HRJN/set-op emission on peek_bound() >= threshold releases a "
    "tuple before an equal-score tuple with a smaller row id is drawn",
)
@pytest.mark.parametrize("execution", REGIMES)
def test_rank_aware_ties_follow_row_id_like_the_sort_plan(db, execution):
    expected = [rid for rid, __ in ranked(db, "traditional", execution)]
    actual = [rid for rid, __ in ranked(db, "rank-aware", execution)]
    assert actual == expected
