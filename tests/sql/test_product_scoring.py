"""Product scoring functions through the SQL dialect.

The paper's F is summation throughout but "can be other monotonic
functions such as multiplication" — ``ORDER BY p1 * p2`` selects the
product combiner, and the whole upper-bound machinery must stay sound.
"""

import random

import pytest

from repro.engine import Database
from repro.sql.parser import parse
from repro.storage import DataType


@pytest.fixture
def db():
    rng = random.Random(83)
    db = Database()
    db.create_table("t", [("x", DataType.FLOAT), ("y", DataType.FLOAT)])
    db.insert("t", [(rng.random(), rng.random()) for __ in range(200)])
    db.register_predicate("px", ["t.x"], lambda x: x)
    db.register_predicate("py", ["t.y"], lambda y: y)
    db.create_rank_index("t", "px")
    db.analyze()
    return db


class TestParsing:
    def test_product_terms_marked(self):
        statement = parse("SELECT * FROM t ORDER BY px(t.x) * py(t.y) LIMIT 1")
        assert [term.combiner for term in statement.order_by] == ["product"] * 2

    def test_sum_terms_default(self):
        statement = parse("SELECT * FROM t ORDER BY px(t.x) + py(t.y) LIMIT 1")
        assert [term.combiner for term in statement.order_by] == ["sum"] * 2

    def test_three_way_product(self):
        statement = parse("SELECT * FROM t ORDER BY a * b * c LIMIT 1")
        assert len(statement.order_by) == 3
        assert all(term.combiner == "product" for term in statement.order_by)


class TestBinding:
    def test_product_combiner_selected(self, db):
        spec = db.bind("SELECT * FROM t ORDER BY px(t.x) * py(t.y) LIMIT 3")
        assert spec.scoring.combiner == "product"

    def test_single_term_stays_sum(self, db):
        spec = db.bind("SELECT * FROM t ORDER BY px(t.x) LIMIT 3")
        assert spec.scoring.combiner == "sum"


class TestExecution:
    def test_product_topk_matches_brute_force(self, db):
        result = db.query(
            "SELECT * FROM t ORDER BY px(t.x) * py(t.y) LIMIT 10",
        )
        expected = sorted(
            (r[0] * r[1] for r in db.catalog.table("t").rows()), reverse=True
        )[:10]
        assert result.scores == pytest.approx(expected)

    def test_product_scores_descending(self, db):
        result = db.query(
            "SELECT * FROM t ORDER BY px(t.x) * py(t.y) LIMIT 20",
        )
        assert result.scores == sorted(result.scores, reverse=True)

    def test_product_agrees_with_traditional(self, db):
        sql = "SELECT * FROM t ORDER BY px(t.x) * py(t.y) LIMIT 7"
        ranked = db.query(sql)
        spec = db.bind(sql)
        traditional = db.execute(
            db.plan_traditional(sql),
            spec.scoring,
            k=spec.k,
        )
        assert [round(s, 9) for s in ranked.scores] == [
            round(s, 9) for s in traditional.scores
        ]
