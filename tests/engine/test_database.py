"""Integration tests for the Database façade."""

import random

import pytest

from repro.engine import Database
from repro.optimizer import LimitPlan
from repro.storage import DataType


@pytest.fixture
def db():
    rng = random.Random(21)
    db = Database()
    db.create_table(
        "item", [("name", DataType.TEXT), ("price", DataType.FLOAT), ("stock", DataType.INT)]
    )
    db.insert(
        "item",
        [(f"i{i}", round(rng.uniform(1, 100), 2), rng.randrange(50)) for i in range(200)],
    )
    db.register_predicate("cheap", ["item.price"], lambda p: 1 - p / 100, cost=1.0)
    db.register_predicate("stocked", ["item.stock"], lambda s: s / 50, cost=1.0)
    db.create_rank_index("item", "cheap")
    db.analyze()
    return db


class TestSchemaManagement:
    def test_create_table_specs(self):
        db = Database()
        table = db.create_table("t", ["x", ("n", DataType.INT)])
        assert table.schema.column_names() == ["x", "n"]
        assert table.schema.column("n").dtype is DataType.INT

    def test_insert_returns_count(self, db):
        assert db.insert("item", [("new", 5.0, 1)]) == 1

    def test_insert_dicts(self, db):
        db.insert_dicts("item", [{"name": "d1", "price": 2.0, "stock": 3}])
        assert db.catalog.table("item").row_count == 201


class TestQueries:
    def test_single_table_topk(self, db):
        result = db.query(
            "SELECT * FROM item ORDER BY cheap(item.price) LIMIT 5",
        )
        assert len(result) == 5
        prices = sorted(r.values[1] for r in db.catalog.table("item").rows())
        # Top-5 cheapest items.
        got_prices = sorted(row[1] for row in result.rows)
        assert got_prices == prices[:5]

    def test_scores_descending(self, db):
        result = db.query(
            "SELECT * FROM item ORDER BY cheap(item.price) + stocked(item.stock) LIMIT 10",
        )
        assert result.scores == sorted(result.scores, reverse=True)

    def test_projection(self, db):
        result = db.query(
            "SELECT name FROM item ORDER BY cheap(item.price) LIMIT 3",
        )
        assert all(len(row) == 1 for row in result.rows)
        assert result.schema.qualified_names() == ["item.name"]

    def test_where_filtering(self, db):
        result = db.query(
            "SELECT * FROM item WHERE item.stock > 25 "
            "ORDER BY cheap(item.price) LIMIT 5",
        )
        assert all(row[2] > 25 for row in result.rows)

    def test_to_dicts(self, db):
        result = db.query(
            "SELECT * FROM item ORDER BY cheap(item.price) LIMIT 2",
        )
        records = result.to_dicts()
        assert len(records) == 2
        assert "item.price" in records[0]
        assert "score" in records[0]

    def test_result_iteration_and_indexing(self, db):
        result = db.query(
            "SELECT * FROM item ORDER BY cheap(item.price) LIMIT 3",
        )
        assert list(result)[0] == result[0]

    def test_metrics_exposed(self, db):
        result = db.query(
            "SELECT * FROM item ORDER BY cheap(item.price) LIMIT 1",
        )
        assert result.metrics.simulated_cost > 0
        assert result.metrics.tuples_scanned >= 1

    def test_explain_returns_plan_text(self, db):
        text = db.explain(
            "SELECT * FROM item ORDER BY cheap(item.price) LIMIT 1",
        )
        assert "limit(1)" in text

    def test_plan_returns_limit_root(self, db):
        plan = db.plan(
            "SELECT * FROM item ORDER BY cheap(item.price) LIMIT 4",
        )
        assert isinstance(plan, LimitPlan)

    def test_traditional_matches_rank_aware(self, db):
        sql = (
            "SELECT * FROM item ORDER BY cheap(item.price) + stocked(item.stock) LIMIT 7"
        )
        ranked = db.query(sql)
        spec = db.bind(sql)
        traditional = db.execute(
            db.plan_traditional(sql), spec.scoring, k=spec.k
        )
        assert [round(s, 9) for s in ranked.scores] == [
            round(s, 9) for s in traditional.scores
        ]

    def test_non_ranking_query(self, db):
        result = db.query("SELECT * FROM item LIMIT 10")
        assert len(result) == 10


class TestMultiTableQueries:
    @pytest.fixture
    def shop(self):
        rng = random.Random(3)
        db = Database()
        db.create_table("p", [("cat", DataType.INT), ("quality", DataType.FLOAT)])
        db.create_table("v", [("cat", DataType.INT), ("rating", DataType.FLOAT)])
        for __ in range(150):
            db.insert("p", [(rng.randrange(10), rng.random())])
            db.insert("v", [(rng.randrange(10), rng.random())])
        db.register_predicate("good", ["p.quality"], lambda q: q)
        db.register_predicate("rated", ["v.rating"], lambda r: r)
        db.create_rank_index("p", "good")
        db.create_rank_index("v", "rated")
        db.analyze()
        return db

    def test_join_topk_matches_brute_force(self, shop):
        result = shop.query(
            "SELECT * FROM p, v WHERE p.cat = v.cat "
            "ORDER BY good(p.quality) + rated(v.rating) LIMIT 10",
        )
        expected = sorted(
            (
                pr[1] + vr[1]
                for pr in shop.catalog.table("p").rows()
                for vr in shop.catalog.table("v").rows()
                if pr[0] == vr[0]
            ),
            reverse=True,
        )[:10]
        assert [round(s, 9) for s in result.scores] == [round(v, 9) for v in expected]

    def test_heuristic_optimizer_same_answers(self, shop):
        sql = (
            "SELECT * FROM p, v WHERE p.cat = v.cat "
            "ORDER BY good(p.quality) + rated(v.rating) LIMIT 5"
        )
        full = shop.query(sql)
        heuristic = shop.query(
            sql, left_deep=True, greedy_mu=True
        )
        assert [round(s, 9) for s in full.scores] == [
            round(s, 9) for s in heuristic.scores
        ]
