"""Tests for the IN and BETWEEN sugar in the SQL dialect."""

import random

import pytest

from repro.engine import Database
from repro.sql.ast import BooleanNode, BinaryOpNode
from repro.sql.parser import parse
from repro.storage import DataType


@pytest.fixture
def db():
    rng = random.Random(117)
    db = Database()
    db.create_table(
        "dish", [("name", DataType.TEXT), ("kind", DataType.TEXT), ("price", DataType.FLOAT)]
    )
    kinds = ["soup", "salad", "main", "dessert"]
    db.insert(
        "dish",
        [
            (f"dish-{i}", rng.choice(kinds), round(rng.uniform(3, 30), 2))
            for i in range(150)
        ],
    )
    db.register_predicate("cheap", ["dish.price"], lambda p: max(0.0, 1 - p / 30))
    db.create_rank_index("dish", "cheap")
    db.analyze()
    return db


class TestParsing:
    def test_in_desugars_to_or(self):
        statement = parse("SELECT * FROM t WHERE kind IN ('a', 'b', 'c')")
        where = statement.where
        assert isinstance(where, BooleanNode) and where.op == "or"
        assert len(where.operands) == 3
        assert all(
            isinstance(op, BinaryOpNode) and op.op == "=" for op in where.operands
        )

    def test_in_single_value(self):
        statement = parse("SELECT * FROM t WHERE kind IN ('a')")
        assert isinstance(statement.where, BinaryOpNode)

    def test_not_in(self):
        statement = parse("SELECT * FROM t WHERE kind NOT IN ('a', 'b')")
        assert statement.where.op == "not"

    def test_between_desugars_to_range(self):
        statement = parse("SELECT * FROM t WHERE price BETWEEN 5 AND 10")
        where = statement.where
        assert isinstance(where, BooleanNode) and where.op == "and"
        assert where.operands[0].op == ">="
        assert where.operands[1].op == "<="

    def test_not_between(self):
        statement = parse("SELECT * FROM t WHERE price NOT BETWEEN 5 AND 10")
        assert statement.where.op == "not"

    def test_between_in_conjunction(self):
        statement = parse(
            "SELECT * FROM t WHERE a = 1 AND price BETWEEN 5 AND 10 AND b = 2"
        )
        assert statement.where.op == "and"
        assert len(statement.where.operands) == 3

    def test_plain_not_still_works(self):
        statement = parse("SELECT * FROM t WHERE NOT a = 1")
        assert statement.where.op == "not"


class TestExecution:
    def test_in_filters_rows(self, db):
        result = db.query(
            "SELECT * FROM dish WHERE dish.kind IN ('soup', 'salad') "
            "ORDER BY cheap(dish.price) LIMIT 20",
        )
        assert len(result) > 0
        assert all(row[1] in ("soup", "salad") for row in result.rows)

    def test_not_in_filters_rows(self, db):
        result = db.query(
            "SELECT * FROM dish WHERE dish.kind NOT IN ('soup', 'salad') "
            "ORDER BY cheap(dish.price) LIMIT 20",
        )
        assert all(row[1] in ("main", "dessert") for row in result.rows)

    def test_between_filters_rows(self, db):
        result = db.query(
            "SELECT * FROM dish WHERE dish.price BETWEEN 10 AND 20 "
            "ORDER BY cheap(dish.price) LIMIT 20",
        )
        assert all(10 <= row[2] <= 20 for row in result.rows)

    def test_between_matches_brute_force(self, db):
        result = db.query(
            "SELECT * FROM dish WHERE dish.price BETWEEN 5 AND 15 "
            "ORDER BY cheap(dish.price) LIMIT 5",
        )
        expected = sorted(
            (
                max(0.0, 1 - r[2] / 30)
                for r in db.catalog.table("dish").rows()
                if 5 <= r[2] <= 15
            ),
            reverse=True,
        )[:5]
        assert result.scores == pytest.approx(expected)
