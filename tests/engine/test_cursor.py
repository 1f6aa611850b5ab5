"""Tests for the incremental Cursor API."""

import random

import pytest

from repro.engine import Database
from repro.storage import DataType


@pytest.fixture
def db():
    rng = random.Random(41)
    db = Database()
    db.create_table("t", [("name", DataType.TEXT), ("x", DataType.FLOAT)])
    db.insert("t", [(f"r{i}", rng.random()) for i in range(300)])
    db.register_predicate("px", ["t.x"], lambda x: x, cost=1.0)
    db.create_rank_index("t", "px")
    db.analyze()
    return db


SQL = "SELECT * FROM t ORDER BY px(t.x) LIMIT 5"


class TestCursor:
    def test_fetch_next_in_order(self, db):
        with db.open_cursor(SQL) as cursor:
            scores = []
            for __ in range(10):
                pair = cursor.fetch_next_scored()
                assert pair is not None
                scores.append(pair[1])
            assert scores == sorted(scores, reverse=True)

    def test_fetch_beyond_limit(self, db):
        """Cursors ignore the LIMIT: k 'not even specified beforehand'."""
        with db.open_cursor(SQL) as cursor:
            rows = cursor.fetch_many(50)
            assert len(rows) == 50  # past the LIMIT 5

    def test_exhaustion_returns_none(self, db):
        with db.open_cursor(SQL) as cursor:
            rows = cursor.fetch_many(10_000)
            assert len(rows) == 300
            assert cursor.fetch_next() is None
            assert cursor.fetch_many(3) == []

    def test_work_proportional_to_fetched(self, db):
        with db.open_cursor(SQL) as cursor:
            cursor.fetch_next()
            early = cursor.metrics.simulated_cost
            cursor.fetch_many(200)
            later = cursor.metrics.simulated_cost
            assert early < later
            # The first result must not require draining the table.
            assert early < later / 2

    def test_matches_query_results(self, db):
        result = db.query(SQL)
        with db.open_cursor(SQL) as cursor:
            fetched = cursor.fetch_many(5)
        assert fetched == result.rows

    def test_iteration_protocol(self, db):
        with db.open_cursor(SQL) as cursor:
            first_three = []
            for row in cursor:
                first_three.append(row)
                if len(first_three) == 3:
                    break
            assert len(first_three) == 3

    def test_closed_cursor_raises(self, db):
        cursor = db.open_cursor(SQL)
        cursor.close()
        with pytest.raises(RuntimeError):
            cursor.fetch_next()

    def test_close_idempotent(self, db):
        cursor = db.open_cursor(SQL)
        cursor.close()
        cursor.close()

    def test_projection_preserved(self, db):
        sql = "SELECT name FROM t ORDER BY px(t.x) LIMIT 2"
        with db.open_cursor(sql) as cursor:
            row = cursor.fetch_next()
            assert row is not None
            assert len(row) == 1
            assert cursor.schema.qualified_names() == ["t.name"]
