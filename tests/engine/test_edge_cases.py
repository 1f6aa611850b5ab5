"""Edge cases through the whole stack: empty tables, k = 0, NULLs,
degenerate samples, single rows."""

import pytest

from repro.engine import Database
from repro.storage import DataType


@pytest.fixture
def empty_db():
    db = Database()
    db.create_table("t", [("x", DataType.FLOAT), ("flag", DataType.BOOL)])
    db.register_predicate("px", ["t.x"], lambda x: x if x is not None else 0.0)
    db.create_rank_index("t", "px")
    db.analyze()
    return db


class TestEmptyTable:
    def test_topk_over_empty(self, empty_db):
        result = empty_db.query(
            "SELECT * FROM t ORDER BY px(t.x) LIMIT 5"
        )
        assert len(result) == 0
        assert result.rows == []

    def test_traditional_over_empty(self, empty_db):
        sql = "SELECT * FROM t ORDER BY px(t.x) LIMIT 5"
        spec = empty_db.bind(sql)
        plan = empty_db.plan_traditional(sql)
        result = empty_db.execute(plan, spec.scoring, k=spec.k)
        assert len(result) == 0


class TestSmallInputs:
    def test_single_row(self, empty_db):
        empty_db.insert("t", [(0.5, True)])
        result = empty_db.query(
            "SELECT * FROM t ORDER BY px(t.x) LIMIT 5"
        )
        assert len(result) == 1
        assert result.scores[0] == pytest.approx(0.5)

    def test_k_zero(self, empty_db):
        empty_db.insert("t", [(0.5, True)])
        result = empty_db.query(
            "SELECT * FROM t ORDER BY px(t.x) LIMIT 0"
        )
        assert len(result) == 0

    def test_k_exceeds_rows(self, empty_db):
        empty_db.insert("t", [(0.1, True), (0.9, False)])
        result = empty_db.query(
            "SELECT * FROM t ORDER BY px(t.x) LIMIT 100"
        )
        assert len(result) == 2  # min(k, |result|), per the paper's footnote

    def test_all_rows_filtered_out(self, empty_db):
        empty_db.insert("t", [(0.1, False), (0.2, False)])
        result = empty_db.query(
            "SELECT * FROM t WHERE t.flag ORDER BY px(t.x) LIMIT 5",
        )
        assert len(result) == 0


class TestNulls:
    def test_null_scores_rank_last(self, empty_db):
        empty_db.insert("t", [(None, True), (0.9, True), (0.5, True)])
        result = empty_db.query(
            "SELECT * FROM t ORDER BY px(t.x) LIMIT 3"
        )
        assert len(result) == 3
        # NULL maps to score 0 → last.
        assert result.rows[-1][0] is None

    def test_null_in_where_is_false(self, empty_db):
        empty_db.insert("t", [(None, True), (0.9, True)])
        result = empty_db.query(
            "SELECT * FROM t WHERE t.x > 0 ORDER BY px(t.x) LIMIT 5",
        )
        assert len(result) == 1


class TestTies:
    def test_tied_scores_all_returned(self, empty_db):
        empty_db.insert("t", [(0.5, True)] * 4)
        result = empty_db.query(
            "SELECT * FROM t ORDER BY px(t.x) LIMIT 4"
        )
        assert len(result) == 4
        assert all(s == pytest.approx(0.5) for s in result.scores)

    def test_deterministic_across_runs(self, empty_db):
        empty_db.insert("t", [(0.5, True), (0.5, False), (0.7, True)])
        sql = "SELECT * FROM t ORDER BY px(t.x) LIMIT 2"
        a = empty_db.query(sql)
        b = empty_db.query(sql)
        assert a.rows == b.rows
