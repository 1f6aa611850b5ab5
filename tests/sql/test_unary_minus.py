"""Unary minus: a negated number literal folds into the literal; any
other ``-expr`` binds to ``-1 * expr``, which both execution regimes
evaluate the same way (NULL stays NULL, the sign of zero flips)."""

import pytest

from repro.engine.database import Database
from repro.sql import BindError, ColumnNode, LiteralNode, NegateNode, parse
from repro.storage import DataType


def where(sql_condition: str):
    return parse(f"SELECT * FROM A WHERE {sql_condition}").where


class TestParse:
    def test_negated_literals_fold(self):
        assert where("A.p1 > -1.0").right == LiteralNode(-1.0)
        assert where("A.p1 > -3").right == LiteralNode(-3)
        assert where("A.p1 > -(2.5)").right == LiteralNode(-2.5)
        assert where("A.p1 > - -4").right == LiteralNode(4)

    def test_negated_expression_is_a_node(self):
        condition = where("-A.p1 < -(A.p1 * 2)")
        assert condition.left == NegateNode(ColumnNode("A", "p1"))
        assert isinstance(condition.right, NegateNode)

    def test_binary_minus_is_unchanged(self):
        condition = where("A.p1 - 1 > 0")
        assert condition.left.op == "-"
        assert condition.left.right == LiteralNode(1)

    def test_subtracting_a_negative(self):
        assert where("A.p1 - -1 > 0").left.right == LiteralNode(-1)

    def test_negative_literal_statement_parses(self):
        statement = parse(
            "SELECT * FROM A WHERE A.p1 > -1.0 ORDER BY f1(A.p1) LIMIT 2"
        )
        assert statement.limit == 2


def build_db(execution: str) -> Database:
    db = Database(execution=execution)
    db.create_table(
        "A", [("id", DataType.INT), ("p1", DataType.FLOAT), ("s", DataType.TEXT)]
    )
    db.insert(
        "A",
        [(0, 0.5, "a"), (1, -2.0, "b"), (2, 0.0, "c"), (3, None, "d"),
         (4, -0.25, "e"), (5, 1.0, "f")],
    )
    db.register_predicate("f1", ["A.p1"], lambda x: x)
    db.analyze()
    return db


@pytest.fixture(scope="module", params=["row", "compiled"])
def db(request):
    return build_db(request.param)


QUERIES = {
    "literal": "SELECT * FROM A WHERE A.p1 > -1.0 ORDER BY f1(A.p1) LIMIT 2",
    "column": "SELECT * FROM A WHERE -A.p1 >= 0 ORDER BY f1(A.p1)",
    "nested": "SELECT * FROM A WHERE -(A.p1 - 1) > 0.2 ORDER BY f1(A.p1)",
    "score": "SELECT * FROM A ORDER BY (-A.p1 + 2) / 4 LIMIT 4",
}

EXPECTED_IDS = {
    "literal": [5, 0],
    "column": [1, 2, 4],
    "nested": [0, 1, 2, 4],
    "score": [1, 4, 2, 0],
}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_unary_minus_runs_in_both_regimes(db, name):
    result = db.query(QUERIES[name], strategy="traditional")
    assert [s.row.values[0] for s in result.scored_rows] == EXPECTED_IDS[name]


def test_negating_text_is_rejected(db):
    with pytest.raises(BindError, match="unary minus"):
        db.query("SELECT * FROM A WHERE -A.s = 'a' ORDER BY f1(A.p1)")


def test_negated_parameter_expects_a_number(db):
    from repro.algebra.parameters import ParameterError

    sql = "SELECT * FROM A WHERE A.p1 > -? ORDER BY f1(A.p1) LIMIT 3"
    result = db.query(sql, params=(1.0,), strategy="traditional")
    assert [s.row.values[0] for s in result.scored_rows] == [5, 0, 2]
    with pytest.raises(ParameterError):
        db.query(sql, params=("x",), strategy="traditional")
