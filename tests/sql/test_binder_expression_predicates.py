"""Binder: expression predicates in ORDER BY (non-registered terms)."""

import pytest

from repro.engine import Database
from repro.storage import DataType


@pytest.fixture
def db():
    db = Database()
    db.create_table(
        "p", [("a", DataType.FLOAT), ("b", DataType.FLOAT), ("tag", DataType.TEXT)]
    )
    db.insert("p", [(i / 10, (10 - i) / 10, f"t{i}") for i in range(11)])
    db.analyze()
    return db


class TestExpressionPredicates:
    def test_column_term_p_max_from_stats(self, db):
        spec = db.bind("SELECT * FROM p ORDER BY p.a LIMIT 3")
        (name,) = spec.scoring.predicate_names
        predicate = spec.scoring.predicate(name)
        assert predicate.cost == 0.0
        assert predicate.p_max == pytest.approx(1.0)  # max(a) = 1.0

    def test_compound_expression_p_max_sums_components(self, db):
        spec = db.bind("SELECT * FROM p ORDER BY p.a + p.b LIMIT 3")
        # One expression predicate per additive term.
        assert len(spec.scoring.predicate_names) == 2

    def test_arithmetic_term_bound(self, db):
        spec = db.bind("SELECT * FROM p ORDER BY (p.a + p.b) / 2 LIMIT 3")
        (name,) = spec.scoring.predicate_names
        predicate = spec.scoring.predicate(name)
        # Conservative bound: sum of |max| of referenced columns = 2.0.
        assert predicate.p_max == pytest.approx(2.0)

    def test_expression_predicate_reused_across_binds(self, db):
        first = db.bind("SELECT * FROM p ORDER BY p.a LIMIT 1")
        second = db.bind("SELECT * FROM p ORDER BY p.a LIMIT 5")
        assert first.scoring.predicate_names == second.scoring.predicate_names
        # Registered once in the catalog, not duplicated.
        name = first.scoring.predicate_names[0]
        assert db.catalog.has_predicate(name)

    def test_expression_query_executes_correctly(self, db):
        result = db.query(
            "SELECT * FROM p ORDER BY p.a LIMIT 3"
        )
        assert [row[0] for row in result.rows] == [1.0, 0.9, 0.8]

    def test_mixed_registered_and_expression_terms(self, db):
        db.register_predicate("pb", ["p.b"], lambda b: b)
        result = db.query(
            "SELECT * FROM p ORDER BY pb(p.b) + p.a LIMIT 3",
        )
        # a + b = 1.0 for every row: all tie at 1.0.
        assert result.scores == pytest.approx([1.0, 1.0, 1.0])
