"""Bind variables in the SQL front end: lexing, parsing, binding, typing."""

from __future__ import annotations

import pytest

from repro.algebra.parameters import Parameter, ParameterError, ParameterSlots
from repro.cli import build_demo_database
from repro.sql.ast import ParameterNode
from repro.sql.binder import BindError
from repro.sql.lexer import LexError, TokenType, tokenize
from repro.sql.parser import ParseError, parse
from repro.storage.schema import DataType, Schema


@pytest.fixture
def db():
    return build_demo_database(seed=7)


class TestLexer:
    def test_question_mark_is_param_token(self):
        tokens = tokenize("hotel.price < ?")
        assert (tokens[-2].type, tokens[-2].value) == (TokenType.PARAM, "?")

    def test_named_parameter_token(self):
        tokens = tokenize("hotel.price < :max_price")
        assert (tokens[-2].type, tokens[-2].value) == (TokenType.PARAM, ":max_price")

    def test_named_parameter_stops_at_non_word(self):
        tokens = tokenize(":lo+:hi")
        values = [t.value for t in tokens if t.type is TokenType.PARAM]
        assert values == [":lo", ":hi"]

    def test_bare_colon_rejected(self):
        with pytest.raises(LexError):
            tokenize("hotel.price < :")


class TestParser:
    def test_positional_parameters_are_ordinal(self):
        statement = parse(
            "SELECT * FROM hotel WHERE hotel.price < ? AND hotel.stars > ? LIMIT 3"
        )
        assert statement.parameters == ("?1", "?2")

    def test_named_parameters_dedupe(self):
        statement = parse(
            "SELECT * FROM hotel WHERE hotel.price > :p AND hotel.stars > :p "
            "AND hotel.area = :area LIMIT 3"
        )
        assert statement.parameters == (":p", ":area")

    def test_parameter_node_in_where(self):
        statement = parse("SELECT * FROM hotel WHERE hotel.price < :max LIMIT 1")
        assert statement.where is not None
        assert statement.where.right == ParameterNode(":max")

    def test_mixing_styles_rejected(self):
        with pytest.raises(ParseError, match="mix"):
            parse("SELECT * FROM hotel WHERE hotel.price < ? AND hotel.stars > :s")

    def test_limit_parameter_rejected(self):
        with pytest.raises(ParseError, match="LIMIT does not take a parameter"):
            parse("SELECT * FROM hotel ORDER BY cheap(hotel.price) LIMIT ?")

    def test_parameter_inside_arithmetic(self):
        statement = parse(
            "SELECT * FROM hotel WHERE hotel.price + ? < 100 LIMIT 1"
        )
        assert statement.parameters == ("?1",)


class TestBinder:
    def test_spec_carries_parameter_slots(self, db):
        spec = db.bind(
            "SELECT * FROM hotel WHERE hotel.price <= :max_price "
            "ORDER BY cheap(hotel.price) LIMIT 5"
        )
        assert spec.parameters is not None
        assert spec.parameters.keys == (":max_price",)

    def test_literal_query_has_no_slots(self, db):
        spec = db.bind("SELECT * FROM hotel ORDER BY cheap(hotel.price) LIMIT 5")
        assert spec.parameters is None

    def test_selection_contains_parameter_expression(self, db):
        spec = db.bind(
            "SELECT * FROM hotel WHERE hotel.price <= :max_price "
            "ORDER BY cheap(hotel.price) LIMIT 5"
        )
        (selection,) = spec.selections
        assert isinstance(selection.expression.right, Parameter)
        assert selection.expression.right.key == ":max_price"

    def test_join_condition_parameter_supported(self, db):
        spec = db.bind(
            "SELECT * FROM hotel, restaurant "
            "WHERE hotel.area = restaurant.area "
            "AND hotel.price + restaurant.price < :budget "
            "ORDER BY cheap(hotel.price) + tasty(restaurant.price) LIMIT 5"
        )
        assert spec.parameters.keys == (":budget",)
        assert len(spec.join_conditions) == 2

    def test_column_comparison_infers_expected_type(self, db):
        spec = db.bind(
            "SELECT * FROM restaurant WHERE restaurant.cuisine = :cuisine "
            "ORDER BY tasty(restaurant.price) LIMIT 5"
        )
        assert spec.parameters.expected(":cuisine") == {DataType.TEXT}

    def test_int_columns_accept_any_number(self, db):
        spec = db.bind(
            "SELECT * FROM hotel WHERE hotel.stars >= :min_stars "
            "ORDER BY cheap(hotel.price) LIMIT 5"
        )
        # floats fine against INT
        assert spec.parameters.validate({"min_stars": 2.5}) == {":min_stars": 2.5}

    def test_arithmetic_comparison_infers_numeric(self, db):
        spec = db.bind(
            "SELECT * FROM hotel WHERE hotel.price * 1 <= :cap "
            "ORDER BY cheap(hotel.price) LIMIT 3"
        )
        assert spec.parameters.expected(":cap") == {DataType.FLOAT}
        with pytest.raises(ParameterError, match="expects float"):
            spec.parameters.validate({"cap": "oops"})

    def test_literal_comparison_infers_type(self, db):
        spec = db.bind(
            "SELECT * FROM hotel WHERE :flag = 'yes' "
            "ORDER BY cheap(hotel.price) LIMIT 3"
        )
        assert spec.parameters.expected(":flag") == {DataType.TEXT}

    def test_between_duplicated_parameter_is_one_slot_per_occurrence(self, db):
        spec = db.bind(
            "SELECT * FROM hotel WHERE ? BETWEEN hotel.price AND hotel.stars "
            "ORDER BY cheap(hotel.price) LIMIT 3"
        )
        # BETWEEN desugars by duplicating the left subtree; the single
        # textual `?` must still be exactly one slot.
        assert spec.parameters.keys == ("?1",)

    def test_order_by_parameter_rejected(self, db):
        with pytest.raises(BindError, match="ORDER BY"):
            db.bind(
                "SELECT * FROM hotel WHERE hotel.stars > 2 "
                "ORDER BY hotel.price + :boost LIMIT 5"
            )


class TestParameterSlots:
    def _slots(self, *keys: str) -> ParameterSlots:
        slots = ParameterSlots()
        for key in keys:
            slots.declare(key)
        return slots

    def test_positional_bind_in_order(self):
        slots = self._slots("?1", "?2")
        assert slots.validate([10, 20]) == {"?1": 10, "?2": 20}

    def test_positional_count_mismatch(self):
        slots = self._slots("?1", "?2")
        with pytest.raises(ParameterError, match="takes 2 positional"):
            slots.validate([10])
        with pytest.raises(ParameterError, match="takes 2 positional"):
            slots.validate([10, 20, 30])

    def test_positional_rejects_mapping_and_strings(self):
        slots = self._slots("?1")
        with pytest.raises(ParameterError, match="sequence"):
            slots.validate({"?1": 1})
        with pytest.raises(ParameterError, match="sequence"):
            slots.validate("x")

    def test_named_accepts_bare_and_colon_keys(self):
        slots = self._slots(":a", ":b")
        assert slots.validate({"a": 1, ":b": 2}) == {":a": 1, ":b": 2}

    def test_named_missing_and_extra_reported(self):
        slots = self._slots(":a", ":b")
        with pytest.raises(ParameterError, match="missing :b.*unexpected :c"):
            slots.validate({"a": 1, "c": 3})

    def test_named_duplicate_bare_and_colon_forms_rejected(self):
        slots = self._slots(":cap")
        with pytest.raises(ParameterError, match="bound twice"):
            slots.validate({"cap": 100.0, ":cap": 60.0})

    def test_named_rejects_sequence(self):
        slots = self._slots(":a")
        with pytest.raises(ParameterError, match="mapping"):
            slots.validate([1])

    def test_no_parameters_rejects_bindings(self):
        slots = ParameterSlots()
        with pytest.raises(ParameterError, match="takes no parameters"):
            slots.validate({"a": 1})
        assert slots.validate(None) == {}

    def test_missing_bindings_rejected(self):
        slots = self._slots(":a")
        with pytest.raises(ParameterError, match="unbound parameter"):
            slots.validate(None)

    def test_unbound_value_read_raises(self):
        # A parameter compiled without a value for its slot.
        with pytest.raises(ParameterError, match="unbound"):
            Parameter(":a").compile(Schema([]), {})
        with pytest.raises(ParameterError, match="unbound"):
            Parameter(":a").compile(Schema([]))

    def test_compiles_to_its_value(self):
        evaluate = Parameter(":a").compile(Schema([]), {":a": 7})
        assert evaluate(None) == 7

    def test_type_expectations_enforced(self):
        slots = self._slots(":a")
        slots.expect(":a", DataType.FLOAT)
        with pytest.raises(ParameterError, match="expects float"):
            slots.validate({"a": "not-a-number"})
        assert slots.validate({"a": 3}) == {":a": 3}  # ints satisfy FLOAT

    def test_multi_context_expectations_are_any_of(self):
        # `hotel.name = :x OR hotel.price = :x` → {TEXT, FLOAT}; either a
        # string or a number must bind, only a value matching neither fails.
        slots = self._slots(":x")
        slots.expect(":x", DataType.TEXT)
        slots.expect(":x", DataType.FLOAT)
        assert slots.validate({"x": "h3"}) == {":x": "h3"}
        assert slots.validate({"x": 99.0}) == {":x": 99.0}
        with pytest.raises(ParameterError, match="expects float or text"):
            slots.validate({"x": True})

    def test_mixed_styles_rejected_at_declare(self):
        slots = ParameterSlots()
        slots.declare("?1")
        with pytest.raises(ParameterError, match="mix"):
            slots.declare(":name")

    def test_validation_stores_nothing(self):
        # Each call returns its own values; the slots stay value-free.
        slots = self._slots(":a")
        first = slots.validate({"a": 1})
        second = slots.validate({"a": 2})
        assert first == {":a": 1} and second == {":a": 2}
        first[":a"] = 99
        assert slots.validate({"a": 3}) == {":a": 3}
