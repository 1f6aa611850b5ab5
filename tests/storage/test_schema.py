"""Unit tests for schemas and columns."""

import pytest

from repro.storage.schema import Column, DataType, Schema, SchemaError


class TestDataType:
    def test_infer_int(self):
        assert DataType.infer(3) is DataType.INT

    def test_infer_bool_before_int(self):
        # bool is a subclass of int; inference must pick BOOL.
        assert DataType.infer(True) is DataType.BOOL

    def test_infer_float(self):
        assert DataType.infer(1.5) is DataType.FLOAT

    def test_infer_text(self):
        assert DataType.infer("x") is DataType.TEXT

    def test_infer_unsupported(self):
        with pytest.raises(TypeError):
            DataType.infer([1, 2])

    def test_validate_null_always_ok(self):
        for dtype in DataType:
            assert dtype.validate(None)

    def test_validate_int_rejects_bool(self):
        assert not DataType.INT.validate(True)

    def test_validate_float_accepts_int(self):
        assert DataType.FLOAT.validate(3)

    def test_validate_bool(self):
        assert DataType.BOOL.validate(False)
        assert not DataType.BOOL.validate(0)

    def test_validate_text(self):
        assert DataType.TEXT.validate("a")
        assert not DataType.TEXT.validate(1)


class TestColumn:
    def test_qualified_name(self):
        assert Column("price", DataType.FLOAT, "hotel").qualified_name == "hotel.price"

    def test_unqualified_name(self):
        assert Column("price").qualified_name == "price"

    def test_with_table(self):
        column = Column("x").with_table("t")
        assert column.table == "t"
        assert column.qualified_name == "t.x"

    def test_matches_bare(self):
        assert Column("x", table="t").matches("x")

    def test_matches_qualified(self):
        assert Column("x", table="t").matches("t.x")
        assert not Column("x", table="t").matches("u.x")


class TestSchema:
    def test_of_shorthand(self):
        schema = Schema.of("a", ("b", DataType.INT), table="t")
        assert schema.column_names() == ["a", "b"]
        assert schema.column("b").dtype is DataType.INT
        assert schema.qualified_names() == ["t.a", "t.b"]

    def test_index_of_qualified(self):
        schema = Schema.of("a", "b", table="t")
        assert schema.index_of("t.b") == 1

    def test_index_of_bare(self):
        schema = Schema.of("a", "b", table="t")
        assert schema.index_of("b") == 1

    def test_index_of_unknown_raises(self):
        schema = Schema.of("a", table="t")
        with pytest.raises(SchemaError):
            schema.index_of("zzz")

    def test_index_of_ambiguous_raises(self):
        schema = Schema.of("a", table="t").concat(Schema.of("a", table="u"))
        with pytest.raises(SchemaError):
            schema.index_of("a")
        # Qualified lookup disambiguates.
        assert schema.index_of("u.a") == 1

    def test_has_column(self):
        schema = Schema.of("a", table="t")
        assert schema.has_column("a")
        assert not schema.has_column("b")

    def test_concat_preserves_order(self):
        combined = Schema.of("a", table="t").concat(Schema.of("b", table="u"))
        assert combined.qualified_names() == ["t.a", "u.b"]

    def test_project(self):
        schema = Schema.of("a", "b", "c", table="t")
        projected = schema.project(["c", "a"])
        assert projected.qualified_names() == ["t.c", "t.a"]

    def test_with_table_requalifies(self):
        schema = Schema.of("a", table="t").with_table("u")
        assert schema.qualified_names() == ["u.a"]

    def test_validate_row_arity(self):
        schema = Schema.of("a", "b", table="t")
        with pytest.raises(SchemaError):
            schema.validate_row([1.0])

    def test_validate_row_type(self):
        schema = Schema.of(("a", DataType.INT), table="t")
        with pytest.raises(SchemaError):
            schema.validate_row(["not an int"])

    def test_validate_row_accepts_null(self):
        schema = Schema.of(("a", DataType.INT), table="t")
        schema.validate_row([None])

    def test_equality_and_hash(self):
        s1 = Schema.of("a", table="t")
        s2 = Schema.of("a", table="t")
        assert s1 == s2
        assert hash(s1) == hash(s2)

    def test_cached_hash_stays_equal_to_equal_schemas(self):
        left = Schema.of("a", ("b", DataType.INT), table="t")
        first = hash(left)
        assert hash(left) == first  # served from the cache
        # Equal schemas built another way (fresh, concatenated, requalified)
        # hash equal whether or not their own hash was cached yet.
        fresh = Schema.of("a", ("b", DataType.INT), table="t")
        joined = Schema.of("a", table="t").concat(
            Schema.of(("b", DataType.INT), table="t")
        )
        requalified = Schema.of("a", ("b", DataType.INT), table="u").with_table("t")
        for other in (fresh, joined, requalified):
            assert other == left
            assert hash(other) == first
            assert hash(other) == hash(other._columns)
        assert {left: 1}[joined] == 1

    def test_iteration(self):
        schema = Schema.of("a", "b", table="t")
        assert [c.name for c in schema] == ["a", "b"]
        assert len(schema) == 2
