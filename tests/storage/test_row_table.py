"""Unit tests for rows and heap tables."""

import pytest

from repro.storage import DataType, Row, Schema, SchemaError, Table


class TestRow:
    def test_base_identity(self):
        row = Row.base([1, 2], "t", 7)
        assert row.rid == (("t", 7),)
        assert row.values == (1, 2)

    def test_concat_merges_identity(self):
        left = Row.base([1], "t", 0)
        right = Row.base([2], "u", 3)
        joined = left.concat(right)
        assert joined.values == (1, 2)
        assert joined.rid == (("t", 0), ("u", 3))

    def test_project_keeps_identity(self):
        row = Row.base([1, 2, 3], "t", 0)
        projected = row.project([2, 0])
        assert projected.values == (3, 1)
        assert projected.rid == row.rid

    def test_equality(self):
        assert Row.base([1], "t", 0) == Row.base([1], "t", 0)
        assert Row.base([1], "t", 0) != Row.base([1], "t", 1)

    def test_hash_by_identity(self):
        assert hash(Row.base([1], "t", 0)) == hash(Row.base([9], "t", 0))

    def test_sequence_protocol(self):
        row = Row.base([10, 20], "t", 0)
        assert row[1] == 20
        assert list(row) == [10, 20]
        assert len(row) == 2


class TestTable:
    def make(self):
        return Table("t", Schema.of(("a", DataType.INT), ("b", DataType.FLOAT)))

    def test_insert_assigns_ordinals(self):
        table = self.make()
        first = table.insert([1, 1.0])
        second = table.insert([2, 2.0])
        assert first.rid == (("t", 0),)
        assert second.rid == (("t", 1),)
        assert table.row_count == 2

    def test_insert_validates(self):
        table = self.make()
        with pytest.raises(SchemaError):
            table.insert(["bad", 1.0])

    def test_insert_many(self):
        table = self.make()
        assert table.insert_many([(1, 1.0), (2, 2.0), (3, 3.0)]) == 3

    def test_insert_dicts(self):
        table = self.make()
        table.insert_dicts([{"a": 1, "b": 2.0}, {"a": 2}])
        rows = list(table.rows())
        assert rows[0].values == (1, 2.0)
        assert rows[1].values == (2, None)  # missing column becomes NULL

    def test_insert_dicts_unknown_column(self):
        table = self.make()
        with pytest.raises(SchemaError):
            table.insert_dicts([{"zzz": 1}])

    def test_rows_in_heap_order(self):
        table = self.make()
        table.insert_many([(3, 0.0), (1, 0.0), (2, 0.0)])
        assert [r[0] for r in table.rows()] == [3, 1, 2]

    def test_row_at(self):
        table = self.make()
        table.insert([5, 0.5])
        assert table.row_at(0).values == (5, 0.5)

    def test_schema_qualified_with_table_name(self):
        table = self.make()
        assert table.schema.qualified_names() == ["t.a", "t.b"]

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Table("", Schema.of("a"))


class TestColumnarViewInvalidation:
    """The cached columnar view must refresh after *every* heap-mutating
    path — including the bulk ones (`insert_many`, `insert_dicts`, CSV
    load) — and must survive non-mutating operations (`attach_index`
    backfill) unchanged.  Regression tests for compiled segments, which
    would read a stale view as silently-wrong query results."""

    def make(self):
        return Table("t", Schema.of(("a", DataType.INT), ("b", DataType.FLOAT)))

    def assert_view_current(self, table):
        view = table.columns()
        rows = list(table.rows())
        assert len(view) == len(rows)
        assert view.rids == [r.rid for r in rows]
        assert view.rows == rows

    def test_insert_many_after_columnar_read(self):
        table = self.make()
        table.insert_many([(1, 0.1), (2, 0.2)])
        stale = table.columns()
        assert len(stale) == 2
        table.insert_many([(3, 0.3), (4, 0.4)])
        fresh = table.columns()
        assert fresh is not stale
        self.assert_view_current(table)
        # the old snapshot is immutable: it still describes the old state
        assert len(stale) == 2

    def test_insert_dicts_after_columnar_read(self):
        table = self.make()
        table.insert_dicts([{"a": 1, "b": 0.5}])
        stale = table.columns()
        table.insert_dicts([{"a": 2}])
        assert table.columns() is not stale
        self.assert_view_current(table)

    def test_empty_bulk_insert_keeps_cached_view(self):
        table = self.make()
        table.insert_many([(1, 0.1)])
        view = table.columns()
        assert table.insert_many([]) == 0
        assert table.columns() is view  # no mutation, no invalidation

    def test_csv_load_after_columnar_read(self, tmp_path):
        from repro.engine.csv_io import load_csv

        table = self.make()
        table.insert_many([(1, 0.25)])
        stale = table.columns()
        path = tmp_path / "rows.csv"
        path.write_text("a,b\n7,0.75\n8,0.5\n")
        assert load_csv(table, path) == 2
        assert table.columns() is not stale
        self.assert_view_current(table)

    def test_attach_index_backfill_does_not_stale_the_view(self):
        from repro.storage import ColumnIndex

        table = self.make()
        table.insert_many([(3, 0.3), (1, 0.1), (2, 0.2)])
        view = table.columns()
        # Backfilling an index reads the heap but never mutates it: the
        # cached snapshot stays valid (and identical).
        table.attach_index(ColumnIndex("t_a_idx", table.schema, "t.a"))
        assert table.columns() is view
        self.assert_view_current(table)
        # ... and bulk inserts after the backfill refresh both structures.
        table.insert_many([(0, 0.0)])
        self.assert_view_current(table)
        index = table.find_index(key="t.a")
        assert [r[0] for r in index.scan_ascending()] == [0, 1, 2, 3]

    def test_single_insert_after_bulk_read(self):
        table = self.make()
        table.insert_many([(1, 0.1)])
        table.columns()
        table.insert((2, 0.2))
        self.assert_view_current(table)
