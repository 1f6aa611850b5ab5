"""The storage-side bulk paths: ``insert_many`` and the per-version
columnar view compiled segments scan."""

from __future__ import annotations

import pytest

from repro.storage import Catalog, ColumnIndex, DataType, Schema


class TestColumnarView:
    def test_columnar_view_invalidated_by_insert(self):
        table = Catalog().create_table(
            "T", Schema.of(("k", DataType.INT), ("x", DataType.FLOAT))
        )
        table.insert_many([(1, 0.5), (2, 0.25)])
        view = table.columns()
        assert len(view) == 2
        assert view is table.columns()  # cached
        table.insert((9, 0.75))
        fresh = table.columns()
        assert fresh is not view
        assert len(fresh) == 3
        assert [r[0] for r in fresh.rows] == [1, 2, 9]
        assert fresh.rids == [r.rid for r in table.rows()]


class TestBulkInsert:
    def schema(self):
        return Schema.of(("k", DataType.INT), ("x", DataType.FLOAT))

    def test_insert_many_equivalent_to_loop(self):
        catalog_a, catalog_b = Catalog(), Catalog()
        bulk = catalog_a.create_table("T", self.schema())
        loop = catalog_b.create_table("T", self.schema())
        for table in (bulk, loop):
            table.attach_index(ColumnIndex("T_k_idx", table.schema, "T.k"))
        rows = [(i % 3, i / 10.0) for i in range(25)]
        assert bulk.insert_many(rows) == 25
        for values in rows:
            loop.insert(values)
        assert [r.values for r in bulk.rows()] == [r.values for r in loop.rows()]
        bulk_index = bulk.find_index(key="T.k")
        loop_index = loop.find_index(key="T.k")
        assert [r.rid for r in bulk_index.scan_ascending()] == [
            r.rid for r in loop_index.scan_ascending()
        ]

    def test_insert_many_validates_before_mutating(self):
        table = Catalog().create_table("T", self.schema())
        table.insert_many([(1, 0.5)])
        with pytest.raises(Exception):
            table.insert_many([(2, 0.25), ("bad", 0.75)])
        # The failed batch left no partial state behind.
        assert table.row_count == 1

    def test_bulk_insert_merges_into_existing_index(self):
        table = Catalog().create_table("T", self.schema())
        table.attach_index(ColumnIndex("T_k_idx", table.schema, "T.k"))
        table.insert_many([(5, 0.1), (1, 0.2)])
        table.insert_many([(3, 0.3), (0, 0.4), (9, 0.5)])
        index = table.find_index(key="T.k")
        keys = [r[0] for r in index.scan_ascending()]
        assert keys == sorted(keys)
        assert len(keys) == 5
