"""Copy-on-write table versioning: publication safety and delete semantics.

The serving subsystem's snapshot isolation rests on three storage
guarantees tested here:

* a published :class:`TableVersion` never changes — rows, index entries
  and the cached columnar view a reader captured stay exactly as captured;
* writers publish whole batches atomically (a reader sees all of a bulk
  insert or none of it); and
* deletes never renumber or reuse row identities.
"""

from __future__ import annotations

import threading

import pytest

from repro.storage import ColumnIndex, DataType, DatabaseSnapshot, Schema, Table
from repro.storage.catalog import Catalog


def make_table() -> Table:
    return Table("t", Schema.of(("k", DataType.INT), ("x", DataType.FLOAT)))


class TestVersionPublication:
    def test_version_is_stable_until_a_write(self):
        table = make_table()
        table.insert_many([(1, 0.1), (2, 0.2)])
        version = table.version()
        assert table.version() is version
        table.insert((3, 0.3))
        assert table.version() is not version

    def test_generation_bumps_on_every_write(self):
        table = make_table()
        generations = [table.generation]
        table.insert((1, 0.1))
        generations.append(table.generation)
        table.insert_many([(2, 0.2), (3, 0.3)])
        generations.append(table.generation)
        table.delete_where(lambda row: row[0] == 1)
        generations.append(table.generation)
        assert generations == sorted(set(generations))  # strictly increasing

    def test_old_version_keeps_its_rows_after_insert(self):
        table = make_table()
        table.insert_many([(1, 0.1), (2, 0.2)])
        old = table.version()
        table.insert_many([(3, 0.3)])
        assert [r.values for r in old.rows()] == [(1, 0.1), (2, 0.2)]
        assert [r.values for r in table.rows()] == [(1, 0.1), (2, 0.2), (3, 0.3)]

    def test_old_version_keeps_deleted_rows(self):
        table = make_table()
        table.insert_many([(1, 0.1), (2, 0.2), (3, 0.3)])
        old = table.version()
        assert table.delete_where(lambda row: row[0] == 2) == 1
        assert [r.values for r in old.rows()] == [(1, 0.1), (2, 0.2), (3, 0.3)]
        assert [r.values for r in table.rows()] == [(1, 0.1), (3, 0.3)]

    def test_empty_delete_publishes_nothing(self):
        table = make_table()
        table.insert_many([(1, 0.1)])
        version = table.version()
        assert table.delete_where(lambda row: row[0] == 99) == 0
        assert table.version() is version


class TestColumnarPublicationSafety:
    """The satellite regression: a reader holding an old snapshot keeps its
    old column arrays under the new versioning."""

    def test_reader_keeps_old_column_arrays(self):
        table = make_table()
        table.insert_many([(1, 0.1), (2, 0.2)])
        old_version = table.version()
        old_view = old_version.columns()
        table.insert_many([(3, 0.3)])
        table.delete_where(lambda row: row[0] == 1)
        # The captured view object and its exact arrays are untouched.
        assert old_version.columns() is old_view
        assert [r.values for r in old_view.rows] == [(1, 0.1), (2, 0.2)]
        assert old_view.rids == [(("t", 0),), (("t", 1),)]
        assert len(old_view) == 2
        # The current version builds fresh arrays reflecting the writes.
        new_view = table.columns()
        assert new_view is not old_view
        assert [r[0] for r in new_view.rows] == [2, 3]

    def test_view_is_cached_per_version(self):
        table = make_table()
        table.insert_many([(1, 0.1)])
        assert table.columns() is table.columns()
        version = table.version()
        assert version.columns() is table.columns()

    def test_attach_index_carries_view_forward(self):
        table = make_table()
        table.insert_many([(3, 0.3), (1, 0.1)])
        view = table.columns()
        table.attach_index(ColumnIndex("t_k_idx", table.schema, "t.k"))
        # The heap did not change: same view object, no rebuild.
        assert table.columns() is view


class TestIndexPinning:
    def test_pinned_index_ignores_later_inserts(self):
        table = make_table()
        index = ColumnIndex("t_k_idx", table.schema, "t.k")
        table.attach_index(index)
        table.insert_many([(2, 0.2), (1, 0.1)])
        old = table.version()
        pinned = old.find_index(key="t.k")
        assert [r[0] for r in pinned.scan_ascending()] == [1, 2]
        table.insert((0, 0.0))
        table.delete_where(lambda row: row[0] == 1)
        # The pinned snapshot is frozen; the live handle is current.
        assert [r[0] for r in pinned.scan_ascending()] == [1, 2]
        assert [r[0] for r in index.scan_ascending()] == [0, 2]
        assert [r[0] for r in table.find_index(key="t.k").scan_ascending()] == [0, 2]

    def test_delete_filters_every_index(self):
        table = make_table()
        table.attach_index(ColumnIndex("t_k_idx", table.schema, "t.k"))
        table.insert_many([(i, i / 10) for i in range(6)])
        table.delete_where(lambda row: row[0] % 2 == 0)
        assert [r[0] for r in table.find_index(key="t.k").scan_ascending()] == [1, 3, 5]


class TestRowIdentityStability:
    def test_delete_never_renumbers_survivors(self):
        table = make_table()
        table.insert_many([(i, 0.0) for i in range(4)])
        rids_before = {r.values[0]: r.rid for r in table.rows()}
        table.delete_where(lambda row: row[0] in (0, 2))
        for row in table.rows():
            assert row.rid == rids_before[row.values[0]]

    def test_insert_after_delete_does_not_reuse_rids(self):
        table = make_table()
        table.insert_many([(i, 0.0) for i in range(3)])
        all_rids = {r.rid for r in table.rows()}
        table.delete_where(lambda row: True)
        table.insert_many([(10, 1.0), (11, 1.1)])
        new_rids = {r.rid for r in table.rows()}
        assert not (new_rids & all_rids)


class TestSnapshotCapture:
    def test_snapshot_pins_all_tables(self):
        catalog = Catalog()
        t1 = catalog.create_table("t1", Schema.of(("k", DataType.INT)))
        t2 = catalog.create_table("t2", Schema.of(("k", DataType.INT)))
        t1.insert_many([(1,), (2,)])
        snap = DatabaseSnapshot(catalog)
        t1.insert((3,))
        t2.insert((9,))
        assert snap.table("t1").row_count == 2
        assert snap.table("t2").row_count == 0
        assert t1.row_count == 3

    def test_snapshot_raises_catalog_error_for_unknown_tables(self):
        from repro.storage import CatalogError

        snap = DatabaseSnapshot(Catalog())
        with pytest.raises(CatalogError):
            snap.table("nope")


class TestLiveIndexScanConsistency:
    def test_in_progress_scan_survives_concurrent_rebind(self):
        """A scan over the *live* index object captures one rebind state:
        a concurrent delete/insert must not tear it mid-iteration."""
        table = make_table()
        index = ColumnIndex("t_k_idx", table.schema, "t.k")
        table.attach_index(index)
        table.insert_many([(i, 0.0) for i in range(200)])
        scan = index.range_scan()
        seen = [next(scan)[0] for __ in range(3)]
        table.delete_where(lambda row: row[0] >= 3)  # shrink under the scan
        rest = [row[0] for row in scan]  # pre-fix: IndexError / torn pairs
        assert seen + rest == list(range(200))


class TestConcurrentPublication:
    def test_reader_never_sees_a_partial_batch(self):
        """A writer publishing 10-row batches while readers capture
        versions: every observed count is a multiple of the batch size."""
        table = make_table()
        batch = [(i, 0.0) for i in range(10)]
        stop = threading.Event()
        bad_counts: list[int] = []

        def write() -> None:
            for __ in range(60):
                table.insert_many(batch)
            stop.set()

        def read() -> None:
            while not stop.is_set():
                version = table.version()
                count = sum(1 for __ in version.rows())
                if count % 10 != 0 or count != version.row_count:
                    bad_counts.append(count)

        readers = [threading.Thread(target=read) for __ in range(3)]
        writer = threading.Thread(target=write)
        for t in readers + [writer]:
            t.start()
        for t in readers + [writer]:
            t.join()
        assert not bad_counts
        assert table.row_count == 600
