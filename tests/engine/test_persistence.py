"""Tests for directory-based save/load, including mid-save crashes:
the save is one atomic checkpoint, so an interrupted write must leave
the previous complete snapshot loadable."""

import random

import pytest

from repro.engine import Database
from repro.engine.persistence import (
    PersistenceError,
    load_database,
    save_database,
    write_checkpoint,
)
from repro.storage import DataType, FaultInjector, InjectedCrash


def cheapness(price):
    return max(0.0, 1 - price / 100)


@pytest.fixture
def db():
    rng = random.Random(77)
    db = Database()
    db.create_table(
        "item",
        [("name", DataType.TEXT), ("price", DataType.FLOAT), ("ok", DataType.BOOL)],
    )
    db.insert(
        "item",
        [(f"i{i}", round(rng.uniform(1, 99), 2), rng.random() < 0.5) for i in range(60)],
    )
    db.register_predicate("cheap", ["item.price"], cheapness, cost=2.0, p_max=1.0)
    db.create_rank_index("item", "cheap")
    db.create_column_index("item", "price")
    db.create_multikey_index("item", "ok", "cheap")
    db.analyze()
    return db


class TestRoundTrip:
    def test_data_survives(self, db, tmp_path):
        save_database(db, tmp_path / "db")
        restored = load_database(tmp_path / "db", predicates={"cheap": cheapness})
        original = [r.values for r in db.catalog.table("item").rows()]
        loaded = [r.values for r in restored.catalog.table("item").rows()]
        assert loaded == original

    def test_schema_types_survive(self, db, tmp_path):
        save_database(db, tmp_path / "db")
        restored = load_database(tmp_path / "db", predicates={"cheap": cheapness})
        schema = restored.catalog.table("item").schema
        assert schema.column("ok").dtype is DataType.BOOL
        assert schema.column("price").dtype is DataType.FLOAT

    def test_indexes_rebuilt(self, db, tmp_path):
        save_database(db, tmp_path / "db")
        restored = load_database(tmp_path / "db", predicates={"cheap": cheapness})
        table = restored.catalog.table("item")
        assert table.find_index(key="cheap") is not None
        assert table.find_index(key="item.price") is not None

    def test_predicate_metadata_survives(self, db, tmp_path):
        save_database(db, tmp_path / "db")
        restored = load_database(tmp_path / "db", predicates={"cheap": cheapness})
        predicate = restored.catalog.predicate("cheap")
        assert predicate.cost == 2.0
        assert predicate.columns == ("item.price",)

    def test_queries_agree(self, db, tmp_path):
        sql = "SELECT * FROM item ORDER BY cheap(item.price) LIMIT 5"
        save_database(db, tmp_path / "db")
        restored = load_database(tmp_path / "db", predicates={"cheap": cheapness})
        a = db.query(sql)
        b = restored.query(sql)
        assert a.rows == b.rows


class TestErrors:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_database(tmp_path / "nope")

    def test_missing_predicate_for_rank_index(self, db, tmp_path):
        save_database(db, tmp_path / "db")
        with pytest.raises(PersistenceError):
            load_database(tmp_path / "db")  # no predicates supplied

    def test_bad_version(self, db, tmp_path):
        import json

        save_database(db, tmp_path / "db")
        manifest_path = tmp_path / "db" / "catalog.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError):
            load_database(tmp_path / "db", predicates={"cheap": cheapness})

    def test_empty_table_round_trip(self, tmp_path):
        db = Database()
        db.create_table("empty", [("x", DataType.FLOAT)])
        save_database(db, tmp_path / "db")
        restored = load_database(tmp_path / "db")
        assert restored.catalog.table("empty").row_count == 0


class TestAtomicSave:
    """A crash at any point of a save never corrupts the directory: the
    manifest swap is the commit point, so recovery sees either the whole
    old snapshot or the whole new one."""

    def snapshot(self, tmp_path, db):
        save_database(db, tmp_path)
        return [r.values for r in db.catalog.table("item").rows()]

    def reloaded_values(self, tmp_path):
        restored = load_database(tmp_path, predicates={"cheap": cheapness})
        return [r.values for r in restored.catalog.table("item").rows()]

    @pytest.mark.parametrize(
        "site",
        ["checkpoint.table.torn", "checkpoint.tables", "checkpoint.manifest.tmp"],
    )
    def test_crash_before_manifest_swap_keeps_old_snapshot(
        self, db, tmp_path, site
    ):
        original = self.snapshot(tmp_path, db)
        db.insert("item", [("crashed", 1.0, True)])
        injector = FaultInjector(seed=5)
        injector.arm(site, hits=1)
        with pytest.raises(InjectedCrash):
            write_checkpoint(db, tmp_path, injector=injector)
        assert self.reloaded_values(tmp_path) == original

    def test_crash_after_manifest_swap_keeps_new_snapshot(self, db, tmp_path):
        self.snapshot(tmp_path, db)
        db.insert("item", [("landed", 1.0, True)])
        injector = FaultInjector(seed=5)
        # the swap succeeded; only post-commit GC was interrupted
        injector.arm("checkpoint.gc", hits=1)
        with pytest.raises(InjectedCrash):
            write_checkpoint(db, tmp_path, injector=injector)
        values = self.reloaded_values(tmp_path)
        assert ("landed", 1.0, True) in values

    def test_interrupted_save_leaves_no_poisoned_temp_state(self, db, tmp_path):
        original = self.snapshot(tmp_path, db)
        db.insert("item", [("crashed", 1.0, True)])
        injector = FaultInjector(seed=5)
        injector.arm("checkpoint.table.torn", hits=1)
        with pytest.raises(InjectedCrash):
            write_checkpoint(db, tmp_path, injector=injector)
        # a later save over the crashed directory works and wins
        db.insert("item", [("landed", 2.0, False)])
        save_database(db, tmp_path)
        values = self.reloaded_values(tmp_path)
        assert ("landed", 2.0, False) in values
        assert len(values) == len(original) + 2
