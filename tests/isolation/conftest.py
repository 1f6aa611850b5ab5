"""Shared fixtures for the transaction/isolation suite: the canonical
register table (``kv(key, val)``) the black-box checking literature uses —
small, contended, column-indexed, preloaded with ``val=0`` per key."""

from __future__ import annotations

import pytest

from repro.engine.database import Database
from repro.storage.schema import DataType

KEYS = 8


def build_kv_db(keys: int = KEYS, **db_kwargs) -> Database:
    db = Database(**db_kwargs)
    db.create_table("kv", [("key", DataType.INT), ("val", DataType.INT)])
    db.insert("kv", [(key, 0) for key in range(keys)])
    db.create_column_index("kv", "key")
    db.analyze()
    return db


def read_key(db: Database, key: int, snapshot=None):
    """The register read; returns the key's value (None = absent)."""
    result = db.query(
        "SELECT * FROM kv WHERE kv.key = :k", params={"k": key}, snapshot=snapshot
    )
    rows = result.rows
    assert len(rows) <= 1, f"duplicate register key {key}: {rows}"
    return rows[0][1] if rows else None


@pytest.fixture()
def kv_db() -> Database:
    db = build_kv_db()
    yield db
    db.close()


@pytest.fixture()
def build_kv():
    """Factory fixture for tests that need a custom kv database (extra
    keys, engine options); closes everything it built on teardown."""
    created: list[Database] = []

    def factory(keys: int = KEYS, **db_kwargs) -> Database:
        db = build_kv_db(keys, **db_kwargs)
        created.append(db)
        return db

    yield factory
    for db in created:
        db.close()


@pytest.fixture()
def read_kv():
    return read_key
