"""End-to-end tracing: one query on any surface produces one correlated
span tree covering the planner, the chosen execution regime, and (for
writes) commit + WAL."""

import random

import pytest

from repro.algebra.expressions import col
from repro.cli import build_demo_database
from repro.engine.database import Database
from repro.storage.schema import DataType

SQL = (
    "SELECT * FROM hotel WHERE area < 5 "
    "ORDER BY cheap(hotel.price) + starry(hotel.stars) LIMIT 5"
)

#: an Expression-scored single-table pipeline — a shape the fused-function
#: compiler accepts
COMPILABLE_SQL = "SELECT * FROM T WHERE T.x > 0.2 ORDER BY pa(T.x) LIMIT 7"


def build_compilable_db(execution):
    db = Database(execution=execution)
    db.create_table("T", [("k", DataType.INT), ("x", DataType.FLOAT)])
    rng = random.Random(3)
    db.insert(
        "T", [(rng.randrange(50), round(rng.random(), 6)) for __ in range(400)]
    )
    db.register_predicate("pa", ["T.x"], col("T.x") * 0.5 + 0.25)
    db.analyze()
    return db


def span_names(trace):
    return [span.name for span, __ in trace.spans()]


class TestQuerySurface:
    @pytest.fixture()
    def db(self):
        return build_demo_database()

    def test_cold_query_traces_every_planner_phase(self, db):
        # pinned: under REPRO_EXECUTION=row nothing is priced, so no "compile"
        db.query(SQL, execution="auto")
        trace = db.tracer.last()
        names = span_names(trace)
        for phase in ("parse", "bind", "optimize", "compile", "execute"):
            assert phase in names, f"missing {phase} span in {names}"
        assert trace.surface == "query"
        assert trace.regime == "row"  # auto mode keeps this plan row-mode
        assert trace.status == "ok"
        assert trace.signature is not None and trace.signature.startswith("sig:")
        assert trace.root.attrs["cache"] == "miss"

    def test_warm_query_marks_cache_hit(self, db):
        db.query(SQL)
        db.query(SQL)
        trace = db.tracer.last()
        assert trace.root.attrs["cache"] == "hit"
        names = span_names(trace)
        # a hit still parses (the signature needs the bound spec) but
        # skips the expensive enumeration entirely
        assert "optimize" not in names
        assert "execute" in names

    def test_error_query_finishes_with_error_status(self, db):
        with pytest.raises(Exception):
            db.query("SELECT * FROM nonsuch ORDER BY cheap(hotel.price) LIMIT 1")
        assert db.tracer.last().status == "error"

    def test_disabled_tracer_records_nothing(self, db):
        db.tracer.enabled = False
        before = db.tracer.traces_started
        db.query(SQL)
        assert db.tracer.traces_started == before


class TestCompiledRegime:
    def test_fused_call_span_and_regime(self):
        db = build_compilable_db("compiled")
        db.query(COMPILABLE_SQL, strategy="traditional")
        trace = db.tracer.last()
        assert trace.regime == "compiled"
        names = span_names(trace)
        assert "compile" in names
        assert "compiled_call" in names
        call = next(
            span for span, __ in trace.spans() if span.name == "compiled_call"
        )
        assert call.attrs["fn"].startswith("compiled[")


class TestDmlAndTransactions:
    def test_insert_traces_commit_and_wal(self, tmp_path):
        db = Database(persist_dir=tmp_path / "d", durability="wal")
        db.create_table("t", [("a", DataType.INT)])
        db.insert("t", [(1,), (2,)])
        trace = db.tracer.last()
        assert trace.surface == "dml"
        assert trace.regime == "dml"
        names = span_names(trace)
        assert "commit" in names
        assert "wal_fsync" in names
        db.close()

    def test_transaction_commit_joins_the_session_trace(self):
        db = Database()
        db.create_table("t", [("a", DataType.INT)])
        txn = db.begin()
        txn.insert(db.catalog.table("t"), [(1,)])
        txn.commit()
        # the commit ran outside any query trace: no orphan spans, no crash
        assert db.tracer.current_trace() is None


class TestPreparedSurface:
    def test_prepared_runs_are_traced_per_execution(self):
        db = build_demo_database()
        session = db.session()
        session.execute(SQL)
        session.execute(SQL)
        trace = db.tracer.last()
        assert trace.surface == "prepared"
        assert trace.regime == "row"
        finished = [t for t in db.tracer.recent() if t.surface == "prepared"]
        assert len(finished) == 2
