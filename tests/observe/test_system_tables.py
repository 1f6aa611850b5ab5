"""Tests for the ``system.queries`` / ``system.metrics`` virtual tables,
exercised through every SQL surface (embedded, prepared session, server
session)."""

import pytest

from repro.cli import build_demo_database
from repro.observe.system_tables import (
    SystemResult,
    is_system_query,
    maybe_execute,
)
from repro.server import SessionError

SQL = (
    "SELECT * FROM hotel WHERE area < 5 "
    "ORDER BY cheap(hotel.price) + starry(hotel.stars) LIMIT 5"
)


@pytest.fixture(scope="module")
def db():
    database = build_demo_database()
    database.query(SQL)
    return database


class TestRecognition:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM system.queries",
            "select * from SYSTEM.METRICS;",
            "SELECT * FROM system.queries WHERE status = 'ok' LIMIT 3",
        ],
    )
    def test_system_queries_match(self, sql):
        assert is_system_query(sql)

    @pytest.mark.parametrize(
        "sql",
        [
            SQL,
            "SELECT * FROM systematic.queries",
            "SELECT name FROM system.queries",
        ],
    )
    def test_ordinary_queries_do_not(self, sql):
        assert not is_system_query(sql)

    def test_non_system_sql_returns_none(self, db):
        assert maybe_execute(SQL, db.tracer, db.registry) is None


class TestSystemQueries:
    def test_rows_are_most_recent_first(self, db):
        result = db.query("SELECT * FROM system.queries")
        assert isinstance(result, SystemResult)
        records = result.to_dicts()
        assert records, "the fixture query must have left a trace"
        assert records[0]["trace_id"] == db.tracer.last().trace_id
        assert any(record["sql"] == SQL for record in records)

    def test_where_filters_by_column(self, db):
        result = db.query(
            "SELECT * FROM system.queries WHERE surface = 'query'"
        )
        assert result.rows
        assert all(
            record["surface"] == "query" for record in result.to_dicts()
        )

    def test_limit(self, db):
        db.query(SQL)
        result = db.query("SELECT * FROM system.queries LIMIT 1")
        assert len(result) == 1

    def test_unknown_column_raises(self, db):
        with pytest.raises(ValueError, match="no column"):
            db.query("SELECT * FROM system.queries WHERE nope = 1")

    def test_introspection_leaves_no_trace(self, db):
        before = db.tracer.traces_finished
        db.query("SELECT * FROM system.queries")
        assert db.tracer.traces_finished == before

    def test_served_sessions_see_the_same_tables(self, db):
        with db.serve(workers=2) as server:
            with server.session() as client:
                client.execute(SQL)
                result = client.session.execute(
                    "SELECT * FROM system.queries LIMIT 5"
                )
                surfaces = {r["surface"] for r in result.to_dicts()}
                assert any(s.startswith("server:") for s in surfaces)
                # interception bypasses session counters on purpose
                assert client.session.queries_executed == 1

    def test_prepared_session_surface(self, db):
        session = db.session()
        result = session.execute("SELECT * FROM system.metrics LIMIT 3")
        assert isinstance(result, SystemResult)
        assert len(result) == 3

    def test_every_surface_records_one_signature(self):
        db = build_demo_database()
        db.query(SQL)
        prepared = db.prepare(SQL)
        prepared.run()
        prepared.run()
        db.session().execute(SQL)
        with db.serve(workers=1) as server:
            with server.session() as client:
                client.execute(SQL)
        records = [
            record
            for record in db.query("SELECT * FROM system.queries").to_dicts()
            if record["sql"] == SQL
        ]
        assert len(records) == 5
        assert {r["surface"] for r in records} == {"query", "prepared", "server:s1"}
        signatures = {record["signature"] for record in records}
        assert len(signatures) == 1 and None not in signatures

    def test_closed_sessions_refuse_system_tables(self):
        db = build_demo_database()
        embedded = db.session()
        embedded.close()
        with pytest.raises(SessionError):
            embedded.execute("SELECT * FROM system.queries")
        with db.serve(workers=1) as server:
            client = server.session()
            client.close()
            with pytest.raises(SessionError):
                client.session.execute("SELECT * FROM system.queries")
        # embedded callers that catch RuntimeError keep working
        assert issubclass(SessionError, RuntimeError)


class TestSystemMetrics:
    def test_counters_and_histograms_present(self, db):
        records = {
            r["name"]: r
            for r in db.query("SELECT * FROM system.metrics").to_dicts()
        }
        assert records["query.count"]["kind"] == "counter"
        assert records["query.count"]["value"] >= 1
        latency = records["query.ms"]
        assert latency["kind"] == "histogram"
        assert latency["count"] >= 1
        assert latency["p50"] is not None

    def test_where_on_name(self, db):
        result = db.query(
            "SELECT * FROM system.metrics WHERE name = 'query.count'"
        )
        assert len(result) == 1

    def test_result_duck_types_query_result(self, db):
        result = db.query("SELECT * FROM system.metrics LIMIT 2")
        assert result.plan_cached is False
        assert result.scores == [0.0, 0.0]
        assert result.metrics.summary() == {}
        assert result.schema.qualified_names()[0] == "system.name"
        assert result[0] == result.rows[0]
