"""Prepared statements and sessions: plan-once, run-many semantics."""

from __future__ import annotations

import pytest

from repro.cli import build_demo_database
from repro.planner.planner import STRATEGIES

SQL = "SELECT * FROM hotel ORDER BY cheap(hotel.price) LIMIT 5"


@pytest.fixture
def db():
    return build_demo_database(seed=7)


class TestPreparedQuery:
    def test_run_matches_adhoc_query(self, db):
        adhoc = db.query(SQL)
        prepared = db.prepare(SQL)
        result = prepared.run()
        assert result.rows == adhoc.rows
        assert result.scores == adhoc.scores
        assert result.plan_cached

    def test_repeated_prepare_hits_cache(self, db):
        first = db.prepare(SQL)
        second = db.prepare(SQL)
        assert not first.from_cache
        assert second.from_cache
        assert second.plan is first.plan

    def test_run_with_smaller_k(self, db):
        prepared = db.prepare(SQL)
        assert len(prepared.run(k=2)) == 2

    def test_run_with_larger_k_than_limit(self, db):
        prepared = db.prepare(SQL)
        result = prepared.run(k=12)
        assert len(result) == 12
        scores = result.scores
        assert scores == sorted(scores, reverse=True)

    def test_rerun_skips_planning(self, db):
        prepared = db.prepare(SQL)
        built = db.planner.metrics.plans_built
        for __ in range(3):
            prepared.run()
        assert db.planner.metrics.plans_built == built

    def test_replans_after_catalog_change(self, db):
        prepared = db.prepare(SQL)
        db.insert("hotel", [("hotel-best", 1.0, 5, 0)])
        db.analyze("hotel")
        result = prepared.run()
        assert result.rows[0][0] == "hotel-best"  # not a stale plan
        assert not result.plan_cached  # the run re-optimized; don't claim a hit
        assert prepared.run().plan_cached  # the next one is warm again

    def test_cursor_is_unbounded(self, db):
        prepared = db.prepare(SQL)
        with prepared.cursor() as cursor:
            rows = cursor.fetch_many(20)  # past the prepared LIMIT 5
        assert len(rows) == 20

    def test_explain_renders_plan(self, db):
        assert "limit(5)" in db.prepare(SQL).explain()

    def test_traditional_strategy(self, db):
        prepared = db.prepare(SQL, strategy="traditional")
        assert "sort" in prepared.plan.explain()
        assert prepared.run().rows == db.query(SQL).rows

    def test_unknown_strategy_rejected(self, db):
        with pytest.raises(ValueError):
            db.prepare(SQL, strategy="quantum")

    def test_rule_based_strategy_is_retired(self, db):
        """One plan search: every SQL statement is planned by the DP, so
        ``rank-aware`` and ``traditional`` are the only strategies."""
        assert STRATEGIES == ("rank-aware", "traditional")
        with pytest.raises(ValueError, match="unknown strategy"):
            db.query(SQL, strategy="rule-based")
        with pytest.raises(ValueError, match="unknown strategy"):
            db.prepare(SQL, strategy="rule-based")
        with pytest.raises(ValueError, match="unknown strategy"):
            db.session(strategy="rule-based").execute(SQL)


class TestSession:
    def test_execute_accumulates_metrics(self, db):
        session = db.session()
        session.execute(SQL)
        session.execute(SQL)
        summary = session.summary()
        assert summary["queries_executed"] == 2
        assert summary["rows_returned"] == 10
        assert summary["plan_cache_hits"] == 1
        assert summary["simulated_cost"] > 0

    def test_first_run_of_cold_plan_reports_uncached(self, db):
        session = db.session()
        cold = session.execute(SQL)   # plan built during this statement
        warm = session.execute(SQL)   # pure reuse
        assert not cold.plan_cached
        assert warm.plan_cached

    def test_session_settings_apply(self, db):
        session = db.session(strategy="traditional")
        assert "sort" in session.explain(SQL)

    def test_sessions_share_plan_cache(self, db):
        db.session().execute(SQL)
        result = db.session().execute(SQL)
        assert result.plan_cached

    def test_closed_session_rejects_statements(self, db):
        with db.session() as session:
            session.execute(SQL)
        with pytest.raises(RuntimeError):
            session.prepare(SQL)

    def test_session_cursor(self, db):
        session = db.session()
        with session.cursor(SQL) as cursor:
            assert len(cursor.fetch_many(8)) == 8
