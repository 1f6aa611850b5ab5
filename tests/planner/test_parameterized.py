"""Parameterized prepared statements: template-level plan reuse.

The tentpole property: one cached plan serves *every* binding of a
template.  These tests pin down the three guarantees that makes sense of:

* sharing — same template + different constants hit one cache entry and
  build one plan;
* correctness — each execution honours *its* bindings, byte-identical to
  the literal query;
* isolation — parameterized signatures never collide with literal ones,
  and binding errors are loud and specific.
"""

from __future__ import annotations

import pytest

from repro import ParameterError
from repro.cli import build_demo_database
from repro.optimizer.synopsis import SynopsisEstimator
from repro.planner import spec_signature

TEMPLATE = (
    "SELECT * FROM hotel WHERE hotel.price <= :max_price "
    "ORDER BY cheap(hotel.price) + starry(hotel.stars) LIMIT 5"
)


@pytest.fixture
def db():
    return build_demo_database(seed=7)


def literal(max_price: float) -> str:
    return TEMPLATE.replace(":max_price", repr(max_price))


class TestTemplateSharing:
    def test_one_plan_serves_many_bindings(self, db):
        bindings = [60.0, 120.0, 250.0, 399.0]
        for value in bindings:
            db.query(TEMPLATE, params={"max_price": value})
        assert db.planner.metrics.plans_built == 1
        assert db.planner.cache.stats.hits == len(bindings) - 1
        assert len(db.planner.cache) == 1

    def test_warm_template_runs_report_plan_cached(self, db):
        first = db.query(TEMPLATE, params={"max_price": 100.0})
        second = db.query(TEMPLATE, params={"max_price": 300.0})
        assert not first.plan_cached  # cold template build
        assert second.plan_cached

    def test_bindings_are_execution_correct_per_run(self, db):
        for value in (60.0, 120.0, 350.0):
            result = db.query(TEMPLATE, params={"max_price": value})
            assert result.rows, f"no rows for max_price={value}"
            assert all(row[1] <= value for row in result.rows)
            assert result.rows == db.query(literal(value)).rows

    def test_bindings_differ_across_runs(self, db):
        tight = db.query(
            "SELECT * FROM hotel WHERE hotel.price >= :min_price "
            "ORDER BY starry(hotel.stars) LIMIT 5",
            params={"min_price": 390.0},
        )
        loose = db.query(
            "SELECT * FROM hotel WHERE hotel.price >= :min_price "
            "ORDER BY starry(hotel.stars) LIMIT 5",
            params={"min_price": 40.0},
        )
        assert loose.plan_cached
        assert tight.rows != loose.rows
        assert all(row[1] >= 390.0 for row in tight.rows)

    def test_two_statements_share_one_template_entry(self, db):
        a = db.prepare(TEMPLATE, params={"max_price": 90.0})
        b = db.prepare(TEMPLATE, params={"max_price": 210.0})
        assert not a.from_cache
        assert b.from_cache
        assert a.plan is b.plan

    def test_positional_template_reuse(self, db):
        sql = (
            "SELECT * FROM hotel WHERE hotel.price <= ? AND hotel.stars >= ? "
            "ORDER BY cheap(hotel.price) LIMIT 3"
        )
        first = db.query(sql, params=[150.0, 2])
        second = db.query(sql, params=[300.0, 4])
        assert second.plan_cached
        assert all(row[1] <= 300.0 and row[2] >= 4 for row in second.rows)
        assert db.planner.metrics.plans_built == 1
        assert first.rows != second.rows


def execute_entry(db, entry, hit):
    """Run a prepared entry the way the two-step embedded path does:
    ``planner.prepare`` then ``db.execute`` with the entry and no params."""
    return db.execute(
        entry.executable, entry.scoring, k=entry.k,
        evaluators=entry.evaluators, plan_cached=hit, entry=entry,
    )


class TestBoundEntries:
    def test_a_template_without_parameters_binds_to_itself(self, db):
        entry, __ = db.planner.prepare(literal(200.0))
        assert entry.params is None
        assert entry.bind(None) is entry
        assert entry.bind({}) is entry

    def test_a_bound_entry_shares_the_template(self, db):
        first, __ = db.planner.prepare(TEMPLATE, params={"max_price": 150.0})
        second, hit = db.planner.prepare(TEMPLATE, params={"max_price": 300.0})
        assert hit
        assert first is not second
        assert first.params != second.params
        assert first.template is second.template
        for bound in (first, second):
            assert bound.plan is bound.template.plan
            assert bound.evaluators is bound.template.evaluators
        assert first.template.params is None

    def test_the_cache_holds_only_unbound_templates(self, db):
        for price in (120.0, 240.0, 360.0):
            db.query(TEMPLATE, params={"max_price": price})
        entries = db.planner.cache.entries()
        assert len(entries) == 1
        assert all(e.params is None and e.template is None for e in entries)

    def test_prepare_then_execute_runs_the_bound_values(self, db):
        for price in (100.0, 250.0):
            entry, hit = db.planner.prepare(TEMPLATE, params={"max_price": price})
            got = execute_entry(db, entry, hit)
            assert got.rows == db.query(literal(price)).rows
            assert all(row[1] <= price for row in got.rows)

    def test_every_binding_folds_into_the_templates_feedback(self, db):
        prices = (100.0, 200.0, 300.0)
        for price in prices:
            entry, hit = db.planner.prepare(TEMPLATE, params={"max_price": price})
            execute_entry(db, entry, hit)
        feedback = entry.template.feedback
        assert feedback is not None
        assert feedback.nodes[0].executions == len(prices)


class TestSignatures:
    def test_parameterized_never_collides_with_literal(self, db):
        parameterized = db.bind(TEMPLATE)
        for value in ("60.0", "120.0"):
            lit_spec = db.bind(TEMPLATE.replace(":max_price", value))
            assert spec_signature(parameterized) != spec_signature(lit_spec)

    def test_all_bindings_share_the_signature(self, db):
        assert spec_signature(db.bind(TEMPLATE)) == spec_signature(db.bind(TEMPLATE))

    def test_positional_and_named_templates_differ(self, db):
        named = db.bind(TEMPLATE)
        positional = db.bind(TEMPLATE.replace(":max_price", "?"))
        assert spec_signature(named) != spec_signature(positional)

    def test_different_placeholder_position_differs(self, db):
        on_price = db.bind(
            "SELECT * FROM hotel WHERE hotel.price <= :v "
            "ORDER BY cheap(hotel.price) LIMIT 5"
        )
        on_stars = db.bind(
            "SELECT * FROM hotel WHERE hotel.stars <= :v "
            "ORDER BY cheap(hotel.price) LIMIT 5"
        )
        assert spec_signature(on_price) != spec_signature(on_stars)


class TestBindingErrors:
    def test_missing_bindings_rejected(self, db):
        with pytest.raises(ParameterError, match="unbound parameter"):
            db.query(TEMPLATE)

    def test_wrong_name_lists_missing_and_extra(self, db):
        with pytest.raises(ParameterError, match="missing :max_price"):
            db.query(TEMPLATE, params={"maxprice": 10.0})

    def test_type_mismatch_rejected(self, db):
        with pytest.raises(ParameterError, match="expects float"):
            db.query(TEMPLATE, params={"max_price": "expensive"})

    def test_literal_query_rejects_params(self, db):
        with pytest.raises(ParameterError, match="takes no parameters"):
            db.query(
                "SELECT * FROM hotel ORDER BY cheap(hotel.price) LIMIT 5",
                params={"max_price": 10.0},
            )

    def test_every_run_needs_full_bindings(self, db):
        prepared = db.prepare(TEMPLATE)
        prepared.run(params={"max_price": 100.0})
        with pytest.raises(ParameterError, match="unbound parameter"):
            prepared.run()  # bindings are per-run, never remembered


class TestPreparedParameterized:
    def test_planning_deferred_until_first_run(self, db):
        prepared = db.prepare(TEMPLATE)
        assert prepared.parameterized
        assert prepared.parameter_keys == (":max_price",)
        assert db.planner.metrics.plans_built == 0
        result = prepared.run(params={"max_price": 100.0})
        assert db.planner.metrics.plans_built == 1
        assert not result.plan_cached  # cold template build on first run
        again = prepared.run(params={"max_price": 200.0})
        assert again.plan_cached

    def test_plan_property_requires_planning(self, db):
        prepared = db.prepare(TEMPLATE)
        with pytest.raises(ParameterError, match="not planned yet"):
            prepared.plan  # noqa: B018 - the property raises

    def test_eager_prepare_with_initial_params(self, db):
        prepared = db.prepare(TEMPLATE, params={"max_price": 100.0})
        assert db.planner.metrics.plans_built == 1
        result = prepared.run(params={"max_price": 100.0})
        assert not result.plan_cached  # still the entry's first execution

    def test_explain_accepts_params(self, db):
        prepared = db.prepare(TEMPLATE)
        assert "limit" in prepared.explain(params={"max_price": 100.0})

    def test_explain_after_invalidation_needs_params_to_replan(self, db):
        prepared = db.prepare(TEMPLATE, params={"max_price": 100.0})
        assert "limit" in prepared.explain()  # warm: no bindings needed
        db.insert("hotel", [("hotel-new", 41.0, 5, 1)])
        # The cached template is orphaned; re-planning peeks values like run.
        with pytest.raises(ParameterError, match="unbound parameter"):
            prepared.explain()
        assert "limit" in prepared.explain(params={"max_price": 100.0})

    def test_warm_explain_still_validates_params(self, db):
        prepared = db.prepare(TEMPLATE)
        prepared.run(params={"max_price": 100.0})  # entry is warm now
        with pytest.raises(ParameterError, match="missing :max_price"):
            prepared.explain(params={"wrong_name": 1.0})
        # ...but a warm explain without params needs no bindings at all
        assert "limit" in prepared.explain()

    def test_replans_after_catalog_change(self, db):
        prepared = db.prepare(TEMPLATE)
        prepared.run(params={"max_price": 100.0})
        db.insert("hotel", [("hotel-new", 41.0, 5, 1)])
        result = prepared.run(params={"max_price": 100.0})
        assert not result.plan_cached  # invalidation forced a fresh template
        assert any(row[0] == "hotel-new" for row in result.rows)

    def test_cursor_with_params(self, db):
        prepared = db.prepare(TEMPLATE)
        with prepared.cursor(params={"max_price": 80.0}) as cursor:
            rows = cursor.fetch_many(10)
        assert rows
        assert all(row[1] <= 80.0 for row in rows)

    def test_interleaved_cursors_keep_their_own_bindings(self, db):
        # Two independent cursors over the same template must not clobber
        # each other through the shared cached-plan slots.
        sql = (
            "SELECT * FROM hotel WHERE hotel.stars >= :min "
            "ORDER BY cheap(hotel.price) LIMIT 3"
        )
        c1 = db.open_cursor(sql, params={"min": 5})
        assert c1.fetch_next()[2] >= 5
        c2 = db.open_cursor(sql, params={"min": 1})
        for __ in range(6):  # c1 must keep filtering at stars >= 5
            row = c1.fetch_next()
            assert row[2] >= 5, f"cursor lost its binding: {row}"
        assert c2.fetch_next() is not None
        c1.close()
        c2.close()

    def test_open_cursor_survives_later_runs_of_same_template(self, db):
        prepared = db.prepare(TEMPLATE)
        cursor = prepared.cursor(params={"max_price": 60.0})
        assert cursor.fetch_next()[1] <= 60.0
        prepared.run(params={"max_price": 400.0})  # rebinds the template
        for __ in range(6):
            row = cursor.fetch_next()
            if row is None:
                break
            assert row[1] <= 60.0, f"cursor lost its binding: {row}"
        cursor.close()

    def test_run_k_override_with_params(self, db):
        prepared = db.prepare(TEMPLATE)
        big = prepared.run(k=20, params={"max_price": 300.0})
        assert len(big) == 20


class TestSessionParameterized:
    def test_session_reuses_one_plan_per_template(self, db):
        session = db.session()
        session.execute(TEMPLATE, params={"max_price": 60.0})
        session.execute(TEMPLATE, params={"max_price": 200.0})
        session.execute(TEMPLATE, params={"max_price": 350.0})
        assert session.plan_cache_hits == 2
        assert db.planner.metrics.plans_built == 1

    def test_session_results_are_binding_correct(self, db):
        sql = (
            "SELECT * FROM hotel WHERE hotel.price >= :min_price "
            "ORDER BY cheap(hotel.price) LIMIT 5"
        )
        session = db.session()
        low = session.execute(sql, params={"min_price": 40.0})
        high = session.execute(sql, params={"min_price": 200.0})
        assert all(row[1] >= 200.0 for row in high.rows)
        assert low.rows != high.rows


BUDGET = (
    "SELECT * FROM hotel, restaurant WHERE hotel.area = restaurant.area "
    "AND hotel.price + restaurant.price <= :budget "
    "ORDER BY cheap(hotel.price) + tasty(restaurant.price) LIMIT 5"
)


class TestParameterizedJoinCondition:
    def test_each_binding_matches_its_literal(self, db):
        for budget in (100.0, 200.0, 400.0):
            got = db.query(BUDGET, params={"budget": budget})
            assert got.rows == db.query(BUDGET.replace(":budget", repr(budget))).rows
            assert all(row[1] + row[6] <= budget for row in got.rows)

    def test_the_shared_walks_hold_no_value(self, db):
        """The synopsis's walks do not test the parameterized condition;
        each statement filters them with its own values."""
        spec = db.bind(BUDGET)
        synopsis = db.planner.synopsis(spec)
        answers = [
            SynopsisEstimator(synopsis, spec, {":budget": budget}).answers()
            for budget in (50.0, 200.0, 10_000.0)
        ]
        assert answers[0] < answers[1] < answers[2]
        condition = " AND hotel.price + restaurant.price <= :budget"
        free = db.bind(BUDGET.replace(condition, ""))
        unfiltered = SynopsisEstimator(db.planner.synopsis(free), free).answers()
        assert answers[2] == unfiltered

