"""Plan-to-code compilation (:mod:`repro.execution.codegen`).

The compiled regime's contract is *identical observability*: for every
supported plan shape the fused function must emit the same rows, the same
evaluated scores, the same deterministic rid tie order **and** the same
fully-drained integer counters (``charge_*`` accounting) as the row plan
it replaces — row mode is the oracle.  Only the float cost totals
(``simulated_cost``, ``*_cost_units``) may differ, in the last bits: row
mode adds them per tuple, compiled code once per operator.  These tests
pin that contract across parameter bindings, plus the lifecycle around
it: generation-bump invalidation (a stale fused function must never run
against a newer table version, and replaced artifacts must not leak) and
the silent-fallback guarantee (unsupported shapes and compile failures
run as their row plans with no client-visible error).
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.algebra.expressions import col
from repro.engine.database import Database
from repro.execution import codegen
from repro.optimizer.plans import BatchSegmentPlan
from repro.storage import DataType

from tests.conftest import assert_same_work


def build_db(execution="auto", rows=400, seed=3):
    """Two tables, one Expression scorer and one callable scorer — enough
    shape for scan/filter/join/sort pipelines with parameter slots."""
    db = Database(execution=execution)
    db.create_table("T", [("k", DataType.INT), ("x", DataType.FLOAT)])
    db.create_table("S", [("k", DataType.INT), ("y", DataType.FLOAT)])
    rng = random.Random(seed)
    db.insert(
        "T", [(rng.randrange(50), round(rng.random(), 6)) for __ in range(rows)]
    )
    db.insert(
        "S",
        [(rng.randrange(50), round(rng.random(), 6)) for __ in range(rows * 3 // 4)],
    )
    db.register_predicate("pa", ["T.x"], col("T.x") * 0.5 + 0.25)
    db.register_predicate("pb", ["S.y"], lambda y: 1.0 - y)
    db.analyze()
    return db


#: parameterized workload templates (sql, binding generator)
TEMPLATES = [
    (
        "SELECT * FROM T WHERE T.x > ? ORDER BY pa(T.x) LIMIT 7",
        lambda rng: (round(rng.random() * 0.8, 3),),
    ),
    (
        "SELECT * FROM T WHERE T.x > ? AND T.k < ? ORDER BY pa(T.x) LIMIT 10",
        lambda rng: (round(rng.random() * 0.5, 3), rng.randrange(10, 50)),
    ),
    (
        "SELECT * FROM T, S WHERE T.k = S.k AND T.x > ? "
        "ORDER BY pa(T.x) + pb(S.y) LIMIT 9",
        lambda rng: (round(rng.random() * 0.6, 3),),
    ),
]


def observe(db, sql, params):
    """Prepare (warm-cached) + fully drain one binding; returns the entry
    and the complete observable sequence plus the metric totals."""
    entry, __ = db.planner.prepare(sql, strategy="traditional", params=params)
    result = db.execute(
        entry.executable,
        entry.scoring,
        k=entry.k,
        evaluators=entry.evaluators,
        entry=entry,
    )
    rows = [
        (tuple(sr.row.values), sr.row.rid, dict(sr.scores))
        for sr in result.scored_rows
    ]
    return entry, rows, result.metrics.summary()


def artifacts_of(entry) -> list:
    return [
        node.compiled
        for node in entry.executable.walk()
        if isinstance(node, BatchSegmentPlan)
    ]


# ----------------------------------------------------------------------
# parity: compiled == row
# ----------------------------------------------------------------------


@pytest.mark.parametrize("template", range(len(TEMPLATES)))
class TestCompiledParity:
    def test_twenty_bindings_identical_rows_scores_and_metrics(self, template):
        """≥20 bindings per template: identical rows, scores, rid tie order
        and fully-drained counters in both regimes."""
        sql, bind = TEMPLATES[template]
        row = build_db("row")
        compiled = build_db("compiled")
        rng = random.Random(100 + template)
        compiled_entry = None
        for __ in range(20):
            params = bind(rng)
            __, want_rows, want_metrics = observe(row, sql, params)
            compiled_entry, got_rows, got_metrics = observe(compiled, sql, params)
            assert got_rows == want_rows, params
            assert_same_work(got_metrics, want_metrics)
        # The sweep must exercise the compiled path, not silently fall back.
        assert compiled_entry.compiled_segments >= 1
        assert codegen.compiled_segment_count(compiled_entry.executable) >= 1

    def test_warm_bindings_reuse_one_artifact(self, template):
        """Bind variables are read at call time: rebinding never
        recompiles (one artifact serves every binding of the template)."""
        sql, bind = TEMPLATES[template]
        db = build_db("compiled")
        rng = random.Random(7)
        entry, __, __ = observe(db, sql, bind(rng))
        artifacts = artifacts_of(entry)
        assert artifacts
        for __ in range(5):
            again, __, __ = observe(db, sql, bind(rng))
            assert again.template is entry.template
            assert artifacts_of(again) == artifacts
        assert db.planner.metrics.plans_compiled == 1


# ----------------------------------------------------------------------
# fallback: unsupported shapes and compile failures are invisible
# ----------------------------------------------------------------------


class TestFallback:
    def test_rank_aware_plans_fall_back_without_error(self):
        """µ-frontier plans are not compilable; under forced compiled
        execution they run as row plans and return the row-mode answer."""
        sql = "SELECT * FROM T WHERE T.k > 5 ORDER BY pa(T.x) LIMIT 8"
        row_db = build_db("row")
        compiled_db = build_db("compiled")
        want = row_db.query(sql)
        got = compiled_db.query(sql)
        assert got.rows == want.rows
        assert got.scores == want.scores
        entry, __ = compiled_db.planner.prepare(sql)
        assert not artifacts_of(entry)
        assert entry.regime() == "row"

    def test_compile_failure_degrades_to_row_plan(self, monkeypatch):
        """An emitter crash at prepare time must leave the row plan in
        place — same results, no client-visible error."""
        sql, bind = TEMPLATES[0]
        params = bind(random.Random(1))
        row_entry, want_rows, want_metrics = observe(build_db("row"), sql, params)

        def boom(*args, **kwargs):
            raise RuntimeError("injected emitter failure")

        monkeypatch.setattr(codegen, "compile_segment", boom)
        db = build_db("compiled")
        entry, got_rows, got_metrics = observe(db, sql, params)
        assert entry.compiled_segments == 0
        assert entry.executable.fingerprint() == row_entry.executable.fingerprint()
        assert got_rows == want_rows
        assert got_metrics == want_metrics

    def test_supports_rejects_rank_carrying_segments(self):
        """The pre-check itself: no subtree of a rank-aware plan is
        accepted (sort-topped P = φ pipelines only)."""
        db = build_db("row")
        sql = "SELECT * FROM T WHERE T.k > 5 ORDER BY pa(T.x) LIMIT 8"
        entry, __ = db.planner.prepare(sql)
        nodes = list(entry.executable.walk())
        assert len(nodes) > 1
        for node in nodes:
            assert not codegen.supports(node, db.catalog, entry.scoring)


# ----------------------------------------------------------------------
# invalidation: generation bumps orphan compiled artifacts
# ----------------------------------------------------------------------


class TestInvalidation:
    def test_insert_invalidation_recompiles_against_new_version(self):
        """A stale fused function must never serve rows from a superseded
        table version: after DML the template recompiles and the answer
        reflects the new data."""
        sql = "SELECT * FROM T ORDER BY pa(T.x) LIMIT 3"
        db = build_db("compiled")
        entry, before_rows, __ = observe(db, sql, None)
        old_artifacts = {id(artifact) for artifact in artifacts_of(entry)}
        assert old_artifacts
        # Two rows that beat every existing score under pa = x/2 + 0.25.
        db.insert("T", [(1, 9.0), (2, 8.0)])
        entry2, after_rows, __ = observe(db, sql, None)
        assert entry2 is not entry
        new_artifacts = {id(artifact) for artifact in artifacts_of(entry2)}
        assert new_artifacts and not (new_artifacts & old_artifacts)
        assert after_rows != before_rows
        assert [r[0][1] for r in after_rows[:2]] == [9.0, 8.0]
        # The recompiled answer still matches row mode on the same data.
        reference = build_db("row")
        reference.insert("T", [(1, 9.0), (2, 8.0)])
        __, want_rows, __ = observe(reference, sql, None)
        assert after_rows == want_rows

    def test_ddl_invalidation_recompiles(self):
        sql = "SELECT * FROM T ORDER BY pa(T.x) LIMIT 5"
        db = build_db("compiled")
        entry, __, __ = observe(db, sql, None)
        generation = entry.generation
        db.create_column_index("T", "k")
        entry2, __, __ = observe(db, sql, None)
        assert entry2.generation > generation
        assert entry2.compiled_segments >= 1

    def test_replaced_artifacts_are_collected_not_leaked(self):
        """Invalidation + re-prepare must let the old artifact (and its
        generated function) be garbage collected."""
        sql = "SELECT * FROM T ORDER BY pa(T.x) LIMIT 5"
        db = build_db("compiled")
        entry, __, __ = observe(db, sql, None)
        old = artifacts_of(entry)
        assert old
        refs = [weakref.ref(a) for a in old] + [
            weakref.ref(a.function) for a in old
        ]
        db.insert("T", [(9, 0.5)])
        observe(db, sql, None)  # re-prepare: evicts + replaces the stale entry
        del entry, old
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_uncached_prepare_compiles_fresh_artifacts(self):
        """Planning the same statement again past the cache builds new
        artifacts (fresh objects, same count) instead of sharing the cached
        entry's."""
        sql = "SELECT * FROM T ORDER BY pa(T.x) LIMIT 5"
        db = build_db("compiled")
        entry, __, __ = observe(db, sql, None)
        first = {id(artifact) for artifact in artifacts_of(entry)}
        again, __ = db.planner.prepare(sql, strategy="traditional", use_cache=False)
        second = {id(artifact) for artifact in artifacts_of(again)}
        assert again.compiled_segments == len(first) == len(second) >= 1
        assert again.compile_seconds > 0.0
        assert not (first & second)


# ----------------------------------------------------------------------
# observability: explain, metrics, sessions, server
# ----------------------------------------------------------------------


class TestObservability:
    def test_explain_footer_prices_both_regimes(self):
        db = build_db("compiled")
        sql = "SELECT * FROM T WHERE T.x > 0.2 ORDER BY pa(T.x) LIMIT 7"
        text = db.explain(sql, strategy="traditional")
        assert "row cost=" in text
        assert "vs compiled cost=" in text
        assert "-> compiled" in text
        assert "batch" not in text

    def test_explain_analyze_reports_the_fused_node_time(self):
        db = build_db("compiled")
        sql = "SELECT * FROM T WHERE T.x > 0.2 ORDER BY pa(T.x) LIMIT 7"
        text = db.explain_analyze(sql, strategy="traditional")
        fused = [line for line in text.splitlines() if "compiled[" in line]
        assert fused, text
        assert any("time=" in line and "ms" in line for line in fused)

    def test_planner_metrics_count_compilation(self):
        db = build_db("compiled")
        observe(db, TEMPLATES[0][0], TEMPLATES[0][1](random.Random(2)))
        summary = db.planner.metrics.summary()
        assert summary["plans_compiled"] >= 1
        assert summary["compile_seconds"] > 0.0

    def test_session_splits_compiled_vs_interpreted(self):
        db = build_db("compiled")
        session = db.session(strategy="traditional")
        session.execute("SELECT * FROM T WHERE T.x > 0.2 ORDER BY pa(T.x) LIMIT 7")
        interpreted = db.session()  # rank-aware plans stay on the iterators
        interpreted.execute("SELECT * FROM T WHERE T.k > 5 ORDER BY pa(T.x) LIMIT 8")
        assert session.summary()["compiled_executions"] == 1
        assert session.summary()["interpreted_executions"] == 0
        assert interpreted.summary()["compiled_executions"] == 0
        assert interpreted.summary()["interpreted_executions"] == 1

    def test_server_summary_reports_compilation_counters(self):
        db = build_db("compiled")
        with db.serve(workers=2) as server:
            with server.session(strategy="traditional") as client:
                client.execute(
                    "SELECT * FROM T WHERE T.x > 0.2 ORDER BY pa(T.x) LIMIT 7"
                )
                summary = server.summary()
        assert summary["sessions_compiled_executions"] == 1
        assert summary["planner_plans_compiled"] >= 1
        assert summary["planner_compile_seconds"] > 0.0
