"""Plan-to-code compilation vs row-at-a-time execution.

Cached plans compile their sort-topped ``P = φ`` segments into one fused
Python function (:mod:`repro.execution.codegen`) that is built once per
template and re-run for every parameter binding.  This bench measures
both halves of that bargain on a selective single-table top-k — the shape
where per-tuple operator dispatch dominates:

* **cold compile** — the one-time cost of generating + ``compile()``-ing
  the fused function during ``prepare`` (amortized across every warm
  run; recorded so regressions in generated-code size show up);
* **warm parameterized reuse** — ten bindings of one template against
  ``Database(execution="row")`` vs ``execution="compiled"``: the same
  plan, Volcano iterators vs the fused loop.  Target: ≥ 6× faster
  (``COMPILED_MIN_SPEEDUP``; CI lowers the bar via the env var to
  tolerate shared-runner noise);
* **auto mode** — the costed decision compiles the bench-scale §6
  traditional plan, keeps a tiny-table twin row-mode, and every mode
  returns the row-mode results.

Every case checks *parity* against row mode, the oracle: identical rows,
scores and rid tie order, identical integer counters, and the float cost
totals to 1e-9 — compilation changes how fast tuples move, not how many.

Run:  pytest benchmarks/bench_compiled_execution.py --benchmark-only -q -s
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.algebra.expressions import col
from repro.engine.database import Database
from repro.optimizer.plans import BatchSegmentPlan
from repro.storage import DataType
from repro.workloads import WorkloadConfig, build_workload

from .conftest import cached_workload, record_result

#: required row/compiled wall-clock ratio on the warm parameterized run
COMPILED_MIN_SPEEDUP = float(os.environ.get("COMPILED_MIN_SPEEDUP", "6.0"))

ROWS = 20_000
ROUNDS = 3

#: one selective template, ten bindings — the warm parameterized workload
SQL = "SELECT * FROM T WHERE T.x > ? ORDER BY pa(T.x) + pb(T.x) LIMIT 150"
BINDINGS = [(0.85 + i * 0.005,) for i in range(10)]


def _build_database(execution: str) -> Database:
    db = Database(execution=execution)
    db.create_table("T", [("k", DataType.INT), ("x", DataType.FLOAT)])
    rng = random.Random(7)
    db.insert("T", [(i % 512, rng.random()) for i in range(ROWS)])
    # Expression scorers: the code generator inlines their arithmetic.
    db.register_predicate("pa", ["T.x"], col("T.x") * 0.5 + 0.25)
    db.register_predicate("pb", ["T.x"], col("T.x") * -0.9 + 1.0)
    db.analyze()
    return db


def _observe(result):
    rows = [
        (tuple(s.row.values), s.row.rid, dict(s.scores))
        for s in result.scored_rows
    ]
    return rows, result.metrics


def _assert_same_work(got, want) -> None:
    """Integer counters exact; the float cost totals (added once per
    operator in compiled code, once per tuple in row mode) to 1e-9."""
    got, want = got.summary(), want.summary()
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key == "simulated_cost" or key.endswith("_cost_units"):
            assert got[key] == pytest.approx(value, rel=1e-9), key
        else:
            assert got[key] == value, key


def _warm_sweep(db):
    """Best-of-ROUNDS wall time for draining every binding once."""
    prepared = db.prepare(SQL, strategy="traditional", params=BINDINGS[0])
    prepared.run(params=BINDINGS[0])  # warm: compile + caches + evaluators
    best = float("inf")
    rows = metrics = None
    for __ in range(ROUNDS):
        start = time.perf_counter()
        for binding in BINDINGS:
            rows, metrics = _observe(prepared.run(params=binding))
        best = min(best, time.perf_counter() - start)
    return best, rows, metrics, prepared


def test_cold_compile_cost(benchmark):
    """The one-time plan-to-code cost: template prepare with compilation
    vs without, plus the compiler's own self-reported seconds."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    db = _build_database("compiled")
    start = time.perf_counter()
    prepared = db.prepare(SQL, strategy="traditional", params=BINDINGS[0])
    prepared.run(params=BINDINGS[0])
    first_run = time.perf_counter() - start
    compile_seconds = db.planner.metrics.compile_seconds
    assert prepared.compiled_segments > 0, "template must compile"
    assert compile_seconds > 0
    record_result(
        name="compiled_execution[cold_compile]",
        wall_seconds=first_run,
        compile_seconds=compile_seconds,
        compiled_segments=prepared.compiled_segments,
    )
    print(
        f"\ncold: first prepare+run {first_run * 1000:.1f} ms "
        f"(codegen {compile_seconds * 1000:.2f} ms, "
        f"{prepared.compiled_segments} segment)"
    )
    benchmark.extra_info["compile_seconds"] = compile_seconds


def test_warm_parameterized_speedup(benchmark):
    """Warm reuse: one compiled artifact serves all ten bindings and must
    beat row mode by COMPILED_MIN_SPEEDUP."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    db_row = _build_database("row")
    db_compiled = _build_database("compiled")
    row_time, row_rows, row_metrics, __ = _warm_sweep(db_row)
    compiled_time, compiled_rows, compiled_metrics, prepared = _warm_sweep(
        db_compiled
    )
    # One artifact, every binding: reuse must never recompile.
    assert db_compiled.planner.metrics.plans_compiled == 1
    assert prepared.compiled_segments > 0
    # Parity: identical observable sequence and identical work.
    assert compiled_rows == row_rows, "row/compiled divergence"
    _assert_same_work(compiled_metrics, row_metrics)
    speedup = row_time / compiled_time
    for mode, elapsed, metrics in (
        ("row", row_time, row_metrics),
        ("compiled", compiled_time, compiled_metrics),
    ):
        record_result(
            name=f"compiled_execution[warm:{mode}]",
            mode=mode,
            bindings=len(BINDINGS),
            wall_seconds=elapsed,
            speedup=speedup if mode == "compiled" else 1.0,
            **metrics.summary(),
        )
    print(
        f"\nwarm x{len(BINDINGS)} bindings: row {row_time * 1000:.1f} ms "
        f"-> compiled {compiled_time * 1000:.1f} ms ({speedup:.2f}x)"
    )
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= COMPILED_MIN_SPEEDUP, (
        f"compiled path only {speedup:.2f}x faster than row mode "
        f"(required {COMPILED_MIN_SPEEDUP}x)"
    )


def test_unsupported_shape_falls_back(benchmark):
    """``execution="compiled"`` on a rank-aware plan (µ frontier — no
    compiled twin) must run as its row plan with no client-visible
    difference from row mode."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    db_row = _build_database("row")
    db_compiled = _build_database("compiled")
    sql = "SELECT * FROM T WHERE T.x > ? ORDER BY pa(T.x) + pb(T.x) LIMIT 20"
    params = (0.5,)
    expected, __ = _observe(db_row.query(sql, params=params))
    observed, __ = _observe(db_compiled.query(sql, params=params))
    assert observed == expected
    assert db_compiled.planner.metrics.plans_compiled == 0
    record_result(
        name="compiled_execution[fallback:rank-aware]",
        compiled_plans=db_compiled.planner.metrics.plans_compiled,
        rows=len(observed),
    )


def test_auto_mode_decisions_and_parity(benchmark):
    """``execution="auto"``: the costed decision compiles the bench-scale
    §6 traditional plan (and every execution mode returns the row-mode
    results exactly) while a tiny-table twin of the same query stays
    tuple-at-a-time."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sql = (
        "SELECT * FROM A, B, C WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 "
        "AND A.b AND B.b ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + "
        "f4(B.p2) + f5(C.p1) LIMIT 10"
    )

    # Large (bench-scale) workload: the traditional plan's segment compiles.
    large = cached_workload()
    runs = {}
    for mode in ("row", "auto", "compiled"):
        entry, __ = large.database.planner.prepare(
            sql,
            strategy="traditional",
            use_cache=False,
            execution=mode,
        )
        start = time.perf_counter()
        result = large.database.execute(
            entry.executable, entry.scoring, k=entry.k, evaluators=entry.evaluators
        )
        runs[mode] = (entry, result, time.perf_counter() - start)
        assert result.rows == runs["row"][1].rows, mode
        assert result.scores == runs["row"][1].scores, mode
        _assert_same_work(result.metrics, runs["row"][1].metrics)
    entry, auto_result, auto_time = runs["auto"]
    segments = [n for n in entry.executable.walk() if isinstance(n, BatchSegmentPlan)]
    assert len(segments) == 1, "bench-scale traditional plan must compile"
    top = segments[0].decision
    record_result(
        name="compiled_execution[auto:traditional-large]",
        mode="auto",
        decision=top.winner,
        row_cost_estimate=top.row_cost,
        compiled_cost_estimate=top.compiled_cost,
        wall_seconds=auto_time,
        row_wall_seconds=runs["row"][2],
        **auto_result.metrics.summary(),
    )
    print(
        f"\nauto (large): {top.segment} row est {top.row_cost:,.0f} vs "
        f"compiled est {top.compiled_cost:,.0f} -> {top.winner}, "
        f"executed in {auto_time * 1000:.1f} ms (row {runs['row'][2] * 1000:.1f} ms)"
    )

    # Tiny twin: a filtered single-table top-k over 64-row tables — the
    # same sort-topped segment shape that compiles at bench scale stays
    # tuple-at-a-time under the same pricing.
    tiny = build_workload(
        WorkloadConfig(table_size=64, join_selectivity=0.15, k=10, seed=7)
    )
    tiny_sql = "SELECT * FROM A WHERE A.b ORDER BY f1(A.p1) + f2(A.p2) LIMIT 10"
    tiny_entry, __ = tiny.database.planner.prepare(
        tiny_sql, strategy="traditional", execution="auto"
    )
    assert [d.winner for d in tiny_entry.decisions] == ["row"], (
        "64-row segments must stay tuple-at-a-time"
    )
    assert tiny_entry.regime() == "row"
    decision = tiny_entry.decisions[0]
    record_result(
        name="compiled_execution[auto:traditional-tiny]",
        mode="auto",
        decision="row",
        row_cost_estimate=decision.row_cost,
        compiled_cost_estimate=decision.compiled_cost,
    )
    print(
        f"auto (tiny): {decision.segment} row est {decision.row_cost:,.0f} "
        f"vs compiled est {decision.compiled_cost:,.0f} -> row"
    )
    benchmark.extra_info.update({"large_decision": top.winner})
