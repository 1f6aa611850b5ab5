"""Batched columnar execution vs row-at-a-time Volcano on unranked segments.

The lowering (:func:`repro.optimizer.plans.lower_to_batch` forced onto
hand-built plans, the cost-governed decision of
:mod:`repro.optimizer.hybrid` under ``execution="auto"``) swaps the
``P = φ`` segments of a plan onto the batch operators of
:mod:`repro.execution.batch`; rank-aware operators stay tuple-at-a-time.
This bench measures the end-to-end wall-clock effect on the §6.1 plans at
the default bench scale and asserts the tentpole target on the plan that
is *all* unranked segment — the traditional materialize-then-sort plan 1
(the shape of ``bench_fig12d``'s worst case):

* **traditional (plan 1)** — index scans, filters, two sort-merge joins
  and a blocking sort: the entire plan below λ_k lowers to one batch
  segment.  Target: ≥ 3× faster than row mode (``BATCH_MIN_SPEEDUP``; CI
  lowers the bar via the env var to tolerate shared-runner noise, the
  default demonstrates the paper-target locally).
* **hybrid (plan 4)** — µ operators above a sort-merge join: only the
  join subtree lowers, the rank-aware top stays incremental; the µ
  frontier prescores its predicate vectorized per batch.
* **auto mode** — the costed decision agrees with the measurements: the
  bench-scale traditional plan lowers, a tiny-table twin stays row-mode.
* **NumPy backend** — the same lowered plans with
  ``REPRO_VECTOR_BACKEND=numpy`` kernels, identical results required.

Every case also checks *parity*: identical rows, scores and rid tie order
between the paths, and (for these fully-drained shapes) an identical
simulated cost — batching changes how fast tuples move, not how many.

Run:  pytest benchmarks/bench_batch_execution.py --benchmark-only -q -s
"""

from __future__ import annotations

import os
import time

import pytest

from repro.algebra.expressions import col
from repro.algebra.predicates import BooleanPredicate, RankingPredicate, ScoringFunction
from repro.execution import ExecutionContext, run_plan
from repro.execution import morsels, vectors
from repro.execution.batch import BatchToRow
from repro.optimizer.plans import (
    BatchSegmentPlan,
    FilterPlan,
    LimitPlan,
    SeqScanPlan,
    SortPlan,
    lower_to_batch,
)
from repro.storage import Catalog, DataType, Schema
from repro.workloads import ALL_PLANS, WorkloadConfig, build_workload

from .conftest import cached_workload, record_result

#: required row/batch wall-clock ratio on the traditional plan
MIN_SPEEDUP = float(os.environ.get("BATCH_MIN_SPEEDUP", "3.0"))

#: required DOP-4/DOP-1 wall-clock ratio on the morsel sweep (0 = record
#: only; CI sets 1.8 on multi-core runners)
PARALLEL_MIN_SPEEDUP = float(os.environ.get("PARALLEL_MIN_SPEEDUP", "0"))

#: degrees of parallelism the sweep measures
DOP_SWEEP = (1, 2, 4, 8)

ROUNDS = 3


def _run(workload, plan_node, k):
    context = ExecutionContext(workload.catalog, workload.scoring)
    start = time.perf_counter()
    out = run_plan(plan_node.build(), context, k=k)
    elapsed = time.perf_counter() - start
    sequence = [(s.row.rid, s.row.values, dict(s.scores)) for s in out]
    return sequence, elapsed, context.metrics


def _best_of(workload, plan_node, k, rounds=ROUNDS):
    best = None
    for __ in range(rounds):
        sequence, elapsed, metrics = _run(workload, plan_node, k)
        if best is None or elapsed < best[1]:
            best = (sequence, elapsed, metrics)
    return best


def _compare(plan_name: str):
    workload = cached_workload()
    k = workload.config.k
    plan = ALL_PLANS[plan_name](workload)
    lowered = lower_to_batch(plan)
    row_sequence, row_time, row_metrics = _best_of(workload, plan, k)
    batch_sequence, batch_time, batch_metrics = _best_of(workload, lowered, k)
    assert batch_sequence == row_sequence, f"{plan_name}: row/batch divergence"
    speedup = row_time / batch_time
    for mode, elapsed, metrics in (
        ("row", row_time, row_metrics),
        ("batch", batch_time, batch_metrics),
    ):
        record_result(
            name=f"batch_execution[{plan_name}:{mode}]",
            plan=plan_name,
            mode=mode,
            wall_seconds=elapsed,
            **metrics.summary(),
        )
    print(
        f"\n{plan_name}: row {row_time * 1000:.1f} ms -> batch "
        f"{batch_time * 1000:.1f} ms ({speedup:.2f}x), "
        f"simulated cost {row_metrics.simulated_cost:.0f} / "
        f"{batch_metrics.simulated_cost:.0f}"
    )
    return speedup, row_metrics, batch_metrics, lowered


def test_traditional_plan_batch_speedup(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    speedup, row_metrics, batch_metrics, lowered = _compare("plan1")
    # The whole sort input is one maximal batch segment.
    segments = [n for n in lowered.walk() if isinstance(n, BatchSegmentPlan)]
    assert len(segments) == 1
    # Same work, delivered faster: the simulated (operation-count) cost of
    # the two paths agrees on this fully-drained plan.
    assert batch_metrics.simulated_cost == pytest.approx(
        row_metrics.simulated_cost, rel=1e-9
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batch path only {speedup:.2f}x faster than row mode "
        f"(required {MIN_SPEEDUP}x)"
    )
    benchmark.extra_info.update(
        {
            "speedup": speedup,
            "row_cost": row_metrics.simulated_cost,
            "batch_cost": batch_metrics.simulated_cost,
        }
    )


def test_hybrid_plan_parity_and_no_regression(benchmark):
    """Plan 4 lowers only its join subtree; the µ chain above stays
    incremental.  Batch must never be slower than row mode by more than
    measurement noise."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    speedup, row_metrics, batch_metrics, __ = _compare("plan4")
    assert batch_metrics.simulated_cost == pytest.approx(
        row_metrics.simulated_cost, rel=1e-9
    )
    assert speedup >= 0.8, f"batch path regressed plan4: {speedup:.2f}x"


def test_rank_aware_plan_untouched(benchmark):
    """Plan 2 is fully rank-aware: nothing lowers except (possibly) bare
    scans, and results are identical either way."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    workload = cached_workload()
    plan = ALL_PLANS["plan2"](workload)
    lowered = lower_to_batch(plan)
    kinds = {type(node).__name__ for node in lowered.walk()}
    assert "MuPlan" in kinds and "HRJNPlan" in kinds
    row_sequence, __, __ = _run(workload, plan, workload.config.k)
    batch_sequence, __, __ = _run(workload, lowered, workload.config.k)
    assert batch_sequence == row_sequence


def test_frontier_vectorization_speedup(benchmark):
    """The vectorized µ frontier: plan 4's µ prescores its predicate per
    batch inside BatchToRow.  Same results, same charges, measurably less
    per-tuple dispatch than the unvectorized frontier."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    workload = cached_workload()
    k = workload.config.k
    lowered = lower_to_batch(ALL_PLANS["plan4"](workload))
    on_sequence, on_time, on_metrics = _best_of(workload, lowered, k, rounds=5)
    original = BatchToRow.request_prescore
    BatchToRow.request_prescore = lambda self, name: False
    try:
        off_sequence, off_time, off_metrics = _best_of(
            workload, lowered, k, rounds=5
        )
    finally:
        BatchToRow.request_prescore = original
    assert on_sequence == off_sequence
    assert on_metrics.simulated_cost == pytest.approx(
        off_metrics.simulated_cost, rel=1e-9
    )
    speedup = off_time / on_time
    for mode, elapsed, metrics in (
        ("frontier-unvectorized", off_time, off_metrics),
        ("frontier-vectorized", on_time, on_metrics),
    ):
        record_result(
            name=f"batch_execution[plan4:{mode}]",
            plan="plan4",
            mode=mode,
            wall_seconds=elapsed,
            **metrics.summary(),
        )
    print(
        f"\nplan4 frontier: unvectorized {off_time * 1000:.1f} ms -> "
        f"prescored {on_time * 1000:.1f} ms ({speedup:.2f}x)"
    )
    benchmark.extra_info["frontier_speedup"] = speedup
    # The prescored frontier must never regress the batch path.
    assert speedup >= 0.9, f"frontier prescore regressed plan4: {speedup:.2f}x"


@pytest.mark.skipif(not vectors.numpy_available(), reason="numpy not installed")
def test_numpy_backend_parity_and_speedup(benchmark):
    """The NumPy column-vector backend behind the same Batch API: plan 1's
    lowered twin with vectorized filter/sort/frontier kernels — identical
    rows, scores, tie order and simulated cost, recorded alongside the
    pure-python numbers."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    workload = cached_workload()
    k = workload.config.k
    lowered = lower_to_batch(ALL_PLANS["plan1"](workload))
    previous = vectors.backend()
    try:
        vectors.set_backend("python")
        python_sequence, python_time, python_metrics = _best_of(workload, lowered, k)
        vectors.set_backend("numpy")
        numpy_sequence, numpy_time, numpy_metrics = _best_of(workload, lowered, k)
    finally:
        vectors.set_backend(previous)
    assert numpy_sequence == python_sequence
    assert numpy_metrics.simulated_cost == pytest.approx(
        python_metrics.simulated_cost, rel=1e-9
    )
    speedup = python_time / numpy_time
    record_result(
        name="batch_execution[plan1:numpy]",
        plan="plan1",
        mode="numpy",
        wall_seconds=numpy_time,
        **numpy_metrics.summary(),
    )
    print(
        f"\nplan1 batch: python {python_time * 1000:.1f} ms -> numpy "
        f"{numpy_time * 1000:.1f} ms ({speedup:.2f}x)"
    )
    benchmark.extra_info["numpy_speedup"] = speedup


def _parallel_sweep_workload(n=6000, spin=600, seed=13):
    """A predicate-dominated single-table top-k: the shape where morsel
    parallelism pays.  Spin-looped predicates keep scoring on the
    pure-python path (``RankingKernel`` refuses them), so per-morsel work
    is real CPU that the fork backend spreads over cores; the per-morsel
    top-k keeps each task's result (k entries + a metrics sink) tiny."""
    import random

    catalog = Catalog()
    table = catalog.create_table(
        "T", Schema.of(("k", DataType.INT), ("x", DataType.FLOAT))
    )
    rng = random.Random(seed)
    for __ in range(n):
        table.insert([rng.randrange(5), round(rng.random(), 6)])
    pa = RankingPredicate("pa", ["x"], lambda x: x, cost=1.0, spin_loops=spin)
    pb = RankingPredicate("pb", ["x"], lambda x: 1 - x, cost=1.0, spin_loops=spin)
    scoring = ScoringFunction([pa, pb])
    condition = BooleanPredicate(col("T.k") > 0, "k>0")

    def make_plan(k=10):
        return LimitPlan(
            SortPlan(
                FilterPlan(SeqScanPlan("T"), condition),
                all_predicates=frozenset({"pa", "pb"}),
            ),
            k,
        )

    return catalog, scoring, make_plan


def _drain_plan(catalog, scoring, plan_node, k):
    context = ExecutionContext(catalog, scoring)
    start = time.perf_counter()
    out = run_plan(plan_node.build(), context, k=k)
    elapsed = time.perf_counter() - start
    sequence = [(s.row.rid, s.row.values, dict(s.scores)) for s in out]
    return sequence, elapsed, context.metrics


def test_parallel_dop_sweep(benchmark, monkeypatch):
    """Morsel-driven intra-query parallelism: the DOP 1/2/4/8 speedup
    curve on a predicate-dominated sort plan, byte-identical results at
    every DOP, written to BENCH_results.json.  With PARALLEL_MIN_SPEEDUP
    set (CI), DOP 4 must beat serial by that factor."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    cores = os.cpu_count() or 1
    # Stamp the core count up front: a flat curve on a single-core runner
    # is expected, and the recorded artifact must say so on its own.
    benchmark.extra_info["cores"] = cores
    if cores < 2:
        record_result(
            name="parallel_execution[skipped]",
            cores=cores,
            skipped="single-core runner: DOP sweep cannot demonstrate speedup",
        )
        pytest.skip(f"DOP sweep needs >= 2 cores (have {cores})")
    if PARALLEL_MIN_SPEEDUP > 0 and cores < 4:
        pytest.skip(f"PARALLEL_MIN_SPEEDUP gate needs >= 4 cores (have {cores})")
    if PARALLEL_MIN_SPEEDUP > 0 and not morsels.fork_available():
        pytest.skip("PARALLEL_MIN_SPEEDUP gate needs the fork backend")

    n = 6000
    catalog, scoring, make_plan = _parallel_sweep_workload(n=n)
    # 16 morsels: enough tasks for every swept DOP to divide the work.
    monkeypatch.setenv("REPRO_MORSEL_SIZE", str(n // 16))
    backend = "thread"
    if morsels.fork_available():
        # Process workers: this workload's per-morsel cost is pure-python
        # predicate spinning, which threads cannot overlap under the GIL.
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        backend = "process"

    base_sequence = None
    base_time = None
    curve: dict[int, float] = {}
    for dop in DOP_SWEEP:
        lowered = lower_to_batch(make_plan(), parallelism=dop)
        best = None
        for __ in range(2):
            sequence, elapsed, metrics = _drain_plan(catalog, scoring, lowered, 10)
            if best is None or elapsed < best[1]:
                best = (sequence, elapsed, metrics)
        sequence, elapsed, metrics = best
        if dop == 1:
            base_sequence, base_time = sequence, elapsed
        else:
            assert sequence == base_sequence, f"dop={dop}: parallel divergence"
        curve[dop] = base_time / elapsed
        record_result(
            name=f"parallel_execution[dop={dop}]",
            dop=dop,
            backend=backend,
            cores=cores,
            wall_seconds=elapsed,
            speedup=curve[dop],
            **metrics.summary(),
        )
    print(
        "\nmorsel DOP sweep (%s backend, %d cores): " % (backend, cores)
        + ", ".join(f"dop {d}: {s:.2f}x" for d, s in curve.items())
    )
    benchmark.extra_info.update(
        {"backend": backend, **{f"speedup_dop{d}": s for d, s in curve.items()}}
    )
    if PARALLEL_MIN_SPEEDUP > 0:
        assert curve[4] >= PARALLEL_MIN_SPEEDUP, (
            f"DOP 4 only {curve[4]:.2f}x over serial "
            f"(required {PARALLEL_MIN_SPEEDUP}x)"
        )


def test_auto_mode_decisions_and_parity(benchmark):
    """``execution="auto"``: the costed decision lowers the bench-scale
    traditional plan (and every execution mode returns the row-mode
    results exactly) while a tiny-table twin of the same query stays
    tuple-at-a-time."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    sql = (
        "SELECT * FROM A, B, C WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 "
        "AND A.b AND B.b ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + "
        "f4(B.p2) + f5(C.p1) LIMIT 10"
    )

    # Large (bench-scale) workload: the traditional plan's segment lowers.
    large = cached_workload()
    runs = {}
    for mode in ("row", "batch", "auto", "compiled"):
        entry, __ = large.database.planner.prepare(
            sql,
            strategy="traditional",
            sample_ratio=0.05,
            seed=7,
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
    entry, auto_result, auto_time = runs["auto"]
    assert entry.decisions
    lowered_segments = [
        n for n in entry.executable.walk() if isinstance(n, BatchSegmentPlan)
    ]
    assert lowered_segments, "bench-scale traditional plan must lower"
    top = lowered_segments[0].decision
    record_result(
        name="batch_execution[auto:traditional-large]",
        mode="auto",
        decision=top.winner,
        row_cost_estimate=top.row_cost,
        batch_cost_estimate=top.batch_cost,
        wall_seconds=auto_time,
        **auto_result.metrics.summary(),
    )
    print(
        f"\nauto (large): {top.segment} row est {top.row_cost:,.0f} vs "
        f"batch est {top.batch_cost:,.0f} -> {top.winner}, "
        f"executed in {auto_time * 1000:.1f} ms"
    )

    # Tiny twin: a filtered single-table top-k over 64-row tables — the
    # same σ-over-scan segment shape that lowers at bench scale stays
    # tuple-at-a-time under the same pricing.
    tiny = build_workload(
        WorkloadConfig(table_size=64, join_selectivity=0.15, k=10, seed=7)
    )
    tiny_sql = "SELECT * FROM A WHERE A.b ORDER BY f1(A.p1) + f2(A.p2) LIMIT 10"
    tiny_entry, __ = tiny.database.planner.prepare(
        tiny_sql, strategy="traditional", sample_ratio=0.5, seed=7, execution="auto"
    )
    assert tiny_entry.decisions, "tiny segment must be priced"
    row_kept = [d for d in tiny_entry.decisions if d.winner == "row"]
    assert row_kept, "64-row segments must stay tuple-at-a-time"
    assert not any(
        isinstance(n, BatchSegmentPlan) for n in tiny_entry.executable.walk()
    )
    record_result(
        name="batch_execution[auto:traditional-tiny]",
        mode="auto",
        decision="row",
        decisions_total=len(tiny_entry.decisions),
        decisions_row=len(row_kept),
        row_cost_estimate=row_kept[0].row_cost,
        batch_cost_estimate=row_kept[0].batch_cost,
    )
    print(
        f"auto (tiny): {row_kept[0].segment} row est "
        f"{row_kept[0].row_cost:,.0f} vs batch est "
        f"{row_kept[0].batch_cost:,.0f} -> row"
    )
    benchmark.extra_info.update(
        {"large_decision": top.winner, "tiny_row_segments": len(row_kept)}
    )
