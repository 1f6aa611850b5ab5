"""Repeated-query latency: cold optimization vs the plan-cache warm path.

The staged planner's promise is that *repeated* traffic pays for plan
enumeration once.  This bench measures end-to-end latency of the Fig. 9
workload query (3 tables, 5 ranking predicates — the §6 shape whose DP
enumeration dominates cold latency):

* **cold** — planner caches invalidated, then prepare + execute: parse-free
  spec path, full ``(SR, SP)`` enumeration, sample rebuild, predicate
  compilation, execution;
* **warm** — prepare + execute again: plan-cache hit, shared compiled
  evaluators, execution only;
* **parameterized** — the same shape with a ``:cap`` bind variable: 20
  *distinct* constants share one template plan (hit-rate 1.0 after the
  first build), the workload regime PR 1's byte-identical cache missed.

Acceptance target: warm ≥ 5× faster.  Results land in
``benchmark.extra_info`` (``cold_ms``, ``warm_ms``, ``speedup``) for the
perf trajectory.

Run:  pytest benchmarks/bench_plan_cache.py --benchmark-only -q -s
"""

from __future__ import annotations

import os
import statistics
import time

from repro.cli import build_demo_database
from repro.execution import ExecutionContext, run_plan

from .conftest import cached_workload

#: Fig. 9 shape at interactive scale: fanout j·s = 10 (conftest scale note),
#: small k so the cold run is enumeration-dominated — the repeated-traffic
#: regime the plan cache targets.
WORKLOAD = dict(table_size=500, join_selectivity=0.02, k=5)

COLD_ROUNDS = 5
WARM_ROUNDS = 25

#: required cold/warm ratio; the paper-target default (5x) is what this
#: bench demonstrates locally — CI lowers it via the env var to tolerate
#: shared-runner wall-clock noise without losing the regression gate.
MIN_SPEEDUP = float(os.environ.get("PLAN_CACHE_MIN_SPEEDUP", "5.0"))


def _timed(fn, rounds):
    """Best-of-``rounds`` wall time (robust against scheduler noise)."""
    times = []
    out = None
    for __ in range(rounds):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return min(times), out


def test_plan_cache_speedup(benchmark):
    workload = cached_workload(**WORKLOAD)
    db = workload.database
    planner = db.planner
    k = workload.config.k

    def execute(entry):
        context = ExecutionContext(
            db.catalog, entry.spec.scoring, evaluators=entry.evaluators
        )
        out = run_plan(entry.plan.build(), context, k=k)
        return [round(context.upper_bound(s), 9) for s in out]

    def cold():
        planner.invalidate()
        entry, hit = planner.prepare(workload.spec)
        assert not hit
        return execute(entry)

    def warm():
        entry, hit = planner.prepare(workload.spec)
        assert hit
        return execute(entry)

    cold_ms, cold_scores = _timed(cold, COLD_ROUNDS)
    warm()  # the last cold() primed the cache; keep it primed
    warm_ms, warm_scores = _timed(warm, WARM_ROUNDS)
    assert warm_scores == cold_scores  # identical results, identical tie order

    benchmark.pedantic(warm, rounds=WARM_ROUNDS, iterations=1)
    speedup = cold_ms / warm_ms
    benchmark.extra_info.update(
        cold_ms=cold_ms * 1e3,
        warm_ms=warm_ms * 1e3,
        speedup=speedup,
        cache_hits=planner.cache.stats.hits,
    )
    print(
        f"\nplan cache: cold={cold_ms * 1e3:.2f}ms warm={warm_ms * 1e3:.2f}ms "
        f"speedup={speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, f"warm path only {speedup:.1f}x faster"


def test_parameterized_template_reuse(benchmark):
    """Bind variables: one cached template plan serving many constants.

    PR 1's cache only amortized byte-identical statements; a workload that
    sweeps constants (every user their own price cap) re-planned on every
    query.  With ``:name`` placeholders the signature generalizes constants
    to slots, so the *whole sweep* shares one plan-cache entry: after the
    first (cold, bind-peeked) build the hit-rate is 1.0 and each run pays
    execution only — the same warm path the literal bench measures.
    """
    # The Fig. 9 shape (3 tables, 5 predicates) whose DP enumeration
    # dominates cold latency, parameterized on a score floor.
    db = cached_workload(**WORKLOAD).database
    template = (
        "SELECT * FROM A, B, C "
        "WHERE A.b AND B.b AND A.jc1 = B.jc1 AND B.jc2 = C.jc2 "
        "AND A.p1 <= :cap "
        "ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) + f5(C.p1) "
        "LIMIT 5"
    )
    # Sweep the cap through the contested range (top tuples have A.p1
    # near 1): tight caps exclude rows the unconstrained top-5 contains,
    # so bindings visibly change the answer while sharing one plan.
    bindings = [{"cap": 0.60 + 0.02 * i} for i in range(20)]

    def literal(binding):
        return template.replace(":cap", repr(binding["cap"]))

    # The binding both timed paths share (cold literal vs warm template).
    # The loosest cap keeps execution depth near the unconstrained case,
    # so the gate measures planning skipped rather than filter tightness.
    probe = bindings[-1]

    # Cold baseline: what every distinct-constant query pays without
    # parameters (literal texts never share a signature).
    def cold():
        db.planner.invalidate()
        return db.query(literal(probe))

    cold_ms, cold_result = _timed(cold, COLD_ROUNDS)

    # Build the template once, then sweep constants over the warm path.
    db.planner.invalidate()
    first = db.query(template, params=probe)
    assert not first.plan_cached  # the cold template build
    assert first.rows == cold_result.rows  # peeked plan, identical answer
    plans_before = db.planner.metrics.plans_built
    hits_before = db.planner.cache.stats.hits
    misses_before = db.planner.cache.stats.misses

    # Timed warm path: one binding, best-of-N (the literal bench's
    # measurement style — execution depth varies with cap tightness, so a
    # sweep average would fold the most expensive bindings into the gate).
    warm_ms, warm_result = _timed(
        lambda: db.query(template, params=probe), WARM_ROUNDS
    )
    assert warm_result.plan_cached
    assert warm_result.rows == cold_result.rows

    # Untimed sweep: every distinct constant must hit and stay correct.
    results = []
    for binding in bindings:
        result = db.query(template, params=binding)
        assert result.plan_cached
        results.append(result)

    # Every binding is execution-correct and the sweep built zero plans.
    for binding, result in zip(bindings, results):
        assert result.rows, f"no rows for {binding}"
        # column order follows the chosen join order: look up by name
        position = result.schema.index_of("A.p1")
        assert all(row[position] <= binding["cap"] for row in result.rows)
    assert results[0].rows != results[-1].rows  # bindings really differ
    assert db.planner.metrics.plans_built == plans_before
    hits = db.planner.cache.stats.hits - hits_before
    misses = db.planner.cache.stats.misses - misses_before
    hit_rate = hits / (hits + misses)
    assert hit_rate == 1.0, f"warm template hit-rate {hit_rate:.2f}"

    benchmark.pedantic(
        lambda: db.query(template, params=probe),
        rounds=WARM_ROUNDS,
        iterations=1,
    )
    speedup = cold_ms / warm_ms
    benchmark.extra_info.update(
        cold_ms=cold_ms * 1e3,
        warm_ms=warm_ms * 1e3,
        speedup=speedup,
        hit_rate=hit_rate,
        distinct_bindings=len(bindings),
    )
    print(
        f"\nparameterized template: cold={cold_ms * 1e3:.2f}ms "
        f"warm={warm_ms * 1e3:.2f}ms speedup={speedup:.1f}x "
        f"hit_rate={hit_rate:.2f} over {len(bindings)} bindings"
    )
    assert speedup >= MIN_SPEEDUP, f"warm template runs only {speedup:.1f}x faster"


def test_sql_session_warm_path(benchmark):
    """The SQL front-door equivalent: a session re-executing one statement."""
    db = build_demo_database(seed=7)
    sql = (
        "SELECT * FROM hotel, restaurant WHERE hotel.area = restaurant.area "
        "ORDER BY cheap(hotel.price) + tasty(restaurant.price) LIMIT 10"
    )
    session = db.session()

    def cold():
        db.planner.invalidate()
        return db.query(sql)

    cold_ms, cold_result = _timed(cold, COLD_ROUNDS)
    session.execute(sql)  # prime statement + plan cache
    warm_ms, warm_result = _timed(lambda: session.execute(sql), WARM_ROUNDS)
    assert warm_result.plan_cached
    assert warm_result.rows == cold_result.rows

    benchmark.pedantic(lambda: session.execute(sql), rounds=WARM_ROUNDS, iterations=1)
    benchmark.extra_info.update(
        cold_ms=cold_ms * 1e3,
        warm_ms=warm_ms * 1e3,
        hit_rate=db.planner.cache.stats.hit_rate,
    )
