"""Shared benchmark fixtures and helpers.

Scale note (``docs/architecture.md`` quotes results "at default bench
scale" — this is that scale): the paper ran on PostgreSQL with tables of
10k–1M rows; a pure-Python engine is ~100–1000× slower per tuple, so the
default benchmark scale divides table sizes by 50 while *preserving the
join fanout* ``j × s`` (the quantity that shapes the Figure 12 curves).
Every bench records, besides wall time, the deterministic simulated cost
and the headline operation counts, which is what the paper's shapes are
made of.

Machine-readable results: every case recorded through :func:`record` /
:func:`record_result` is also appended to a session-wide list that is
written to ``BENCH_results.json`` (override with the
``BENCH_RESULTS_PATH`` env var) when the benchmark session ends — CI
uploads it as an artifact so the perf trajectory is diffable across runs.
"""

from __future__ import annotations

import json
import os
import platform
import time

import pytest

from repro.execution import ExecutionContext, run_plan
from repro.workloads import WorkloadConfig, Workload, build_workload

#: default benchmark scale (paper: s = 100_000, j = 1e-4 → fanout 10)
BENCH_TABLE_SIZE = 2000
BENCH_JOIN_SELECTIVITY = 0.005  # same fanout j*s = 10 at the reduced scale
BENCH_K = 10

_workload_cache: dict[tuple, Workload] = {}

#: session-wide machine-readable results (written at sessionfinish)
_bench_results: list[dict] = []


def cached_workload(**overrides) -> Workload:
    """Build (and memoize) a workload for a parameter combination."""
    config = WorkloadConfig(
        table_size=overrides.pop("table_size", BENCH_TABLE_SIZE),
        join_selectivity=overrides.pop("join_selectivity", BENCH_JOIN_SELECTIVITY),
        predicate_cost=overrides.pop("predicate_cost", 1.0),
        k=overrides.pop("k", BENCH_K),
        seed=overrides.pop("seed", 42),
    )
    if overrides:
        raise TypeError(f"unknown workload overrides: {sorted(overrides)}")
    key = (
        config.table_size,
        config.join_selectivity,
        config.predicate_cost,
        config.k,
        config.seed,
    )
    if key not in _workload_cache:
        _workload_cache[key] = build_workload(config)
    return _workload_cache[key]


def execute(workload: Workload, plan_node, k=None):
    """Run a plan to its k results; return (scores, metrics)."""
    context = ExecutionContext(workload.catalog, workload.scoring)
    out = run_plan(plan_node.build(), context, k=k)
    scores = [context.upper_bound(s) for s in out]
    return scores, context.metrics


def record(benchmark, metrics, **extra) -> None:
    """Attach the paper-relevant counters to the benchmark record (and the
    session's machine-readable results)."""
    benchmark.extra_info.update(metrics.summary())
    benchmark.extra_info.update(extra)
    entry = {"name": getattr(benchmark, "name", None)}
    try:  # wall stats exist only when pytest-benchmark timing is enabled
        entry["wall_seconds"] = benchmark.stats.stats.mean
    except Exception:
        pass
    entry.update(metrics.summary())
    entry.update(extra)
    record_result(**entry)


def record_result(name=None, **fields) -> None:
    """Append one case to the session's ``BENCH_results.json`` payload.

    ``fields`` should at least carry a wall time (``wall_seconds``) and/or
    the simulated cost so the artifact is useful on its own.
    """
    entry = {"name": name}
    entry.update(fields)
    _bench_results.append(entry)


def bench_results_path() -> str:
    return os.environ.get("BENCH_RESULTS_PATH", "BENCH_results.json")


def pytest_sessionfinish(session, exitstatus):
    """Write every recorded case to the machine-readable results file."""
    if not _bench_results:
        return
    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "results": _bench_results,
    }
    with open(bench_results_path(), "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")


@pytest.fixture(scope="session")
def default_workload() -> Workload:
    return cached_workload()
