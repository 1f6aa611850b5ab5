"""Figure 9 / §5.1: plan enumeration — exhaustive 2-D DP vs heuristics.

Regenerates the enumeration behaviour of Example 5 (R ⋈ S with predicates
p1, p3, p4) and of the full §6 query (3 tables, 5 predicates):

* signatures memoized by the 2-dimensional DP,
* plans generated with and without the Figure 10 heuristics (left-deep +
  greedy µ scheduling),
* optimization wall time,
* and that the chosen plans answer the query identically.

Run:  pytest benchmarks/bench_fig9_optimizer.py --benchmark-only -q -s
"""

from __future__ import annotations

import pytest

from repro.execution import ExecutionContext, run_plan
from repro.optimizer import RankAwareOptimizer

from .conftest import cached_workload

CONFIGS = {
    "exhaustive": dict(left_deep=False, greedy_mu=False),
    "heuristic": dict(left_deep=True, greedy_mu=True),
}

_stats: dict[str, dict] = {}


@pytest.mark.parametrize("mode", sorted(CONFIGS))
def test_fig9_enumeration(benchmark, mode):
    workload = cached_workload()

    def optimize():
        optimizer = RankAwareOptimizer(
            workload.catalog,
            workload.spec,
            **CONFIGS[mode],
        )
        plan = optimizer.optimize()
        return optimizer, plan

    optimizer, plan = benchmark.pedantic(optimize, rounds=1, iterations=1)
    context = ExecutionContext(workload.catalog, workload.scoring)
    out = run_plan(plan.build(), context, k=workload.config.k)
    scores = tuple(round(context.upper_bound(s), 9) for s in out)
    _stats[mode] = {
        "plans_generated": optimizer.plans_generated,
        "signatures": len(optimizer.memo),
        "scores": scores,
    }
    benchmark.extra_info["plans_generated"] = optimizer.plans_generated
    benchmark.extra_info["signatures"] = len(optimizer.memo)
    assert len(out) == workload.config.k


def test_fig9_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # keep visible under --benchmark-only
    if len(_stats) < 2:
        pytest.skip("run the parametrized cases first")
    print("\nFigure 9 / §5.1: enumeration effort (3 tables, 5 predicates)")
    print(f"{'mode':<12} {'plans generated':>16} {'signatures':>12}")
    for mode, stats in sorted(_stats.items()):
        print(f"{mode:<12} {stats['plans_generated']:>16} {stats['signatures']:>12}")
    # Heuristics must shrink the explored space...
    assert (
        _stats["heuristic"]["plans_generated"]
        < _stats["exhaustive"]["plans_generated"]
    )
    # ... while producing a plan with the same answers.
    assert _stats["heuristic"]["scores"] == _stats["exhaustive"]["scores"]
