"""E9: optimizer quality on the §6 workload.

The paper's §6.1 motivates the optimizer by showing the hand-built plans
differ by orders of magnitude.  This bench closes the loop: the 2-D DP
optimizer (and its heuristic variant) must pick a plan that
is competitive with the best of the four Figure-11 hand plans — and far
better than the worst — measured by executed simulated cost.

Run:  pytest benchmarks/bench_optimizer_quality.py --benchmark-only -q -s
"""

from __future__ import annotations

import pytest

from repro.optimizer import RankAwareOptimizer, optimize_traditional
from repro.workloads import ALL_PLANS

from .conftest import cached_workload, execute, record

_costs: dict[str, float] = {}
_answers: dict[str, tuple] = {}


def _run_and_record(workload, plan, label):
    scores, metrics = execute(workload, plan, k=workload.config.k)
    _costs[label] = metrics.simulated_cost
    _answers[label] = tuple(round(s, 9) for s in scores)
    return scores, metrics


@pytest.mark.parametrize("plan_name", sorted(ALL_PLANS))
def test_hand_plans(benchmark, plan_name):
    workload = cached_workload()
    builder = ALL_PLANS[plan_name]
    __, metrics = benchmark.pedantic(
        lambda: _run_and_record(workload, builder(workload), plan_name),
        rounds=1,
        iterations=1,
    )
    record(benchmark, metrics, plan=plan_name)


@pytest.mark.parametrize("mode", ["dp", "dp_heuristic", "traditional"])
def test_optimizer_chosen(benchmark, mode):
    workload = cached_workload()

    def optimize_and_run():
        if mode == "dp":
            plan = RankAwareOptimizer(
                workload.catalog, workload.spec
            ).optimize()
        elif mode == "dp_heuristic":
            plan = RankAwareOptimizer(
                workload.catalog,
                workload.spec,
                left_deep=True,
                greedy_mu=True,
            ).optimize()
        else:
            plan = optimize_traditional(
                workload.catalog, workload.spec
            )
        return _run_and_record(workload, plan, mode)

    __, metrics = benchmark.pedantic(optimize_and_run, rounds=1, iterations=1)
    record(benchmark, metrics, mode=mode)


def test_quality_report(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    needed = {"plan1", "plan2", "plan3", "plan4", "dp", "dp_heuristic"}
    if not needed <= set(_costs):
        pytest.skip("run the parametrized cases first")
    print("\nE9: executed simulated cost, hand plans vs optimizer choices")
    for label in ("plan1", "plan2", "plan3", "plan4", "dp", "dp_heuristic",
                  "traditional"):
        if label in _costs:
            print(f"  {label:<14} {_costs[label]:>12.0f}")
    # All strategies answer identically.
    reference = _answers["plan2"]
    for label, answer in _answers.items():
        assert answer == reference, f"{label} returned different answers"
    best_hand = min(_costs[p] for p in ("plan1", "plan2", "plan3", "plan4"))
    worst_hand = max(_costs[p] for p in ("plan1", "plan2", "plan3", "plan4"))
    # The DP optimizer's choice must be near the best hand plan...
    assert _costs["dp"] <= best_hand * 3
    # ... and dramatically better than the worst (the traditional shape).
    assert _costs["dp"] * 5 < worst_hand
