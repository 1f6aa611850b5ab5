"""Ablation benchmarks for the operator-level design choices of the
engine ``docs/architecture.md`` maps.

* **Rank-scan vs seq-scan + µ** (plan2 vs plan3's B-side): how much the
  precomputed index order saves.
* **HRJN vs NRJN** on the same equi-join.
* **Sampling ratio** for the cardinality estimator: accuracy of the cutoff
  x' as the sample grows.

Run:  pytest benchmarks/bench_ablation.py --benchmark-only -q -s
"""

from __future__ import annotations

import math

import pytest

from repro.algebra.expressions import col
from repro.algebra.predicates import BooleanPredicate
from repro.execution import ExecutionContext, run_plan
from repro.optimizer import (
    CardinalityEstimator,
    HRJNPlan,
    LimitPlan,
    MuPlan,
    NRJNPlan,
    RankScanPlan,
    SampleDatabase,
    SeqScanPlan,
)
from repro.workloads import plan2

from .conftest import cached_workload, execute, record


class TestAccessPathAblation:
    """Rank-scan vs seq-scan+µ for the same single-table signature."""

    @pytest.mark.parametrize("access", ["rank_scan", "seqscan_mu"])
    def test_access_path(self, benchmark, access):
        workload = cached_workload()
        if access == "rank_scan":
            plan = LimitPlan(MuPlan(RankScanPlan("A", "f1"), "f2"), 50)
        else:
            plan = LimitPlan(MuPlan(MuPlan(SeqScanPlan("A"), "f1"), "f2"), 50)

        def run():
            return execute(workload, plan, k=50)

        scores, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
        record(benchmark, metrics, access=access)
        assert len(scores) == 50

    def test_rank_scan_cheaper(self):
        workload = cached_workload()
        __, with_index = execute(
            workload, LimitPlan(MuPlan(RankScanPlan("A", "f1"), "f2"), 50), k=50
        )
        scores_a, __ = execute(
            workload, LimitPlan(MuPlan(RankScanPlan("A", "f1"), "f2"), 50), k=50
        )
        __, without_index = execute(
            workload,
            LimitPlan(MuPlan(MuPlan(SeqScanPlan("A"), "f1"), "f2"), 50),
            k=50,
        )
        scores_b, __ = execute(
            workload,
            LimitPlan(MuPlan(MuPlan(SeqScanPlan("A"), "f1"), "f2"), 50),
            k=50,
        )
        assert [round(s, 9) for s in scores_a] == [round(s, 9) for s in scores_b]
        assert with_index.simulated_cost < without_index.simulated_cost


class TestJoinAlgorithmAblation:
    """HRJN vs NRJN on the identical equi-join."""

    def build(self, workload, algorithm):
        a_side = MuPlan(RankScanPlan("A", "f1"), "f2")
        b_side = MuPlan(RankScanPlan("B", "f3"), "f4")
        if algorithm == "hrjn":
            join = HRJNPlan(a_side, b_side, "A.jc1", "B.jc1")
        else:
            condition = BooleanPredicate(
                col("A.jc1").eq(col("B.jc1")), "A.jc1=B.jc1"
            )
            join = NRJNPlan(a_side, b_side, condition)
        return LimitPlan(join, workload.config.k)

    @pytest.mark.parametrize("algorithm", ["hrjn", "nrjn"])
    def test_join_algorithm(self, benchmark, algorithm):
        workload = cached_workload()
        plan = self.build(workload, algorithm)

        def run():
            return execute(workload, plan, k=workload.config.k)

        __, metrics = benchmark.pedantic(run, rounds=1, iterations=1)
        record(benchmark, metrics, algorithm=algorithm)

    def test_same_answers_hrjn_cheaper_pairs(self):
        workload = cached_workload()
        scores_h, metrics_h = execute(
            workload, self.build(workload, "hrjn"), k=workload.config.k
        )
        scores_n, metrics_n = execute(
            workload, self.build(workload, "nrjn"), k=workload.config.k
        )
        assert [round(s, 9) for s in scores_h] == [round(s, 9) for s in scores_n]
        # NRJN examines every buffered pair; HRJN only hash-colliding ones.
        assert metrics_h.join_pairs_examined < metrics_n.join_pairs_examined


class TestSelectionScheduling:
    """2-D vs 3-D enumeration with an expensive Boolean filter (§5.1
    extension): scheduling should defer the filter and cut its cost."""

    def build_spec(self, workload, filter_cost=200.0):
        from repro.optimizer import QuerySpec

        expensive = BooleanPredicate(
            col("A.jc2") < workload.config.distinct_join_values,
            "A.expensive_check",
            cost=filter_cost,
        )
        spec = workload.spec
        return QuerySpec(
            tables=spec.tables,
            scoring=spec.scoring,
            k=spec.k,
            selections=spec.selections + [expensive],
            join_conditions=spec.join_conditions,
        )

    @pytest.mark.parametrize("dimensions", ["2d", "3d"])
    def test_enumeration_dimensions(self, benchmark, dimensions):
        from repro.optimizer import RankAwareOptimizer

        workload = cached_workload(table_size=600)
        spec = self.build_spec(workload)

        def optimize_and_run():
            optimizer = RankAwareOptimizer(
                workload.catalog,
                spec,
                left_deep=True,
                enumerate_selections=(dimensions == "3d"),
            )
            plan = optimizer.optimize()
            return execute(workload, plan, k=spec.k)

        __, metrics = benchmark.pedantic(optimize_and_run, rounds=1, iterations=1)
        record(benchmark, metrics, dimensions=dimensions)
        print(
            f"\n{dimensions}: boolean_cost={metrics.boolean_cost_units:.0f} "
            f"total={metrics.simulated_cost:.0f}"
        )

    def test_3d_no_worse(self):
        from repro.optimizer import RankAwareOptimizer

        workload = cached_workload(table_size=600)
        spec = self.build_spec(workload)
        costs = {}
        for flag in (False, True):
            optimizer = RankAwareOptimizer(
                workload.catalog,
                spec,
                left_deep=True,
                enumerate_selections=flag,
            )
            plan = optimizer.optimize()
            __, metrics = execute(workload, plan, k=spec.k)
            costs[flag] = metrics.simulated_cost
        assert costs[True] <= costs[False] * 1.05


class TestSamplingRatio:
    """Cutoff-estimation accuracy vs sampling ratio (§5.2 / §6.2)."""

    def true_cutoff(self, workload):
        catalog = workload.catalog
        a_rows = [r.values for r in catalog.table("A").rows() if r.values[2]]
        b_rows = [r.values for r in catalog.table("B").rows() if r.values[2]]
        c_rows = [r.values for r in catalog.table("C").rows()]
        b_by = {}
        for row in b_rows:
            b_by.setdefault(row[0], []).append(row)
        c_by = {}
        for row in c_rows:
            c_by.setdefault(row[1], []).append(row)
        scores = []
        for a in a_rows:
            for b in b_by.get(a[0], ()):
                for c in c_by.get(b[1], ()):
                    scores.append(a[3] + a[4] + b[3] + b[4] + c[3])
        scores.sort(reverse=True)
        return scores[workload.config.k - 1]

    @pytest.mark.parametrize("ratio", [0.02, 0.05, 0.1, 0.25])
    def test_cutoff_accuracy(self, benchmark, ratio):
        workload = cached_workload()
        truth = self.true_cutoff(workload)

        def estimate():
            estimator = CardinalityEstimator(
                workload.catalog,
                workload.spec,
                sample=SampleDatabase(workload.catalog, ratio=ratio, seed=5),
            )
            return estimator.cutoff

        cutoff = benchmark.pedantic(estimate, rounds=1, iterations=1)
        error = abs(cutoff - truth) if math.isfinite(cutoff) else float("inf")
        benchmark.extra_info.update(
            {"ratio": ratio, "cutoff": cutoff, "truth": truth, "abs_error": error}
        )
        print(
            f"\nratio={ratio:.2f}: x'={cutoff if math.isfinite(cutoff) else '-inf'} "
            f"true x={truth:.3f}"
        )
        if ratio >= 0.1:
            # A decent sample must land within one predicate's range.
            assert error < 1.0
