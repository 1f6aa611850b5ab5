"""The morsel pool subsystem: ordered gather, knobs, backends, the DOP-1
lazy walk — and the metrics contract (parallel ``charge_*`` totals equal
serial totals).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.algebra.expressions import col
from repro.algebra.predicates import BooleanPredicate
from repro.engine.result import Cursor
from repro.execution import ExecutionContext, run_plan
from repro.execution import morsels
from repro.execution.metrics import ExecutionMetrics
from repro.optimizer.plans import (
    FilterPlan,
    HashJoinPlan,
    LimitPlan,
    NestedLoopJoinPlan,
    ProjectPlan,
    SeqScanPlan,
    SortPlan,
    lower_to_batch,
)
from repro.planner.cache import strip_limit
from repro.workloads import ALL_PLANS, WorkloadConfig, build_workload, plan1


# ----------------------------------------------------------------------
# knobs
# ----------------------------------------------------------------------


class TestKnobs:
    def test_default_morsel_size(self, monkeypatch):
        monkeypatch.delenv("REPRO_MORSEL_SIZE", raising=False)
        assert morsels.morsel_size() == morsels.MORSEL_SIZE_DEFAULT

    def test_morsel_size_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MORSEL_SIZE", "128")
        assert morsels.morsel_size() == 128

    @pytest.mark.parametrize("bad", ["zero", "", "0", "-4"])
    def test_morsel_size_rejects_junk(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_MORSEL_SIZE", bad)
        with pytest.raises(ValueError, match="REPRO_MORSEL_SIZE"):
            morsels.morsel_size()

    def test_default_backend_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_BACKEND", raising=False)
        assert morsels.parallel_backend() == "thread"

    def test_backend_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
        assert morsels.parallel_backend() == "process"

    def test_backend_rejects_junk(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "gpu")
        with pytest.raises(ValueError, match="REPRO_PARALLEL_BACKEND"):
            morsels.parallel_backend()

    def test_hardware_parallelism_positive(self):
        assert morsels.hardware_parallelism() >= 1


# ----------------------------------------------------------------------
# the shared pool
# ----------------------------------------------------------------------


class TestSharedPool:
    def test_pool_is_a_singleton(self):
        assert morsels.shared_pool() is morsels.shared_pool()

    def test_pool_has_at_least_two_workers(self):
        # Single-core hosts still get real concurrency (and real races,
        # which the determinism tests must survive).
        assert morsels.shared_pool()._max_workers >= 2

    def test_pool_summary_keys(self):
        summary = morsels.pool_summary()
        assert set(summary) == {"morsel_pool_started", "morsel_pool_workers"}
        assert summary["morsel_pool_workers"] >= 2


# ----------------------------------------------------------------------
# ordered task execution
# ----------------------------------------------------------------------


class TestRunTasks:
    def test_serial_path_runs_inline(self):
        thread_ids = []

        def task():
            thread_ids.append(threading.get_ident())
            return len(thread_ids)

        assert list(morsels.run_tasks([task, task], dop=1)) == [1, 2]
        assert set(thread_ids) == {threading.get_ident()}

    def test_results_arrive_in_task_order(self):
        # Earlier tasks sleep longer: completion order is the reverse of
        # submission order, yet the gather must restore task order.
        def make(index, delay):
            def task():
                time.sleep(delay)
                return index

            return task

        tasks = [make(i, delay=(8 - i) * 0.002) for i in range(8)]
        assert list(morsels.run_tasks(tasks, dop=4, backend="thread")) == list(
            range(8)
        )

    def test_window_bounds_in_flight_tasks(self):
        active = 0
        peak = 0
        lock = threading.Lock()

        def task():
            nonlocal active, peak
            with lock:
                active += 1
                peak = max(peak, active)
            time.sleep(0.002)
            with lock:
                active -= 1

        list(morsels.run_tasks([task] * 12, dop=3, backend="thread"))
        assert peak <= 3

    def test_exception_surfaces_in_task_order(self):
        seen = []

        def ok(i):
            def task():
                seen.append(i)
                return i

            return task

        def boom():
            raise RuntimeError("morsel 2 failed")

        # Thread backend pinned: the windowed gather yields completed
        # results up to the failing task, then raises in task order.
        results = morsels.run_tasks(
            [ok(0), ok(1), boom, ok(3)], dop=2, backend="thread"
        )
        gathered = []
        with pytest.raises(RuntimeError, match="morsel 2 failed"):
            for value in results:
                gathered.append(value)
        assert gathered == [0, 1]

    def test_lazy_generator_semantics(self):
        # Serial mode must stay lazy: nothing runs until consumed.
        ran = []
        results = morsels.run_tasks([lambda: ran.append(1)], dop=1)
        assert ran == []
        list(results)
        assert ran == [1]


@pytest.mark.skipif(not morsels.fork_available(), reason="no fork on platform")
class TestForkBackend:
    def test_forked_results_in_task_order(self):
        def make(index):
            def task():
                return index * index

            return task

        tasks = [make(i) for i in range(6)]
        assert list(morsels.run_tasks(tasks, dop=3, backend="process")) == [
            i * i for i in range(6)
        ]

    def test_forked_closures_need_no_pickling(self):
        # Closures over unpicklable state (a lock) work: workers inherit
        # them through fork, only results cross the pipe.
        lock = threading.Lock()

        def task():
            with lock:
                return 7

        assert list(morsels.run_tasks([task, task], dop=2, backend="process")) == [
            7,
            7,
        ]


# ----------------------------------------------------------------------
# the metrics contract: parallel totals == serial totals
# ----------------------------------------------------------------------


def _drain_with_metrics(workload, plan_node) -> tuple[list, ExecutionMetrics]:
    context = ExecutionContext(workload.catalog, workload.scoring)
    out = run_plan(plan_node.build(), context)
    rows = [(s.row.rid, s.row.values, dict(s.scores)) for s in out]
    return rows, context.metrics


def _selection(workload, name):
    return next(c for c in workload.spec.selections if c.name == name)


def _hash_project_sort(workload):
    """σ(A) ⋈_hash σ(B) ⋈_hash C, projected to the scored columns, sorted."""
    a = FilterPlan(SeqScanPlan("A"), _selection(workload, "A.b"))
    b = FilterPlan(SeqScanPlan("B"), _selection(workload, "B.b"))
    abc = HashJoinPlan(
        HashJoinPlan(a, b, "A.jc1", "B.jc1"), SeqScanPlan("C"), "B.jc2", "C.jc2"
    )
    scored = ProjectPlan(abc, ("C.p1", "B.p2", "B.p1", "A.p2", "A.p1"))
    everything = frozenset(workload.scoring.predicate_names)
    return LimitPlan(SortPlan(scored, everything), workload.config.k)


def _nested_loop_sort(workload):
    """σ(A) ⋈_{A.jc1 < B.jc1} σ(B) by nested loops, ⋈_hash C, sorted."""
    a = FilterPlan(SeqScanPlan("A"), _selection(workload, "A.b"))
    b = FilterPlan(SeqScanPlan("B"), _selection(workload, "B.b"))
    condition = BooleanPredicate(col("A.jc1") < col("B.jc1"), "A.jc1<B.jc1")
    abc = HashJoinPlan(
        NestedLoopJoinPlan(a, b, condition), SeqScanPlan("C"), "B.jc2", "C.jc2"
    )
    everything = frozenset(workload.scoring.predicate_names)
    return LimitPlan(SortPlan(abc, everything), workload.config.k)


#: the §6.1 plans plus segments reaching the hash join, the nested-loop
#: join and the projection
SEGMENT_PLANS = {
    **ALL_PLANS,
    "hash_project_sort": _hash_project_sort,
    "nested_loop_sort": _nested_loop_sort,
}


@pytest.mark.parametrize("plan_name", sorted(SEGMENT_PLANS))
def test_parallel_charge_totals_equal_serial(plan_name, monkeypatch):
    """The satellite regression: for fully-drained queries, every
    ``charge_*`` counter and every per-operator in/out cardinality must be
    identical whether morsels ran serially or at DOP 8."""
    monkeypatch.setenv("REPRO_MORSEL_SIZE", "64")
    workload = build_workload(
        WorkloadConfig(table_size=200, join_selectivity=0.02, k=8, seed=7)
    )
    serial_rows, serial = _drain_with_metrics(
        workload, lower_to_batch(SEGMENT_PLANS[plan_name](workload))
    )
    parallel_rows, parallel = _drain_with_metrics(
        workload, lower_to_batch(SEGMENT_PLANS[plan_name](workload), parallelism=8)
    )
    assert parallel_rows == serial_rows
    assert parallel.summary() == serial.summary()
    serial_ops = {
        name: (s.tuples_in, s.tuples_out) for name, s in serial.operators.items()
    }
    parallel_ops = {
        name: (s.tuples_in, s.tuples_out) for name, s in parallel.operators.items()
    }
    assert parallel_ops == serial_ops


# ----------------------------------------------------------------------
# DOP 1: the chain is walked lazily, one batch per pull
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def multi_batch_workload():
    """3000-row tables: every scan spans several batches."""
    return build_workload(
        WorkloadConfig(table_size=3000, join_selectivity=0.002, k=8, seed=7)
    )


def _operator_counts(metrics: ExecutionMetrics) -> dict:
    return {
        name: (s.tuples_in, s.tuples_out) for name, s in metrics.operators.items()
    }


@pytest.mark.parametrize("morsel_size", [None, "64"])
def test_dop1_cursor_over_sort_segment_pulls_one_batch(
    multi_batch_workload, morsel_size, monkeypatch
):
    """A cursor fetching 3 rows of plan 1's lowered sort segment: the
    blocking phases run whole, the sorted output is served one batch at a
    time, and the morsel size plays no part at DOP 1."""
    if morsel_size is None:
        monkeypatch.delenv("REPRO_MORSEL_SIZE", raising=False)
    else:
        monkeypatch.setenv("REPRO_MORSEL_SIZE", morsel_size)
    workload = multi_batch_workload
    segment = strip_limit(lower_to_batch(plan1(workload)))
    context = ExecutionContext(workload.catalog, workload.scoring)
    cursor = Cursor(segment.build(), context, workload.scoring, segment)
    assert len(cursor.fetch_many(3)) == 3
    cursor.close()
    assert context.metrics.summary() == pytest.approx(
        {
            "tuples_scanned": 9000,
            "tuples_moved": 31603,
            "predicate_evaluations": 82100,
            "predicate_cost_units": 82100.0,
            "boolean_evaluations": 6000,
            "boolean_cost_units": 600.0,
            "join_pairs_examined": 19215,
            "comparisons": 263444,
            "simulated_cost": 99757.59,
        }
    )
    assert _operator_counts(context.metrics) == {
        "batch[batchSort]": (1024, 3),
        "batchSort": (16420, 1024),
        "batchSMJ(B.jc2=C.jc2)": (5795, 16420),
        "batchSMJ(A.jc1=B.jc1)": (2364, 2795),
        "batchFilter(A.b)": (3000, 1194),
        "batchScan_A.jc1(A)": (0, 3000),
        "batchFilter(B.b)": (3000, 1170),
        "batchScan_B.jc1(B)": (0, 3000),
        "batchScan_C.jc2(C)": (0, 3000),
    }


@pytest.mark.parametrize("morsel_size", [None, "64"])
def test_dop1_limit_over_filter_scan_pulls_one_batch(
    multi_batch_workload, morsel_size, monkeypatch
):
    """A row λ_5 over a lowered σ(scan) segment stops after the first
    batch: one batch scanned, filtered and converted."""
    if morsel_size is None:
        monkeypatch.delenv("REPRO_MORSEL_SIZE", raising=False)
    else:
        monkeypatch.setenv("REPRO_MORSEL_SIZE", morsel_size)
    workload = multi_batch_workload
    segment = lower_to_batch(
        FilterPlan(SeqScanPlan("A"), _selection(workload, "A.b"))
    )
    context = ExecutionContext(workload.catalog, workload.scoring)
    out = run_plan(LimitPlan(segment, 5).build(), context)
    assert len(out) == 5
    assert context.metrics.summary() == pytest.approx(
        {
            "tuples_scanned": 1024,
            "tuples_moved": 1450,
            "predicate_evaluations": 0,
            "predicate_cost_units": 0.0,
            "boolean_evaluations": 1024,
            "boolean_cost_units": 102.4,
            "join_pairs_examined": 0,
            "comparisons": 0,
            "simulated_cost": 1198.9,
        }
    )
    assert _operator_counts(context.metrics) == {
        "limit(5)": (5, 5),
        "batch[batchFilter(A.b)]": (421, 5),
        "batchFilter(A.b)": (1024, 421),
        "batchScan(A)": (0, 1024),
    }


def test_metrics_merge_sums_every_counter():
    a = ExecutionMetrics()
    a.charge_scan(5)
    a.charge_move(3)
    a.charge_predicate(2.0, 4)
    a.charge_boolean(6)
    a.charge_join_pair(7)
    a.charge_comparisons(8)
    a.stats_for("op").tuples_in += 10
    a.stats_for("op").wall_seconds += 0.5
    b = ExecutionMetrics()
    b.charge_scan(1)
    b.stats_for("op").tuples_out += 2
    b.stats_for("other").tuples_in += 3
    b.merge(a)
    assert b.tuples_scanned == 6
    assert b.tuples_moved == 3
    assert b.predicate_evaluations == 4
    assert b.predicate_cost_units == 8.0
    assert b.boolean_evaluations == 6
    assert b.join_pairs_examined == 7
    assert b.comparisons == 8
    assert b.stats_for("op").tuples_in == 10
    assert b.stats_for("op").tuples_out == 2
    assert b.stats_for("op").wall_seconds == 0.5
    assert b.stats_for("other").tuples_in == 3
