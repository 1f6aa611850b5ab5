"""The execution regime never changes the plan shape.

The DP enumerates row plans only, and the regime is a post-pass that may
swap a sort-topped segment for its compiled twin.  So the plan prepared
under ``execution="auto"``, with its compiled-segment wrappers removed,
must be exactly the plan prepared under ``execution="row"`` — on the §6
statements S1–S3 at every k, under both strategies, and for a
parameterized template.  Traditional picks carry exactly one compiled
segment (the sort over the whole join), rank-aware picks none.
"""

from __future__ import annotations

import pytest

from repro.optimizer.plans import BatchSegmentPlan
from repro.workloads import WorkloadConfig, build_workload

SHAPES = {
    "S1": "SELECT * FROM A WHERE A.b{extra} "
          "ORDER BY f1(A.p1) + f2(A.p2) LIMIT {k}",
    "S2": "SELECT * FROM A, B WHERE A.b AND A.jc1 = B.jc1{extra} "
          "ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) LIMIT {k}",
    "S3": "SELECT * FROM A, B, C WHERE A.b AND B.b AND A.jc1 = B.jc1 "
          "AND B.jc2 = C.jc2{extra} ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) "
          "+ f4(B.p2) + f5(C.p1) LIMIT {k}",
}

STRATEGIES = ("rank-aware", "traditional")


@pytest.fixture(scope="module")
def db():
    """The §6 tables at the scale the perf ledger runs them."""
    config = WorkloadConfig(table_size=2000, join_selectivity=0.005, seed=42)
    return build_workload(config).database


def unwrapped_fingerprint(plan) -> str:
    """The plan's fingerprint with every compiled segment replaced by the
    row subtree it wraps."""
    if isinstance(plan, BatchSegmentPlan):
        plan = plan.inner
    if not plan.children:
        return plan.label()
    inner = ",".join(unwrapped_fingerprint(child) for child in plan.children)
    return f"{plan.label()}({inner})"


def segments(entry) -> int:
    return sum(isinstance(node, BatchSegmentPlan) for node in entry.executable.walk())


def assert_same_shape(db, sql, strategy, params=None):
    auto, __ = db.planner.prepare(
        sql, strategy=strategy, params=params, execution="auto"
    )
    row, __ = db.planner.prepare(
        sql, strategy=strategy, params=params, execution="row"
    )
    assert segments(row) == 0
    assert unwrapped_fingerprint(auto.executable) == row.executable.fingerprint()
    if strategy == "traditional":
        assert segments(auto) == auto.compiled_segments == 1
        assert auto.regime() == "compiled"
    else:
        assert segments(auto) == auto.compiled_segments == 0
        assert auto.regime() == "row"


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("k", [1, 10, 100])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_auto_plan_is_the_row_plan(db, shape, k, strategy):
    assert_same_shape(db, SHAPES[shape].format(k=k, extra=""), strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_parameterized_template_keeps_its_shape(db, strategy):
    sql = SHAPES["S1"].format(k=10, extra=" AND A.p1 <= :cap")
    assert_same_shape(db, sql, strategy, params={"cap": 0.95})
