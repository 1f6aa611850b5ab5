"""The §6 query Q end-to-end through the SQL front door.

The paper writes Q in PostgreSQL syntax; this test parses exactly that
shape, binds it against the generated workload, optimizes, executes and
checks against brute force — the complete RankSQL pipeline in one pass.
"""

import pytest

from repro.engine import Database
from repro.execution import ExecutionContext, run_plan
from repro.workloads import WorkloadConfig, build_workload

Q = """
SELECT * FROM A, B, C
WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 AND A.b AND B.b
ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) + f5(C.p1)
LIMIT 10
"""


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        WorkloadConfig(table_size=700, join_selectivity=0.01, seed=19, k=10)
    )


def brute_force(workload, k):
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
    return [round(v, 9) for v in scores[:k]]


class TestSection6QueryViaSQL:
    def test_binder_classifies_q(self, workload):
        spec = workload.database.bind(Q)
        assert spec.tables == ["A", "B", "C"]
        assert len(spec.join_conditions) == 2
        assert all(j.is_equi for j in spec.join_conditions)
        assert len(spec.selections) == 2  # A.b and B.b
        assert spec.scoring.predicate_names == ("f1", "f2", "f3", "f4", "f5")
        assert spec.k == 10

    def test_full_pipeline_correct(self, workload):
        result = workload.database.query(Q)
        assert [round(s, 9) for s in result.scores] == brute_force(workload, 10)

    def test_chosen_plan_is_rank_aware(self, workload):
        text = workload.database.explain(Q)
        assert "sort" not in text  # no blocking materialize-then-sort
        assert "HRJN" in text or "NRJN" in text

    def test_heuristic_optimizer_via_sql(self, workload):
        result = workload.database.query(
            Q, left_deep=True, greedy_mu=True
        )
        assert [round(s, 9) for s in result.scores] == brute_force(workload, 10)
