"""The four hand-built execution plans of Figure 11.

These are the plans the paper's §6.1 experiments execute for query Q:

* **plan1** — the traditional materialize-then-sort plan: interesting-order
  index scans, filters, two sort-merge joins, blocking sort on the complete
  scoring function.
* **plan2** — the fully rank-aware plan: rank-scans on every predicate's
  index, µ operators scheduled before the joins, two HRJN rank-joins.
* **plan3** — like plan2 but accesses B by sequential scan, evaluating both
  of B's predicates with µ operators.
* **plan4** — hybrid: a normal sort-merge join of A and B with the four µ
  operators applied above it, then an HRJN with C's rank-scan.

Each builder takes a :class:`~repro.workloads.generator.Workload` and
returns a :class:`~repro.optimizer.plans.PlanNode` (topped by λ_k).
"""

from __future__ import annotations

from ..algebra.predicates import BooleanPredicate
from ..optimizer.plans import (
    ColumnOrderScanPlan,
    FilterPlan,
    HRJNPlan,
    LimitPlan,
    MuPlan,
    PlanNode,
    RankScanPlan,
    SeqScanPlan,
    SortMergeJoinPlan,
    SortPlan,
)
from .generator import Workload


def _selection(workload: Workload, name: str) -> BooleanPredicate:
    for condition in workload.spec.selections:
        if condition.name == name:
            return condition
    raise KeyError(f"no selection {name!r} in workload")


def plan1(workload: Workload, k: int | None = None) -> PlanNode:
    """Traditional plan: SMJ ⋈ SMJ under a blocking sort (Figure 11a)."""
    k = workload.config.k if k is None else k
    a = FilterPlan(ColumnOrderScanPlan("A", "A.jc1"), _selection(workload, "A.b"))
    b = FilterPlan(ColumnOrderScanPlan("B", "B.jc1"), _selection(workload, "B.b"))
    ab = SortMergeJoinPlan(a, b, "A.jc1", "B.jc1")
    c = ColumnOrderScanPlan("C", "C.jc2")
    abc = SortMergeJoinPlan(ab, c, "B.jc2", "C.jc2")
    ranked = SortPlan(abc, frozenset(workload.scoring.predicate_names))
    return LimitPlan(ranked, k)


def plan2(workload: Workload, k: int | None = None) -> PlanNode:
    """Fully rank-aware plan: rank-scans, µ before joins, HRJN (Figure 11b)."""
    k = workload.config.k if k is None else k
    a = MuPlan(FilterPlan(RankScanPlan("A", "f1"), _selection(workload, "A.b")), "f2")
    b = MuPlan(FilterPlan(RankScanPlan("B", "f3"), _selection(workload, "B.b")), "f4")
    ab = HRJNPlan(a, b, "A.jc1", "B.jc1")
    c = RankScanPlan("C", "f5")
    abc = HRJNPlan(ab, c, "B.jc2", "C.jc2")
    return LimitPlan(abc, k)


def plan3(workload: Workload, k: int | None = None) -> PlanNode:
    """Plan2 with B accessed by sequential scan + µ_f3 µ_f4 (Figure 11c)."""
    k = workload.config.k if k is None else k
    a = MuPlan(FilterPlan(RankScanPlan("A", "f1"), _selection(workload, "A.b")), "f2")
    b = MuPlan(
        MuPlan(FilterPlan(SeqScanPlan("B"), _selection(workload, "B.b")), "f3"),
        "f4",
    )
    ab = HRJNPlan(a, b, "A.jc1", "B.jc1")
    c = RankScanPlan("C", "f5")
    abc = HRJNPlan(ab, c, "B.jc2", "C.jc2")
    return LimitPlan(abc, k)


def plan4(workload: Workload, k: int | None = None) -> PlanNode:
    """Hybrid plan: µ's above a sort-merge join of A⋈B, HRJN with C
    (Figure 11d)."""
    k = workload.config.k if k is None else k
    a = FilterPlan(ColumnOrderScanPlan("A", "A.jc1"), _selection(workload, "A.b"))
    b = FilterPlan(ColumnOrderScanPlan("B", "B.jc1"), _selection(workload, "B.b"))
    ab = SortMergeJoinPlan(a, b, "A.jc1", "B.jc1")
    ranked = ab
    for predicate_name in ("f1", "f2", "f3", "f4"):
        ranked = MuPlan(ranked, predicate_name)
    c = RankScanPlan("C", "f5")
    abc = HRJNPlan(ranked, c, "B.jc2", "C.jc2")
    return LimitPlan(abc, k)


ALL_PLANS = {
    "plan1": plan1,
    "plan2": plan2,
    "plan3": plan3,
    "plan4": plan4,
}
