"""Which plans the optimizer picks on the paper's §6 tables (2,000 rows,
j = 0.005, data seed 42 — the perf ledger's dataset).

* **Stability.**  Under the §5.2 sampling estimator (the reproduced
  baseline, injected explicitly) every S1–S3 pick and its
  ``plans_generated`` are the ones that estimator always produced, so
  deriving plan identity at construction changed nothing.  Equal costs
  resolve on a stable key, never on generation order.
* **Quality.**  Under the engine's join-synopsis estimator the S3 pick is
  an incremental plan that costs no more than Fig. 11's Plan 2 in the
  engine's own units, every pick returns the answer of the
  materialise-then-sort plan run tuple at a time, and ``x'`` is finite
  whenever the synopsis estimates at least ``k`` answers.
"""

from collections import Counter

import pytest

from repro.optimizer import (
    CardinalityEstimator,
    ColumnOrderScanPlan,
    FilterPlan,
    HRJNPlan,
    LimitPlan,
    MuPlan,
    RankAwareOptimizer,
    RankScanPlan,
    SampleDatabase,
)
from repro.optimizer.enumeration import Candidate
from repro.optimizer.plans import (
    HashJoinPlan,
    NestedLoopJoinPlan,
    SortMergeJoinPlan,
    SortPlan,
)
from repro.storage import ColumnIndex
from repro.workloads import WorkloadConfig, build_workload, plan2

SHAPES = {
    "S1": "SELECT * FROM A WHERE A.b ORDER BY f1(A.p1) + f2(A.p2) LIMIT {k}",
    "S2": "SELECT * FROM A, B WHERE A.b AND A.jc1 = B.jc1 "
          "ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) LIMIT {k}",
    "S3": "SELECT * FROM A, B, C WHERE A.b AND B.b AND A.jc1 = B.jc1 "
          "AND B.jc2 = C.jc2 ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) "
          "+ f4(B.p2) + f5(C.p1) LIMIT {k}",
}
KS = (1, 10, 100)

#: the §5.2 estimator's picks (0.1 % sample, seed 0) below ``limit(k)``,
#: and the plans the DP generated for them
SECTION_5_2_PICKS = {
    ("rank-aware", "S1"): (
        "rank_f1(filter(A.b)(idxScan_f2(A)))", 7),
    ("rank-aware", "S2"): (
        "rank_f1(HRJN(A.jc1=B.jc1)(filter(A.b)(idxScan_f2(A)),"
        "idxScan_f3(B)))", 56),
    ("rank-aware", "S3"): (
        "rank_f1(rank_f3(HRJN(A.jc1=B.jc1)(filter(A.b)(idxScan_f2(A)),"
        "HRJN(B.jc2=C.jc2)(filter(B.b)(idxScan_f4(B)),idxScan_f5(C)))))", 501),
    ("traditional", "S1"): ("sort(filter(A.b)(seqScan(A)))", 1),
    ("traditional", "S2"): (
        "sort(hashJoin(A.jc1=B.jc1)(filter(A.b)(seqScan(A)),seqScan(B)))", 8),
    ("traditional", "S3"): (
        "sort(hashJoin(C.jc2=B.jc2)(seqScan(C),hashJoin(A.jc1=B.jc1)("
        "filter(A.b)(seqScan(A)),filter(B.b)(seqScan(B)))))", 27),
}

#: the one §5.2 pick that won a cost tie on generation order (every
#: rank-aware plan's estimate is the full table at a -inf cutoff); the
#: stable tie-break now picks the left-deep twin of the same cost
TIED = {("rank-aware", "S3")}


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        WorkloadConfig(table_size=2000, join_selectivity=0.005, seed=42)
    )


@pytest.fixture(scope="module")
def db(workload):
    return workload.database


def statement(shape, k):
    return SHAPES[shape].format(k=k)


def section_5_2_optimizer(db, spec, strategy):
    sample = SampleDatabase(db.catalog, ratio=0.001, seed=0)
    return RankAwareOptimizer(
        db.catalog,
        spec,
        enumerate_ranking=strategy == "rank-aware",
        estimator=CardinalityEstimator(db.catalog, spec, sample=sample),
    )


def reversed_generation(monkeypatch):
    """Make the DP generate every alternative in the opposite order."""
    for name in ("_relation_splits", "_predicate_splits", "_scan_plans",
                 "_join_plans"):
        original = getattr(RankAwareOptimizer, name)

        def backwards(self, *args, _original=original):
            return list(reversed(list(_original(self, *args))))

        monkeypatch.setattr(RankAwareOptimizer, name, backwards)
    candidates = RankAwareOptimizer._candidates
    monkeypatch.setattr(
        RankAwareOptimizer,
        "_candidates",
        lambda self, *args: list(reversed(candidates(self, *args))),
    )


class TestStability:
    @pytest.mark.parametrize("strategy,shape", sorted(SECTION_5_2_PICKS))
    def test_section_5_2_picks_are_unchanged(self, db, strategy, shape):
        expected, generated = SECTION_5_2_PICKS[(strategy, shape)]
        for k in KS:
            optimizer = section_5_2_optimizer(
                db, db.bind(statement(shape, k)), strategy
            )
            plan = optimizer.optimize()
            assert optimizer.plans_generated == generated
            if (strategy, shape) in TIED:
                continue
            assert plan.fingerprint() == f"limit({k})({expected})"

    def test_the_tied_pick_costs_what_the_old_one_did(self, db, workload):
        spec = db.bind(statement("S3", 10))
        optimizer = section_5_2_optimizer(db, spec, "rank-aware")
        plan = optimizer.optimize()
        selection = {c.name: c for c in spec.selections}
        a = FilterPlan(RankScanPlan("A", "f2"), selection["A.b"])
        b = FilterPlan(RankScanPlan("B", "f4"), selection["B.b"])
        bc = HRJNPlan(b, RankScanPlan("C", "f5"), "B.jc2", "C.jc2")
        old = LimitPlan(
            MuPlan(MuPlan(HRJNPlan(a, bc, "A.jc1", "B.jc1"), "f3"), "f1"), 10
        )
        assert old.fingerprint() == "limit(10)(" + SECTION_5_2_PICKS[
            ("rank-aware", "S3")][0] + ")"
        cost = optimizer.cost_model.cost
        assert plan.fingerprint() != old.fingerprint()
        assert cost(plan.children[0]) == cost(old.children[0])

    @pytest.mark.parametrize("estimator", ["section 5.2", "synopsis"])
    @pytest.mark.parametrize("strategy", ["rank-aware", "traditional"])
    def test_ties_never_fall_to_generation_order(
        self, db, monkeypatch, estimator, strategy
    ):
        def picks():
            out = []
            for shape in SHAPES:
                spec = db.bind(statement(shape, 10))
                if estimator == "synopsis":
                    optimizer = RankAwareOptimizer(
                        db.catalog,
                        spec,
                        synopsis=db.planner.synopsis(spec),
                        enumerate_ranking=strategy == "rank-aware",
                    )
                else:
                    optimizer = section_5_2_optimizer(db, spec, strategy)
                out.append(
                    (optimizer.optimize().fingerprint(), optimizer.plans_generated)
                )
            return out

        forwards = picks()
        with monkeypatch.context() as patch:
            reversed_generation(patch)
            backwards = picks()
        assert backwards == forwards

    def test_equal_cost_candidates_resolve_either_way(self, db):
        spec = db.bind(statement("S2", 10))
        optimizer = RankAwareOptimizer(
            db.catalog, spec, synopsis=db.planner.synopsis(spec)
        )
        selection = spec.selections[0]
        left = FilterPlan(RankScanPlan("A", "f1"), selection)
        right = RankScanPlan("B", "f3")
        one = Candidate(HRJNPlan(left, right, "A.jc1", "B.jc1"), 5.0)
        two = Candidate(HRJNPlan(right, left, "B.jc1", "A.jc1"), 5.0)
        assert optimizer._wins(one, two) != optimizer._wins(two, one)
        assert optimizer._best([one, two]) is optimizer._best([two, one])


class TestOnePhysicalProperty:
    @pytest.mark.parametrize("strategy", ["rank-aware", "traditional"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_no_column_order_class_in_the_memo(self, db, shape, strategy):
        """Rank-orderedness is the DP's one physical property: with column
        indexes on every join column, no memo entry holds a column-order
        scan or a sort-merge join (the cost model prices the one like a
        seq-scan and the other no cheaper than a hash join)."""
        for table in ("A", "B", "C"):
            assert any(
                isinstance(index, ColumnIndex)
                for index in db.catalog.table(table).indexes.values()
            )
        spec = db.bind(statement(shape, 10))
        optimizer = RankAwareOptimizer(
            db.catalog,
            spec,
            synopsis=db.planner.synopsis(spec),
            enumerate_ranking=strategy == "rank-aware",
        )
        optimizer.optimize()
        for bucket in optimizer.memo.values():
            assert set(bucket) <= {True, False}
            for key, candidate in bucket.items():
                assert candidate.plan.is_ranked == key
                assert not any(
                    isinstance(node, (ColumnOrderScanPlan, SortMergeJoinPlan))
                    for node in candidate.plan.walk()
                )


def answer(result):
    """``(sorted rid, score)`` per row, best first, plus the row values
    (a joined row lists its base rows in the plan's join order)."""
    return (
        [
            (sorted(scored.row.rid), score)
            for scored, score in zip(result.scored_rows, result.scores)
        ],
        [Counter(map(repr, scored.row.values)) for scored in result.scored_rows],
    )


_BLOCKING = (SortPlan, HashJoinPlan, SortMergeJoinPlan, NestedLoopJoinPlan)


class TestQuality:
    @pytest.mark.parametrize("k", KS)
    def test_s3_pick_is_incremental_and_no_dearer_than_plan2(
        self, db, workload, k
    ):
        entry, __ = db.planner.prepare(statement("S3", k))
        assert not any(isinstance(n, _BLOCKING) for n in entry.plan.walk())
        pick = db.execute(entry.plan, entry.scoring, k=k).metrics
        paper = db.execute(plan2(workload, k), workload.scoring, k=k).metrics
        assert pick.simulated_cost <= 1.15 * paper.simulated_cost

    @pytest.mark.parametrize("k", KS)
    def test_s3_pick_examines_a_fraction_of_the_5_2_picks_join_pairs(
        self, db, k
    ):
        spec = db.bind(statement("S3", k))
        baseline = section_5_2_optimizer(db, spec, "rank-aware").optimize()
        entry, __ = db.planner.prepare(statement("S3", k))
        pick = db.execute(entry.plan, entry.scoring, k=k).metrics
        old = db.execute(baseline, spec.scoring, k=k).metrics
        assert pick.join_pairs_examined <= 0.2 * old.join_pairs_examined

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_picks_return_the_materialised_answer(self, db, shape):
        for k in KS:
            sql = statement(shape, k)
            expected = answer(
                db.query(sql, strategy="traditional", execution="row")
            )
            assert answer(db.query(sql)) == expected

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_cutoff_is_finite_once_k_answers_are_estimated(self, db, shape):
        for k in KS:
            estimator = db.optimizer(db.bind(statement(shape, k))).estimator
            if estimator.answers() >= k:
                assert estimator.cutoff > float("-inf")
            else:
                assert estimator.cutoff == float("-inf")
