"""Randomized agreement between the physical engine and the reference
(materialized) semantics, and between the row and batch execution paths.

For randomly generated data and a catalogue of plan shapes — µ chains with
interleaved filters, rank-joins, set operations — the physical pipeline
must produce a rank-relation equivalent (same membership, same score order,
ties free) to the reference evaluator's result for the corresponding
logical plan.

Row/batch parity is *stricter*: for every workload query and plan shape,
the lowered (batched columnar) plan must produce the identical sequence —
same rows, same evaluated scores, same deterministic rid tie order — as
the row-mode plan it replaces, while rank-aware operators keep emitting
incrementally.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.expressions import col
from repro.algebra.operators import (
    LogicalDifference,
    LogicalIntersect,
    LogicalJoin,
    LogicalRank,
    LogicalScan,
    LogicalSelect,
    LogicalUnion,
    evaluate_logical,
)
from repro.algebra.predicates import BooleanPredicate, RankingPredicate, ScoringFunction
from repro.algebra.rank_relation import RankRelation
from repro.execution import (
    ExecutionContext,
    Filter,
    HRJN,
    Mu,
    NRJN,
    RankDifference,
    RankIntersect,
    RankUnion,
    SeqScan,
    run_plan,
)
from repro.storage import Catalog, DataType, Schema


def make_db(seed, n=30, distinct=5):
    rng = random.Random(seed)
    catalog = Catalog()
    t1 = catalog.create_table(
        "T1", Schema.of(("k", DataType.INT), ("x", DataType.FLOAT))
    )
    t2 = catalog.create_table(
        "T2", Schema.of(("k", DataType.INT), ("x", DataType.FLOAT))
    )
    values = [round(rng.random(), 2) for __ in range(10)]
    for __ in range(n):
        t1.insert([rng.randrange(distinct), rng.choice(values)])
        t2.insert([rng.randrange(distinct), rng.choice(values)])
    pa = RankingPredicate("pa", ["x"], lambda x: x)
    pb = RankingPredicate("pb", ["x"], lambda x: 1 - x)
    scoring = ScoringFunction([pa, pb])
    return catalog, scoring


def assert_physical_matches_reference(catalog, scoring, logical, physical, k=None):
    reference = evaluate_logical(logical, catalog, scoring)
    context = ExecutionContext(catalog, scoring)
    out = run_plan(physical, context, k=None)
    got = RankRelation(scoring, out)
    if k is not None:
        reference = RankRelation(scoring, reference.top(k))
        got = RankRelation(scoring, got.rows[:k])
    assert got.equivalent(reference), (
        f"physical != reference\nphysical: {got.rids()}\n"
        f"reference: {reference.rids()}"
    )


def scan(catalog, name):
    return LogicalScan(name, catalog.table(name).schema)


@pytest.mark.parametrize("seed", range(6))
class TestUnaryPipelines:
    def test_mu_chain(self, seed):
        catalog, scoring = make_db(seed)
        logical = LogicalRank(LogicalRank(scan(catalog, "T1"), "pa"), "pb")
        physical = Mu(Mu(SeqScan("T1"), "pa"), "pb")
        assert_physical_matches_reference(catalog, scoring, logical, physical)

    def test_filter_between_mus(self, seed):
        catalog, scoring = make_db(seed)
        condition = BooleanPredicate(col("T1.k") > 1, "k>1")
        logical = LogicalRank(
            LogicalSelect(LogicalRank(scan(catalog, "T1"), "pa"), condition), "pb"
        )
        physical = Mu(Filter(Mu(SeqScan("T1"), "pa"), condition), "pb")
        assert_physical_matches_reference(catalog, scoring, logical, physical)


@pytest.mark.parametrize("seed", range(6))
class TestJoins:
    def test_hrjn_matches_reference_join(self, seed):
        catalog, scoring = make_db(seed, n=20)
        condition = BooleanPredicate(col("T1.k").eq(col("T2.k")), "j")
        logical = LogicalJoin(
            LogicalRank(scan(catalog, "T1"), "pa"),
            LogicalRank(scan(catalog, "T2"), "pb"),
            condition,
        )
        physical = HRJN(
            Mu(SeqScan("T1"), "pa"), Mu(SeqScan("T2"), "pb"), "T1.k", "T2.k"
        )
        assert_physical_matches_reference(catalog, scoring, logical, physical)

    def test_nrjn_matches_reference_join(self, seed):
        catalog, scoring = make_db(seed, n=15)
        condition = BooleanPredicate(col("T1.k") < col("T2.k"), "lt")
        logical = LogicalJoin(
            LogicalRank(scan(catalog, "T1"), "pa"),
            LogicalRank(scan(catalog, "T2"), "pb"),
            condition,
        )
        physical = NRJN(
            Mu(SeqScan("T1"), "pa"), Mu(SeqScan("T2"), "pb"), condition
        )
        assert_physical_matches_reference(catalog, scoring, logical, physical)


@pytest.mark.parametrize("seed", range(6))
class TestSetOperations:
    def build(self, catalog):
        logical_left = LogicalRank(scan(catalog, "T1"), "pa")
        logical_right = LogicalRank(scan(catalog, "T2"), "pb")
        physical_left = Mu(SeqScan("T1"), "pa")
        physical_right = Mu(SeqScan("T2"), "pb")
        return logical_left, logical_right, physical_left, physical_right

    def test_union(self, seed):
        catalog, scoring = make_db(seed)
        ll, lr, pl, pr = self.build(catalog)
        assert_physical_matches_reference(
            catalog, scoring, LogicalUnion(ll, lr), RankUnion(pl, pr)
        )

    def test_intersection(self, seed):
        catalog, scoring = make_db(seed)
        ll, lr, pl, pr = self.build(catalog)
        assert_physical_matches_reference(
            catalog, scoring, LogicalIntersect(ll, lr), RankIntersect(pl, pr)
        )

    def test_difference(self, seed):
        catalog, scoring = make_db(seed)
        ll, lr, pl, pr = self.build(catalog)
        assert_physical_matches_reference(
            catalog, scoring, LogicalDifference(ll, lr), RankDifference(pl, pr)
        )


# ----------------------------------------------------------------------
# row / batch execution parity
# ----------------------------------------------------------------------

from repro.optimizer.plans import (  # noqa: E402
    BatchSegmentPlan,
    MuPlan,
    RankScanPlan,
    ScanSelectPlan,
    lower_to_batch,
)
from repro.workloads import ALL_PLANS, WorkloadConfig, build_workload  # noqa: E402

_workloads: dict = {}


def parity_workload():
    """A small (memoized) §6 workload for exhaustive parity runs."""
    key = "default"
    if key not in _workloads:
        _workloads[key] = build_workload(
            WorkloadConfig(table_size=200, join_selectivity=0.02, k=8, seed=7)
        )
    return _workloads[key]


def drain(catalog, scoring, plan_node, k=None):
    """Execute a plan descriptor; return the full observable sequence —
    (rid, values, evaluated scores) per tuple, in emission order."""
    context = ExecutionContext(catalog, scoring)
    out = run_plan(plan_node.build(), context, k=k)
    return [(s.row.rid, s.row.values, dict(s.scores)) for s in out]


def assert_paths_identical(catalog, scoring, plan_node, k=None):
    """The lowered plan must emit the identical sequence (rows, scores,
    rid tie order) as its row-mode twin."""
    lowered = lower_to_batch(plan_node)
    row_sequence = drain(catalog, scoring, plan_node, k=k)
    batch_sequence = drain(catalog, scoring, lowered, k=k)
    assert batch_sequence == row_sequence


@pytest.mark.parametrize("plan_name", sorted(ALL_PLANS))
def test_fig11_plan_parity(plan_name):
    """All four §6.1 plan shapes: identical rows, scores and tie order."""
    workload = parity_workload()
    plan = ALL_PLANS[plan_name](workload)
    assert_paths_identical(workload.catalog, workload.scoring, plan)


@pytest.mark.parametrize("strategy", ["rank-aware", "traditional", "rule-based"])
def test_workload_query_parity(strategy):
    """The workload query under every optimizer strategy, both paths."""
    workload = parity_workload()
    plan = workload.database.planner.plan(
        workload.spec, strategy=strategy, sample_ratio=0.2, seed=1
    )
    assert_paths_identical(workload.catalog, workload.scoring, plan)


GENERATED_QUERIES = [
    "SELECT * FROM L ORDER BY pa(L.x) LIMIT 7",
    "SELECT * FROM L WHERE L.k > 1 ORDER BY pa(L.x) LIMIT 9",
    "SELECT * FROM L, R WHERE L.k = R.k ORDER BY pa(L.x) + pb(R.x) LIMIT 6",
    "SELECT * FROM L, R WHERE L.k = R.k AND R.k < 4 "
    "ORDER BY pa(L.x) + pb(R.x) LIMIT 12",
]


def generated_database(seed, **kwargs):
    """Two seeded 40-row tables the generated queries run over."""
    from repro.engine.database import Database
    from repro.storage.schema import DataType

    db = Database(**kwargs)
    for name in ("L", "R"):
        db.create_table(name, [("k", DataType.INT), ("x", DataType.FLOAT)])
        local = random.Random(seed if name == "L" else seed + 99)
        db.insert(
            name,
            [(local.randrange(5), round(local.random(), 2)) for __ in range(40)],
        )
    db.register_predicate("pa", ["L.x"], lambda x: x)
    db.register_predicate("pb", ["R.x"], lambda x: 1 - x)
    db.analyze()
    return db


def forced_lowering(db, sql, strategy, dop=1):
    """Plan ``sql`` in pure row mode, then force every segment of that
    plan onto the batch path at ``dop`` — the costed pass would keep
    40-row segments tuple-at-a-time, so parity of the lowered operators on
    generated plans needs the forced reference.  Returns the row-mode
    entry and the lowered twin's result."""
    entry, __ = db.planner.prepare(
        sql, strategy=strategy, sample_ratio=0.5, seed=1, execution="row"
    )
    lowered = lower_to_batch(entry.plan, parallelism=dop)
    assert any(isinstance(node, BatchSegmentPlan) for node in lowered.walk())
    return entry, db.execute(lowered, entry.scoring, k=entry.k)


@pytest.mark.parametrize("seed", range(4))
def test_generated_query_forced_lowering_parity(seed):
    """Every generated plan, forced onto the batch path regardless of
    size, returns the rows and scores of its row-mode twin."""
    db = generated_database(seed)
    for sql in GENERATED_QUERIES:
        for strategy in ("rank-aware", "traditional"):
            entry, got = forced_lowering(db, sql, strategy)
            want = db.execute(entry.plan, entry.scoring, k=entry.k)
            assert got.rows == want.rows, (sql, strategy)
            assert got.scores == want.scores, (sql, strategy)


@pytest.mark.parametrize("seed", range(4))
def test_generated_query_parity_across_execution_regimes(seed):
    """The 4-mode ``execution=`` sweep: row, batch, cost-governed auto and
    forced plan-to-code compilation must return identical rows and scores
    for every generated query — and the compiled engine must actually have
    compiled something, so the sweep is never vacuously green."""
    modes = ("row", "batch", "auto", "compiled")
    databases = {mode: generated_database(seed, execution=mode) for mode in modes}
    for sql in GENERATED_QUERIES:
        for strategy in ("rank-aware", "traditional"):
            outputs = {
                mode: db.session(
                    strategy=strategy, sample_ratio=0.5, seed=1
                ).execute(sql)
                for mode, db in databases.items()
            }
            want = outputs["row"]
            for mode in modes[1:]:
                assert outputs[mode].rows == want.rows, (sql, strategy, mode)
                assert outputs[mode].scores == want.scores, (sql, strategy, mode)
    assert databases["compiled"].planner.metrics.plans_compiled > 0


# ----------------------------------------------------------------------
# morsel-parallel / serial execution parity
# ----------------------------------------------------------------------

from repro.execution import vectors  # noqa: E402


def _backends():
    modes = ["python"]
    if vectors.numpy_available():
        modes.append("numpy")
    return modes


@pytest.fixture
def vector_backend(request):
    """Pin the kernel backend for one test, restoring it afterwards."""
    before = vectors.backend()
    vectors.set_backend(request.param)
    yield request.param
    vectors.set_backend(before)


@pytest.fixture
def tiny_morsels(monkeypatch):
    """Shrink morsels so the 200-row parity workload splits into many."""
    monkeypatch.setenv("REPRO_MORSEL_SIZE", "64")


@pytest.mark.parametrize("vector_backend", _backends(), indirect=True)
@pytest.mark.parametrize("dop", [1, 2, 8])
@pytest.mark.parametrize("plan_name", sorted(ALL_PLANS))
def test_fig11_plan_parallel_parity(plan_name, dop, vector_backend, tiny_morsels):
    """Every §6.1 plan shape at DOP 1/2/8, in both kernel backends, must
    emit the byte-identical sequence the serial lowered plan emits."""
    workload = parity_workload()
    serial = drain(
        workload.catalog,
        workload.scoring,
        lower_to_batch(ALL_PLANS[plan_name](workload)),
    )
    parallel = drain(
        workload.catalog,
        workload.scoring,
        lower_to_batch(ALL_PLANS[plan_name](workload), parallelism=dop),
    )
    assert parallel == serial


@pytest.mark.parametrize("vector_backend", _backends(), indirect=True)
@pytest.mark.parametrize("dop", [2, 8])
@pytest.mark.parametrize("seed", range(4))
def test_generated_query_parity_across_dop(seed, dop, vector_backend, tiny_morsels):
    """A forced degree of parallelism must never change any generated
    query's rows or scores, in either backend."""
    db = generated_database(seed)
    for sql in GENERATED_QUERIES:
        for strategy in ("rank-aware", "traditional"):
            __, want = forced_lowering(db, sql, strategy)
            __, got = forced_lowering(db, sql, strategy, dop=dop)
            assert got.rows == want.rows, (sql, strategy, dop)
            assert got.scores == want.scores, (sql, strategy, dop)


class TestLoweringPass:
    """Unit tests for :func:`lower_to_batch`: batch segments are maximal
    ``P = φ`` subtrees and never absorb a rank-aware operator."""

    RANK_AWARE = (MuPlan, RankScanPlan, ScanSelectPlan)

    def all_plans(self):
        workload = parity_workload()
        plans = [builder(workload) for builder in ALL_PLANS.values()]
        for strategy in ("rank-aware", "traditional", "rule-based"):
            plans.append(
                workload.database.planner.plan(
                    workload.spec, strategy=strategy, sample_ratio=0.2, seed=1
                )
            )
        return plans

    def test_segments_never_cross_rank_operators(self):
        from repro.optimizer.plans import SortPlan

        for plan in self.all_plans():
            lowered = lower_to_batch(plan)
            for node in lowered.walk():
                if not isinstance(node, BatchSegmentPlan):
                    continue
                inner = node.inner
                if isinstance(inner, SortPlan):
                    # Sort is the frontier: it *evaluates* the predicates,
                    # but its input segment must be P = φ.
                    inner = inner.children[0]
                assert not inner.rank_predicates
                for segment_node in inner.walk():
                    assert not isinstance(segment_node, self.RANK_AWARE)

    def test_rank_operators_survive_lowering(self):
        workload = parity_workload()
        lowered = lower_to_batch(ALL_PLANS["plan2"](workload))
        kinds = {type(node).__name__ for node in lowered.walk()}
        assert "MuPlan" in kinds and "HRJNPlan" in kinds

    def test_traditional_plan_lowers_the_sort_segment(self):
        workload = parity_workload()
        lowered = lower_to_batch(ALL_PLANS["plan1"](workload))
        segments = [
            node for node in lowered.walk() if isinstance(node, BatchSegmentPlan)
        ]
        assert len(segments) == 1  # one maximal segment: the whole sort input
        from repro.optimizer.plans import SortPlan

        assert isinstance(segments[0].inner, SortPlan)

    def test_original_plan_untouched(self):
        workload = parity_workload()
        plan = ALL_PLANS["plan1"](workload)
        before = plan.fingerprint()
        lowered = lower_to_batch(plan)
        assert plan.fingerprint() == before
        assert lowered is not plan
