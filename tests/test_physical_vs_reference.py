"""Randomized agreement between the physical engine and the reference
(materialized) semantics, and between the row and compiled regimes.

For randomly generated data and a catalogue of plan shapes — µ chains with
interleaved filters, rank-joins, set operations — the physical pipeline
must produce a rank-relation equivalent (same membership, same score order,
ties free) to the reference evaluator's result for the corresponding
logical plan.

Row/compiled parity is *stricter*: for every workload query and plan
shape, the plan with its sort-topped segments compiled must produce the
identical sequence — same rows, same evaluated scores, same deterministic
rid tie order, same integer counters — as the row-mode plan it replaces,
while rank-aware operators keep emitting incrementally.
"""

from __future__ import annotations

import copy
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
# row / compiled execution parity
# ----------------------------------------------------------------------

from repro.execution import codegen  # noqa: E402
from repro.optimizer.plans import (  # noqa: E402
    BatchSegmentPlan,
    MuPlan,
    RankScanPlan,
    ScanSelectPlan,
    SortPlan,
)
from repro.workloads import ALL_PLANS, WorkloadConfig, build_workload  # noqa: E402

from tests.conftest import assert_same_work  # noqa: E402

_workloads: dict = {}


def parity_workload():
    """A small (memoized) §6 workload for exhaustive parity runs."""
    key = "default"
    if key not in _workloads:
        _workloads[key] = build_workload(
            WorkloadConfig(table_size=200, join_selectivity=0.02, k=8, seed=7)
        )
    return _workloads[key]


def force_compile(plan, catalog, scoring):
    """``plan`` with every sort-topped segment the code generator supports
    compiled, regardless of price — the forced reference that parity on
    small inputs needs (the costed pass would keep them row-mode).  Nodes
    are treated as immutable: rewritten interiors are fresh nodes."""
    if isinstance(plan, SortPlan) and codegen.supports(plan, catalog, scoring):
        return BatchSegmentPlan(plan, codegen.compile_segment(plan, catalog, scoring))
    if not plan.children:
        return plan
    children = tuple(force_compile(c, catalog, scoring) for c in plan.children)
    if all(new is old for new, old in zip(children, plan.children)):
        return plan
    clone = copy.copy(plan)
    clone.children = children
    return clone


def drain(catalog, scoring, plan_node, k=None):
    """Execute a plan descriptor; return the full observable sequence —
    (rid, values, evaluated scores) per tuple, in emission order — and the
    run's metric summary."""
    context = ExecutionContext(catalog, scoring)
    out = run_plan(plan_node.build(), context, k=k)
    sequence = [(s.row.rid, s.row.values, dict(s.scores)) for s in out]
    return sequence, context.metrics.summary()


def assert_paths_identical(catalog, scoring, plan_node, k=None):
    """The compiled plan must emit the identical sequence (rows, scores,
    rid tie order) and do the same work as its row-mode twin."""
    compiled = force_compile(plan_node, catalog, scoring)
    row_sequence, row_work = drain(catalog, scoring, plan_node, k=k)
    compiled_sequence, compiled_work = drain(catalog, scoring, compiled, k=k)
    assert compiled_sequence == row_sequence
    assert_same_work(compiled_work, row_work)
    return compiled


@pytest.mark.parametrize("strategy", ["rank-aware", "traditional"])
def test_workload_query_parity(strategy):
    """The workload query under every optimizer strategy, both regimes."""
    workload = parity_workload()
    plan = workload.database.planner.plan(
        workload.spec, strategy=strategy, execution="row"
    )
    compiled = assert_paths_identical(workload.catalog, workload.scoring, plan)
    if strategy == "traditional":
        assert codegen.compiled_segment_count(compiled) == 1


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


@pytest.mark.parametrize("seed", range(4))
def test_generated_query_forced_compile_parity(seed):
    """Every generated traditional plan, forced to compile regardless of
    size, returns the rows, scores and work of its row-mode twin."""
    db = generated_database(seed)
    for sql in GENERATED_QUERIES:
        entry, __ = db.planner.prepare(
            sql, strategy="traditional", execution="row"
        )
        compiled = force_compile(entry.plan, db.catalog, entry.scoring)
        assert codegen.compiled_segment_count(compiled) == 1, sql
        want = db.execute(entry.plan, entry.scoring, k=entry.k)
        got = db.execute(compiled, entry.scoring, k=entry.k)
        assert got.rows == want.rows, sql
        assert got.scores == want.scores, sql
        assert [s.row.rid for s in got.scored_rows] == [
            s.row.rid for s in want.scored_rows
        ], sql
        assert_same_work(got.metrics.summary(), want.metrics.summary())


@pytest.mark.parametrize("seed", range(4))
def test_generated_query_parity_across_execution_regimes(seed):
    """The ``execution=`` sweep: row, cost-governed auto and forced
    plan-to-code compilation must return identical rows and scores for
    every generated query — and the compiled engine must actually have
    compiled something, so the sweep is never vacuously green."""
    modes = ("row", "auto", "compiled")
    databases = {mode: generated_database(seed, execution=mode) for mode in modes}
    for sql in GENERATED_QUERIES:
        for strategy in ("rank-aware", "traditional"):
            outputs = {
                mode: db.session(
                    strategy=strategy
                ).execute(sql)
                for mode, db in databases.items()
            }
            want = outputs["row"]
            for mode in modes[1:]:
                assert outputs[mode].rows == want.rows, (sql, strategy, mode)
                assert outputs[mode].scores == want.scores, (sql, strategy, mode)
    assert databases["compiled"].planner.metrics.plans_compiled > 0


class TestCompilePass:
    """Compiled segments are sort-topped ``P = φ`` subtrees and never
    absorb a rank-aware operator."""

    RANK_AWARE = (MuPlan, RankScanPlan, ScanSelectPlan)

    def all_plans(self):
        workload = parity_workload()
        plans = [builder(workload) for builder in ALL_PLANS.values()]
        for strategy in ("rank-aware", "traditional"):
            plans.append(
                workload.database.planner.plan(
                    workload.spec,
                    strategy=strategy,
                    execution="row",
                )
            )
        return workload, plans

    def test_segments_never_cross_rank_operators(self):
        workload, plans = self.all_plans()
        segments = 0
        for plan in plans:
            compiled = force_compile(plan, workload.catalog, workload.scoring)
            for node in compiled.walk():
                if not isinstance(node, BatchSegmentPlan):
                    continue
                segments += 1
                # Sort is the segment's root: it *evaluates* the
                # predicates, but its input must be P = φ.
                assert isinstance(node.inner, SortPlan)
                inner = node.inner.children[0]
                assert not inner.rank_predicates
                for segment_node in inner.walk():
                    assert not isinstance(segment_node, self.RANK_AWARE)
        assert segments

    def test_rank_operators_survive_compilation(self):
        workload = parity_workload()
        compiled = force_compile(
            ALL_PLANS["plan2"](workload), workload.catalog, workload.scoring
        )
        kinds = {type(node).__name__ for node in compiled.walk()}
        assert "MuPlan" in kinds and "HRJNPlan" in kinds
        assert "BatchSegmentPlan" not in kinds

    def test_unsupported_sort_segment_stays_row(self):
        # Plan 1's sort sits on sort-merge joins, which have no compiled form.
        workload = parity_workload()
        plan = ALL_PLANS["plan1"](workload)
        assert force_compile(plan, workload.catalog, workload.scoring) is plan

    def test_original_plan_untouched(self):
        workload = parity_workload()
        plan = workload.database.planner.plan(
            workload.spec,
            strategy="traditional",
            execution="row",
        )
        before = plan.fingerprint()
        compiled = force_compile(plan, workload.catalog, workload.scoring)
        assert plan.fingerprint() == before
        assert compiled is not plan
