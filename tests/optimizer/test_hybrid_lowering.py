"""Cost-governed execution regimes: the row-vs-compiled decision.

The acceptance bar for ``execution="auto"``: the DP enumerates row plans,
and a post-pass prices every sort-topped ``P = φ`` segment as row and as
compiled in one cost model and demonstrably chooses — small segments stay
tuple-at-a-time, large ones compile, unsupported ones run as their row
plans — with identical results either way and both costs visible in
``explain``.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.database import Database
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost_model import CostModel
from repro.optimizer.enumeration import RankAwareOptimizer
from repro.optimizer.hybrid import (
    SegmentDecision,
    decide_regimes,
    price_segment,
    render_decisions,
)
from repro.optimizer.plans import (
    BatchSegmentPlan,
    FilterPlan,
    LimitPlan,
    MuPlan,
    NestedLoopJoinPlan,
    SeqScanPlan,
    SortPlan,
)
from repro.optimizer.query_spec import QuerySpec
from repro.planner.planner import EXECUTION_MODES
from repro.storage import DataType
from repro.workloads import WorkloadConfig, build_workload

from tests.conftest import assert_same_work

SQL = "SELECT * FROM T WHERE T.k > 1 ORDER BY pa(T.x) LIMIT 10"
KNOBS = dict(strategy="traditional")


def single_table_db(n: int, execution="auto") -> Database:
    db = Database(execution=execution)
    db.create_table("T", [("k", DataType.INT), ("x", DataType.FLOAT)])
    rng = random.Random(11)
    db.insert("T", [(rng.randrange(5), round(rng.random(), 6)) for __ in range(n)])
    db.register_predicate("pa", ["T.x"], lambda x: x)
    db.analyze()
    return db


def cost_model_for(db: Database, spec: QuerySpec, ratio=0.5) -> CostModel:
    estimator = CardinalityEstimator(db.catalog, spec, ratio=ratio, seed=1)
    return CostModel(db.catalog, spec, estimator)


def sort_segment(spec: QuerySpec) -> SortPlan:
    condition = spec.selections[0]
    return SortPlan(FilterPlan(SeqScanPlan("T"), condition), frozenset({"pa"}))


def wrappers(plan) -> list:
    return [node for node in plan.walk() if isinstance(node, BatchSegmentPlan)]


class TestSegmentPricing:
    """Unit behaviour of the regime pass."""

    def test_small_segment_keeps_row(self):
        db = single_table_db(60)
        spec = db.bind(SQL)
        plan = LimitPlan(sort_segment(spec), spec.k)
        decided, decisions, count, seconds = decide_regimes(
            plan, cost_model_for(db, spec)
        )
        assert [d.winner for d in decisions] == ["row"]
        assert decided is plan
        assert (count, seconds) == (0, 0.0)

    def test_large_segment_compiles(self):
        db = single_table_db(2000)
        spec = db.bind(SQL)
        decided, decisions, count, seconds = decide_regimes(
            LimitPlan(sort_segment(spec), spec.k), cost_model_for(db, spec)
        )
        assert [d.winner for d in decisions] == ["compiled"]
        (wrapper,) = wrappers(decided)
        assert wrapper.decision is decisions[0]
        assert wrapper.compiled is not None
        assert count == 1 and seconds > 0.0

    def test_forced_mode_compiles_a_segment_row_would_win(self):
        db = single_table_db(60)
        spec = db.bind(SQL)
        decided, decisions, count, __ = decide_regimes(
            LimitPlan(sort_segment(spec), spec.k),
            cost_model_for(db, spec),
            forced=True,
        )
        assert decisions[0].compiled_cost > decisions[0].row_cost
        assert decisions[0].winner == "compiled"
        assert count == 1 and len(wrappers(decided)) == 1

    def test_decision_pass_is_idempotent(self):
        db = single_table_db(2000)
        spec = db.bind(SQL)
        model = cost_model_for(db, spec)
        once, __, __, __ = decide_regimes(LimitPlan(sort_segment(spec), spec.k), model)
        twice, decisions, count, __ = decide_regimes(once, model)
        assert twice is once
        assert decisions == [] and count == 0

    def test_priced_comparison_is_consistent(self):
        db = single_table_db(500)
        spec = db.bind(SQL)
        model = cost_model_for(db, spec)
        segment = sort_segment(spec)
        decision = price_segment(segment, model)
        assert decision.row_cost == pytest.approx(model.cost(segment))
        assert decision.compiled_cost == pytest.approx(
            model.compiled_segment_cost(segment)
        )
        # a compiled wrapper costs what its decision priced
        assert model.cost(BatchSegmentPlan(segment, None)) == pytest.approx(
            decision.compiled_cost
        )

    def test_unsupported_segment_stays_row(self):
        # A nested-loop join has no compiled form: priced, never compiled.
        db = single_table_db(2000)
        spec = db.bind(SQL)
        segment = SortPlan(
            NestedLoopJoinPlan(SeqScanPlan("T"), SeqScanPlan("T"), None),
            frozenset({"pa"}),
        )
        decision = price_segment(segment, cost_model_for(db, spec), forced=True)
        assert decision.compiled_cost is None
        assert decision.winner == "row"
        assert "(no compiled form)" in decision.summary()

    def test_rank_aware_input_is_never_a_segment(self):
        db = single_table_db(2000)
        spec = db.bind(SQL)
        plan = LimitPlan(
            MuPlan(FilterPlan(SeqScanPlan("T"), spec.selections[0]), "pa"), spec.k
        )
        decided, decisions, __, __ = decide_regimes(
            plan, cost_model_for(db, spec), forced=True
        )
        assert decided is plan and decisions == []

    def test_render_decisions_names_winner(self):
        decision = SegmentDecision("sort", row_cost=100.0, compiled_cost=80.0)
        text = render_decisions([decision])
        assert "sort" in text
        assert "-> compiled" in text
        assert "row cost=100" in text and "compiled cost=80" in text


class TestEnumerationIsRowOnly:
    """The DP prices no regime: it enumerates row plans, always."""

    def workload(self, size):
        return build_workload(
            WorkloadConfig(
                table_size=size, join_selectivity=min(0.5, 10 / size), k=8, seed=7
            )
        )

    def test_dp_never_generates_segment_wrappers(self):
        w = self.workload(2000)
        for enumerate_ranking in (True, False):
            optimizer = RankAwareOptimizer(
                w.catalog, w.spec, enumerate_ranking=enumerate_ranking,
            )
            assert not wrappers(optimizer.optimize())

    def test_batch_pricing_knob_is_gone(self):
        w = self.workload(200)
        with pytest.raises(TypeError):
            RankAwareOptimizer(w.catalog, w.spec, price_batch=True)


class TestAutoModeEndToEnd:
    """Database(execution="auto"): per-query decisions, visible in
    explain, with results identical to every other execution mode."""

    def test_tiny_table_stays_row_and_explain_says_so(self):
        db = single_table_db(60)
        entry, __ = db.planner.prepare(SQL, **KNOBS)
        assert [d.winner for d in entry.decisions] == ["row"]
        assert not wrappers(entry.executable)
        assert entry.regime() == "row"
        text = db.explain(SQL, **KNOBS)
        assert "-> row" in text
        assert "compiled segment" not in text

    def test_large_table_compiles_and_explain_names_the_winner(self):
        db = single_table_db(2000)
        entry, __ = db.planner.prepare(SQL, **KNOBS)
        assert [d.winner for d in entry.decisions] == ["compiled"]
        assert len(wrappers(entry.executable)) == 1
        assert entry.regime() == "compiled"
        text = db.explain(SQL, **KNOBS)
        assert "compiled segment" in text
        assert "-> compiled" in text
        assert "row cost=" in text and "compiled cost=" in text

    @pytest.mark.parametrize("n", [60, 2000])
    def test_results_identical_across_modes(self, n):
        """60 rows stay tuple-at-a-time, 2000 rows compile — the rows,
        scores and work are the same in every mode."""
        results = {}
        for mode in EXECUTION_MODES:
            db = single_table_db(n, execution=mode)
            result = db.query(SQL, **KNOBS)
            results[mode] = (result.rows, result.scores, result.metrics.summary())
        rows, scores, work = results["row"]
        for mode in EXECUTION_MODES:
            assert results[mode][:2] == (rows, scores), mode
            assert_same_work(results[mode][2], work)

    def test_explain_analyze_reports_the_compiled_segment(self):
        db = single_table_db(2000)
        text = db.explain_analyze(SQL, **KNOBS)
        assert "execution regime decisions" in text
        (line,) = [line for line in text.splitlines() if "compiled[" in line]
        # one node for the whole segment: it took everything in and
        # returned the top k, and its time is the fused call's
        assert "in=" in line and "time=" in line
        nodes = [line for line in text.splitlines() if "est=" in line]
        assert len(nodes) == 2  # limit(10) over the compiled segment

    def test_workload_query_same_in_every_mode(self):
        """The §6 workload query: same rows and scores in every mode,
        under both strategies."""
        results = {}
        for mode in EXECUTION_MODES:
            w = build_workload(
                WorkloadConfig(table_size=300, join_selectivity=0.04, k=8, seed=3)
            )
            w.database.planner.execution = mode
            for strategy in ("rank-aware", "traditional"):
                r = w.database.session(
                    strategy=strategy
                ).execute(
                    "SELECT * FROM A, B, C WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 "
                    "AND A.b AND B.b ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + "
                    "f4(B.p2) + f5(C.p1) LIMIT 8"
                )
                results.setdefault(strategy, []).append((r.rows, r.scores))
        for strategy, versions in results.items():
            assert all(version == versions[0] for version in versions), strategy
