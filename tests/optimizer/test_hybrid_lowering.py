"""Cost-governed hybrid execution: the row-vs-batch decision.

The acceptance bar for ``execution="auto"``: the optimizer prices
both execution regimes per ``P = φ`` segment in one cost model and
demonstrably chooses — small segments stay tuple-at-a-time, large drained
segments lower to the batched columnar path — with identical results
either way and both candidates' costs visible in ``explain``.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.database import Database
from repro.execution.morsels import MORSEL_SIZE_DEFAULT
from repro.optimizer.cost_model import (
    BATCH_SETUP_UNIT,
    CostModel,
    FRONTIER_TUPLE_UNIT,
)
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.enumeration import RankAwareOptimizer
from repro.optimizer.hybrid import (
    SegmentDecision,
    decide_batch_lowering,
    price_segment,
    render_decisions,
)
from repro.optimizer.plans import (
    BatchSegmentPlan,
    FilterPlan,
    LimitPlan,
    MuPlan,
    SeqScanPlan,
)
from repro.optimizer.query_spec import QuerySpec
from repro.planner.planner import EXECUTION_MODES
from repro.algebra.expressions import col
from repro.algebra.predicates import BooleanPredicate, RankingPredicate, ScoringFunction
from repro.storage import Catalog, DataType, Schema
from repro.workloads import WorkloadConfig, build_workload

SQL = (
    "SELECT * FROM T WHERE T.k > 1 ORDER BY pa(T.x) LIMIT 10"
)


def single_table_db(n: int, execution="auto", **kwargs) -> Database:
    db = Database(execution=execution, **kwargs)
    db.create_table("T", [("k", DataType.INT), ("x", DataType.FLOAT)])
    rng = random.Random(11)
    db.insert("T", [(rng.randrange(5), round(rng.random(), 6)) for __ in range(n)])
    db.register_predicate("pa", ["T.x"], lambda x: x)
    db.analyze()
    return db


def cost_model_for(db: Database, spec: QuerySpec, ratio=0.5) -> CostModel:
    estimator = CardinalityEstimator(db.catalog, spec, ratio=ratio, seed=1)
    return CostModel(db.catalog, spec, estimator)


def segment_plan(spec: QuerySpec):
    condition = spec.selections[0]
    return LimitPlan(
        MuPlan(FilterPlan(SeqScanPlan("T"), condition), "pa"), spec.k
    )


class TestSegmentPricing:
    """Unit behaviour of the decision pass and the batch-regime formulas."""

    def test_small_segment_keeps_row(self):
        db = single_table_db(60)
        spec = db.bind(SQL)
        decided, decisions = decide_batch_lowering(
            segment_plan(spec), cost_model_for(db, spec)
        )
        assert decisions, "lowerable segment must be priced"
        assert all(d.winner == "row" for d in decisions)
        assert not any(isinstance(n, BatchSegmentPlan) for n in decided.walk())

    def test_large_segment_lowers(self):
        db = single_table_db(2000)
        spec = db.bind(SQL)
        decided, decisions = decide_batch_lowering(
            segment_plan(spec), cost_model_for(db, spec)
        )
        top = decisions[0]
        assert top.winner == "batch"
        wrappers = [n for n in decided.walk() if isinstance(n, BatchSegmentPlan)]
        assert len(wrappers) == 1
        assert wrappers[0].decision is top

    def test_decision_pass_is_idempotent(self):
        db = single_table_db(2000)
        spec = db.bind(SQL)
        model = cost_model_for(db, spec)
        once, __ = decide_batch_lowering(segment_plan(spec), model)
        twice, decisions = decide_batch_lowering(once, model)
        assert twice.fingerprint() == once.fingerprint()
        assert all(d.winner == "batch" for d in decisions)

    def test_priced_comparison_is_consistent(self):
        db = single_table_db(500)
        spec = db.bind(SQL)
        model = cost_model_for(db, spec)
        segment = FilterPlan(SeqScanPlan("T"), spec.selections[0])
        decision = price_segment(segment, model)
        assert decision.row_cost == pytest.approx(model.cost(segment))
        assert decision.batch_cost == pytest.approx(
            model.cost(BatchSegmentPlan(segment))
        )
        # The wrapper's cost decomposes into segment work + setup + frontier.
        n_out = model.production(segment)
        assert decision.batch_cost == pytest.approx(
            model.batch_segment_cost(segment)
            + BATCH_SETUP_UNIT
            + n_out * FRONTIER_TUPLE_UNIT
        )

    def test_bare_scan_never_lowers(self):
        # A lone scan gains nothing from batching (BatchToRow just repacks
        # it); the frontier + setup overhead must keep it on the row path
        # at any size.
        for n in (50, 5000):
            db = single_table_db(n)
            spec = db.bind(SQL)
            model = cost_model_for(db, spec)
            decision = price_segment(SeqScanPlan("T"), model)
            assert decision.winner == "row", f"bare scan lowered at n={n}"

    def test_render_decisions_names_winner(self):
        decision = SegmentDecision("filter(k>1)", row_cost=100.0, batch_cost=80.0)
        text = render_decisions([decision])
        assert "filter(k>1)" in text
        assert "-> batch" in text
        assert "row cost=100" in text and "batch cost=80" in text


class TestParallelismPricing:
    """DOP as a costed decision: the parallel-regime formulas and the
    per-segment choice the decision pass stamps on wrappers."""

    def test_dop1_parallel_cost_is_the_serial_batch_formula(self):
        db = single_table_db(500)
        spec = db.bind(SQL)
        model = cost_model_for(db, spec)
        segment = FilterPlan(SeqScanPlan("T"), spec.selections[0])
        n_out = model.production(segment)
        assert model.parallel_segment_cost(segment, 1) == pytest.approx(
            model.batch_segment_cost(segment)
            + BATCH_SETUP_UNIT
            + n_out * FRONTIER_TUPLE_UNIT
        )

    def test_max_dop1_decision_matches_legacy_shape(self):
        # With no parallelism the decision must be byte-identical to PR 4:
        # dop 1, one candidate, the unchanged summary format.
        db = single_table_db(2000)
        spec = db.bind(SQL)
        model = cost_model_for(db, spec)
        decision = price_segment(
            FilterPlan(SeqScanPlan("T"), spec.selections[0]), model
        )
        assert decision.dop == 1
        assert set(decision.parallel_costs) == {1}
        assert decision.winner == "batch"
        assert "dop" not in decision.summary()

    def test_small_segment_stays_serial_under_high_max_dop(self):
        db = single_table_db(500)
        spec = db.bind(SQL)
        model = cost_model_for(db, spec)
        decision = price_segment(
            FilterPlan(SeqScanPlan("T"), spec.selections[0]), model, max_dop=8
        )
        # Worker setup + morsel dispatch dominate a sub-morsel segment.
        assert decision.dop == 1

    def test_large_segment_chooses_parallel_dop(self, monkeypatch):
        monkeypatch.setenv("REPRO_MORSEL_SIZE", "256")
        db = single_table_db(8000)
        spec = db.bind(SQL)
        model = cost_model_for(db, spec)
        segment = FilterPlan(SeqScanPlan("T"), spec.selections[0])
        decision = price_segment(segment, model, max_dop=4)
        assert decision.dop == 4
        assert decision.winner == "batch(dop=4)"
        assert decision.chosen_batch_cost < decision.batch_cost
        assert "batch@dop=4" in decision.summary()
        # every candidate up to the ceiling was priced
        assert set(decision.parallel_costs) == {1, 2, 4}

    def test_dop_beyond_task_count_prices_worse(self, monkeypatch):
        # min(dop, tasks): a segment splitting into 2 morsels cannot use
        # 8 workers — the extra worker setup must make dop 8 strictly
        # costlier than dop 2, so the decision self-caps.
        monkeypatch.setenv("REPRO_MORSEL_SIZE", "4096")
        db = single_table_db(8000)  # two morsels
        spec = db.bind(SQL)
        model = cost_model_for(db, spec)
        segment = FilterPlan(SeqScanPlan("T"), spec.selections[0])
        decision = price_segment(segment, model, max_dop=8)
        assert decision.parallel_costs[8] > decision.parallel_costs[2]
        assert decision.dop == 2

    def test_memo_keeps_dop_variants_distinct(self):
        db = single_table_db(2000)
        spec = db.bind(SQL)
        model = cost_model_for(db, spec)
        segment = FilterPlan(SeqScanPlan("T"), spec.selections[0])
        serial = model.cost(BatchSegmentPlan(segment))
        parallel = model.cost(BatchSegmentPlan(segment, dop=4))
        again = model.cost(BatchSegmentPlan(segment))
        # dop is not part of the fingerprint; a shared memo entry would
        # make one of these return the other's price
        assert serial == again
        assert parallel != serial

    def test_decision_pass_stamps_dop_on_wrapper(self, monkeypatch):
        monkeypatch.setenv("REPRO_MORSEL_SIZE", "256")
        db = single_table_db(8000)
        spec = db.bind(SQL)
        model = cost_model_for(db, spec)
        decided, decisions = decide_batch_lowering(
            segment_plan(spec), model, max_dop=4
        )
        wrappers = [n for n in decided.walk() if isinstance(n, BatchSegmentPlan)]
        assert len(wrappers) == 1
        assert wrappers[0].dop == decisions[0].dop == 4

    def test_explain_shows_dop_decision_end_to_end(self, monkeypatch):
        monkeypatch.setenv("REPRO_MORSEL_SIZE", "256")
        db = single_table_db(8000, parallelism=4)
        text = db.explain(SQL, sample_ratio=0.5, seed=1)
        assert "-> batch(dop=4)" in text
        assert "batch@dop=4" in text
        # serial-batch candidate stays visible alongside
        assert "row cost=" in text and "batch cost=" in text

    def test_parallelism_is_part_of_the_plan_signature(self):
        db = single_table_db(500)
        entry_serial, __ = db.planner.prepare(
            SQL, sample_ratio=0.5, seed=1, parallelism=1
        )
        entry_parallel, hit = db.planner.prepare(
            SQL, sample_ratio=0.5, seed=1, parallelism=4
        )
        assert not hit  # a different DOP ceiling is a different plan
        assert entry_serial.parallelism == 1
        assert entry_parallel.parallelism == 4


class TestEnumerationPricesBatchAlternatives:
    """The DP's fourth dimension: BatchSegmentPlan candidates in the memo."""

    def workload(self, size):
        return build_workload(
            WorkloadConfig(
                table_size=size, join_selectivity=min(0.5, 10 / size), k=8, seed=7
            )
        )

    def test_traditional_plan_lowers_via_dp(self):
        w = self.workload(2000)
        optimizer = RankAwareOptimizer(
            w.catalog, w.spec, sample_ratio=0.2, seed=1,
            enumerate_ranking=False, price_batch=True,
        )
        plan = optimizer.optimize()
        wrappers = [n for n in plan.walk() if isinstance(n, BatchSegmentPlan)]
        assert len(wrappers) == 1  # one maximal segment, sort-inclusive

    def test_knob_off_keeps_enumeration_row_mode(self):
        w = self.workload(2000)
        optimizer = RankAwareOptimizer(
            w.catalog, w.spec, sample_ratio=0.2, seed=1, enumerate_ranking=False
        )
        plan = optimizer.optimize()
        assert not any(isinstance(n, BatchSegmentPlan) for n in plan.walk())

    def test_auto_and_row_enumeration_agree_on_results(self):
        w = self.workload(400)
        from repro.execution import ExecutionContext, run_plan

        outs = []
        for knob in (False, True):
            optimizer = RankAwareOptimizer(
                w.catalog, w.spec, sample_ratio=0.2, seed=1,
                enumerate_ranking=False, price_batch=knob,
            )
            context = ExecutionContext(w.catalog, w.scoring)
            out = run_plan(optimizer.optimize().build(), context, k=8)
            outs.append([(s.row.rid, s.row.values, dict(s.scores)) for s in out])
        assert outs[0] == outs[1]


class TestAutoModeEndToEnd:
    """Database(execution="auto"): per-query decisions, visible in
    explain, with results identical to every other execution mode."""

    def test_tiny_table_stays_row_and_explain_says_so(self):
        db = single_table_db(60)
        entry, __ = db.planner.prepare(SQL, sample_ratio=0.5, seed=1)
        assert entry.decisions  # the segment was priced
        assert all(d.winner == "row" for d in entry.decisions)
        assert not any(
            isinstance(n, BatchSegmentPlan) for n in entry.executable.walk()
        )
        text = db.explain(SQL, sample_ratio=0.5, seed=1)
        assert "-> row" in text
        assert "batch segment" not in text

    def test_large_table_lowers_and_explain_names_the_winner(self, monkeypatch):
        # Pinned: a small REPRO_MORSEL_SIZE splits this table into enough
        # morsels that batch@dop outprices serial batch.
        monkeypatch.setenv("REPRO_MORSEL_SIZE", str(MORSEL_SIZE_DEFAULT))
        db = single_table_db(2000)
        entry, __ = db.planner.prepare(SQL, sample_ratio=0.5, seed=1)
        assert entry.decisions
        assert any(d.winner == "batch" for d in entry.decisions)
        assert any(
            isinstance(n, BatchSegmentPlan) for n in entry.executable.walk()
        )
        text = db.explain(SQL, sample_ratio=0.5, seed=1)
        assert "batch segment" in text
        assert "-> batch" in text
        assert "row cost=" in text and "batch cost=" in text

    @pytest.mark.parametrize("n", [60, 2000])
    def test_results_identical_across_modes(self, n):
        """60 rows stay tuple-at-a-time, 2000 rows lower or compile — the
        rows, scores and simulated work are the same in all four modes."""
        results = {}
        for mode in EXECUTION_MODES:
            db = single_table_db(n, execution=mode)
            result = db.query(SQL, sample_ratio=0.5, seed=1)
            results[mode] = (result.rows, result.scores, result.metrics.summary())
        rows, scores, work = results["row"]
        for mode in EXECUTION_MODES:
            assert results[mode][:2] == (rows, scores), mode
            # bulk charging sums the same cost units in a different order
            assert results[mode][2] == pytest.approx(work), mode

    def test_explain_analyze_descends_into_lowered_segment(self):
        db = single_table_db(2000)
        text = db.explain_analyze(SQL, sample_ratio=0.5, seed=1)
        assert "batch segment" in text
        assert "hybrid execution decisions" in text
        # per-operator actuals inside the segment stay visible
        assert "filter(" in text and "seqScan(T)" in text

    def test_workload_query_same_in_every_mode(self):
        """The §6 workload query: one small segment decision per strategy,
        same rows and scores in every mode."""
        results = {}
        for mode in EXECUTION_MODES:
            w = build_workload(
                WorkloadConfig(table_size=300, join_selectivity=0.04, k=8, seed=3)
            )
            w.database.planner.execution = mode
            for strategy in ("rank-aware", "traditional"):
                r = w.database.session(
                    strategy=strategy, sample_ratio=0.2, seed=1
                ).execute(
                    "SELECT * FROM A, B, C WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 "
                    "AND A.b AND B.b ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + "
                    "f4(B.p2) + f5(C.p1) LIMIT 8"
                )
                results.setdefault(strategy, []).append((r.rows, r.scores))
        for strategy, versions in results.items():
            assert all(version == versions[0] for version in versions), strategy
