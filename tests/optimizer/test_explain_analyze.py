"""Tests for EXPLAIN ANALYZE (estimated vs actual per operator)."""

import pytest

from repro.optimizer import explain_analyze
from repro.workloads import WorkloadConfig, build_workload, plan2


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        WorkloadConfig(table_size=300, join_selectivity=0.02, seed=3, k=5)
    )


@pytest.fixture(scope="module")
def report(workload):
    return explain_analyze(
        workload.catalog, workload.spec, plan2(workload)
    )


class TestAnalyzeReport:
    def test_one_node_per_plan_operator(self, workload, report):
        assert len(report.nodes) == sum(1 for __ in plan2(workload).walk())

    def test_returned_rows(self, report, workload):
        assert report.returned == workload.config.k

    def test_root_actuals(self, report, workload):
        root = report.nodes[0]
        assert root.label.startswith("limit")
        assert root.actual_out == workload.config.k

    def test_estimates_populated(self, report):
        for node in report.nodes:
            assert node.estimated_rows >= 0
            assert node.estimated_cost >= 0

    def test_depths_match_tree(self, report):
        assert report.nodes[0].depth == 0
        assert max(node.depth for node in report.nodes) >= 3

    def test_render_contains_every_operator(self, report):
        text = report.render()
        for node in report.nodes:
            assert node.label in text
        assert "returned 5 rows" in text
        assert "est=" in text and "act=" in text and "in=" in text

    def test_metrics_summary_attached(self, report):
        assert report.metrics_summary["tuples_scanned"] > 0

    def test_row_operators_report_no_wall_time(self, report):
        # plan2 is a fully rank-aware (row-mode) tree: no compiled
        # segment, so no timings — the column stays absent, not zero.
        assert all(node.wall_ms is None for node in report.nodes)


class TestCompiledWallTimings:
    def test_compiled_segment_reports_wall_time(self, workload):
        plan = workload.database.planner.plan(
            workload.spec, strategy="traditional", execution="compiled"
        )
        report = explain_analyze(
            workload.catalog, workload.spec, plan
        )
        timed = [n for n in report.nodes if n.wall_ms is not None]
        assert len(timed) == 1, "the compiled segment carries its call's time"
        assert timed[0].label.startswith("compiled[")
        assert timed[0].wall_ms > 0
        assert "ms" in report.render()


class TestMisestimateFlag:
    def _report(self, estimated: float, actual: int):
        from repro.optimizer.explain import AnalyzeReport, NodeReport

        node = NodeReport(
            label="scan(t)",
            depth=0,
            estimated_rows=estimated,
            estimated_cost=10.0,
            actual_in=actual,
            actual_out=actual,
        )
        summary = {
            "simulated_cost": 0.0,
            "tuples_scanned": 0,
            "predicate_evaluations": 0,
        }
        return AnalyzeReport([node], actual, summary)

    def test_over_10x_misestimates_are_flagged(self):
        text = self._report(estimated=1000.0, actual=5).render()
        assert "!! 200.0x misestimate" in text

    def test_underestimates_flag_too(self):
        report = self._report(estimated=3.0, actual=90)
        assert report.nodes[0].misestimate_factor == pytest.approx(30.0)
        assert "misestimate" in report.render()

    def test_accurate_estimates_stay_clean(self):
        text = self._report(estimated=10.0, actual=9).render()
        assert "misestimate" not in text

    def test_blocking_nodes_are_judged_on_rows_consumed(self):
        """A sort under λ consumes its whole input but emits only the k
        rows λ pulls: its estimate (the input's) is judged on ``in``."""
        from repro.optimizer.explain import NodeReport

        def node(blocking):
            return NodeReport(
                label="sort", depth=0, estimated_rows=50_000.0,
                estimated_cost=1.0, actual_in=31_996, actual_out=10,
                blocking=blocking,
            )

        assert node(True).misestimate_factor == pytest.approx(50_000 / 31_996)
        assert node(False).misestimate_factor == pytest.approx(5_000.0)

    def test_traditional_plan_under_limit_is_not_misflagged(self):
        """Traditional S3@10 on the §6 data: the compiled sort segment
        consumes ~32k join results and returns 10; neither it nor a row
        sort is flagged for the 10."""
        db = build_workload(
            WorkloadConfig(table_size=2000, join_selectivity=0.005, seed=42)
        ).database
        sql = (
            "SELECT * FROM A, B, C "
            "WHERE A.b AND B.b AND A.jc1 = B.jc1 AND B.jc2 = C.jc2 "
            "ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) + f5(C.p1) "
            "LIMIT 10"
        )
        for execution in ("compiled", "row"):
            text = db.explain_analyze(
                sql, strategy="traditional", execution=execution
            )
            top = next(
                line for line in text.splitlines()
                if line.lstrip().startswith(("compiled[", "sort"))
            )
            assert "act=10" in top and "in=31996" in top, top
            assert "misestimate" not in top, top


class TestDatabaseEntryPoint:
    def test_explain_analyze_via_sql(self, workload):
        sql = (
            "SELECT * FROM A, B, C "
            "WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 AND A.b AND B.b "
            "ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) + f5(C.p1) "
            "LIMIT 3"
        )
        text = workload.database.explain_analyze(sql)
        assert "limit(3)" in text
        assert "est=" in text and "act=" in text
        assert "returned 3 rows" in text

    def test_default_analyzes_the_plan_query_runs(self, monkeypatch):
        """With default settings, explain_analyze(sql) must annotate the
        very plan query(sql) executes — both plan from one default sample."""
        from repro.optimizer import explain

        db = build_workload(
            WorkloadConfig(table_size=2000, join_selectivity=0.005, seed=42)
        ).database
        sql = (
            "SELECT * FROM A, B, C "
            "WHERE A.b AND B.b AND A.jc1 = B.jc1 AND B.jc2 = C.jc2 "
            "ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) + f5(C.p1) "
            "LIMIT 10"
        )
        ran = db.query(sql).plan.fingerprint()
        analyzed = []
        analyze = explain.explain_analyze

        def spy(catalog, spec, plan, **kwargs):
            analyzed.append(plan.fingerprint())
            return analyze(catalog, spec, plan, **kwargs)

        monkeypatch.setattr(explain, "explain_analyze", spy)
        db.explain_analyze(sql)
        assert analyzed == [ran]

    def test_estimates_are_the_ones_that_chose_the_plan(
        self, workload, monkeypatch
    ):
        """EXPLAIN ANALYZE judges the estimator in use: the estimates the
        cost model priced the cached plan with, not a fresh estimator's."""
        from repro.optimizer import explain

        db = workload.database
        sql = (
            "SELECT * FROM A, B WHERE A.jc1 = B.jc1 AND A.b "
            "ORDER BY f1(A.p1) + f3(B.p1) LIMIT 4"
        )
        entry, __ = db.planner.prepare(sql)
        seen = []
        analyze = explain.explain_analyze

        def spy(catalog, spec, plan, **kwargs):
            seen.append(kwargs["estimates"])
            return analyze(catalog, spec, plan, **kwargs)

        monkeypatch.setattr(explain, "explain_analyze", spy)
        text = db.explain_analyze(sql)
        assert seen == [entry.estimates]
        rows, cost = entry.estimates[entry.plan.fingerprint()]
        assert f"est={rows:,.0f}" in text.splitlines()[0]
