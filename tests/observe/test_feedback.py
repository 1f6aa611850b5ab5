"""Tests for per-operator estimated-vs-actual feedback on cached plans —
the adaptive-replanning hook."""

import pytest

from repro.cli import build_demo_database
from repro.observe.feedback import OperatorFeedback, PlanFeedback
from repro.workloads import WorkloadConfig, build_workload

SQL = (
    "SELECT * FROM hotel WHERE area < 5 "
    "ORDER BY cheap(hotel.price) + starry(hotel.stars) LIMIT 5"
)


class TestOperatorFeedback:
    def test_misestimate_factor_is_symmetric(self):
        over = OperatorFeedback("x", 0, estimated_rows=100.0)
        over.actual_out, over.executions = 10, 1
        under = OperatorFeedback("x", 0, estimated_rows=10.0)
        under.actual_out, under.executions = 100, 1
        assert over.misestimate_factor() == pytest.approx(10.0)
        assert under.misestimate_factor() == pytest.approx(10.0)

    def test_factor_none_until_observed(self):
        node = OperatorFeedback("x", 0, estimated_rows=5.0)
        assert node.misestimate_factor() is None
        node.estimated_rows = None
        node.executions = 1
        assert node.misestimate_factor() is None

    def test_zero_rows_do_not_divide_out(self):
        node = OperatorFeedback("x", 0, estimated_rows=0.0)
        node.actual_out, node.executions = 0, 2
        assert node.misestimate_factor() == pytest.approx(1.0)

    def test_a_blocking_node_is_judged_on_its_input(self):
        node = OperatorFeedback("sort", 1, estimated_rows=50.0, blocking=True)
        node.actual_in, node.actual_out, node.executions = 80, 10, 2
        assert node.misestimate_factor() == pytest.approx(50 / 40)


class TestPlanFeedbackOnCachedPlans:
    @pytest.fixture()
    def db(self):
        return build_demo_database()

    def _entry(self, db):
        entry, __ = db.planner.prepare(SQL)
        return entry

    def test_first_execution_builds_feedback(self, db):
        db.query(SQL)
        feedback = self._entry(db).feedback
        assert isinstance(feedback, PlanFeedback)
        assert feedback.nodes
        assert all(node.executions == 1 for node in feedback.nodes)
        assert feedback.nodes[0].actual_out == 5  # LIMIT 5 at the root

    def test_estimates_recorded_next_to_actuals(self, db):
        db.query(SQL)
        feedback = self._entry(db).feedback
        estimated = [n for n in feedback.nodes if n.estimated_rows is not None]
        assert estimated, "the estimator must price the nodes"

    def test_repeat_executions_accumulate(self, db):
        db.query(SQL)
        db.query(SQL)
        feedback = self._entry(db).feedback
        assert all(node.executions == 2 for node in feedback.nodes)
        root = feedback.nodes[0]
        assert root.actual_out == 10
        assert root.mean_actual_out == pytest.approx(5.0)

    def test_estimates_come_from_the_entrys_own_sample(self, db):
        # The feedback judges the estimates the plan was priced with,
        # carried on the entry — not a second estimator built afterwards.
        db.query(SQL)
        entry, __ = db.planner.prepare(SQL)
        root = entry.feedback.nodes[0]
        assert root.estimated_rows == entry.estimates[entry.plan.fingerprint()][0]
        assert len(entry.estimates) == sum(1 for __ in entry.plan.walk())

    def test_misestimates_filter(self, db):
        db.query(SQL)
        feedback = self._entry(db).feedback
        flagged = feedback.misestimates(factor=1e12)
        assert flagged == []
        for node in feedback.misestimates(factor=0.0):
            assert node.misestimate_factor() > 0.0

    def test_to_dicts_round_trips(self, db):
        db.query(SQL)
        records = self._entry(db).feedback.to_dicts()
        assert records[0]["executions"] == 1
        assert set(records[0]) == {
            "label",
            "depth",
            "estimated_rows",
            "actual_in",
            "actual_out",
            "executions",
            "misestimate_factor",
        }

    def test_shape_change_skips_instead_of_corrupting(self, db):
        db.query(SQL)
        entry = self._entry(db)
        feedback = entry.feedback
        feedback.nodes.append(OperatorFeedback("phantom", 9))
        db.query(SQL)  # recorded pairs no longer match the node count
        assert feedback.nodes[0].executions == 1


class TestOneMisestimateRule:
    """The feedback store and EXPLAIN ANALYZE judge a node alike: a sort
    (or a compiled segment topped by one) under λ on the rows it
    consumed, not on the few λ pulled."""

    S3 = (
        "SELECT * FROM A, B, C WHERE A.b AND B.b AND A.jc1 = B.jc1 "
        "AND B.jc2 = C.jc2 ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) "
        "+ f4(B.p2) + f5(C.p1) LIMIT 10"
    )

    @pytest.fixture(scope="class")
    def db(self):
        return build_workload(
            WorkloadConfig(table_size=2000, join_selectivity=0.005, seed=42)
        ).database

    @pytest.mark.parametrize("execution", ["auto", "row"])
    def test_a_traditional_plan_flags_nothing(self, db, execution):
        db.query(self.S3, strategy="traditional", execution=execution)
        entry, __ = db.planner.prepare(
            self.S3, strategy="traditional", execution=execution
        )
        blocking = [node for node in entry.feedback.nodes if node.blocking]
        assert blocking and blocking[0].actual_out == 10
        assert entry.feedback.misestimates() == []
