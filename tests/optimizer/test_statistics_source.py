"""One statistics source: the join synopsis prices every statement.

* **Selectivities** are the fraction of a table's uniform synopsis rows
  that pass a condition — for every strategy, the traditional one
  included — so traditional estimates track the rows each operator sees.
* **No sampling knobs.**  ``sample_ratio`` and the sample's ``seed`` are
  not planner, engine, session or optimizer arguments, and the planner
  holds no table sample.
* **No planning history.**  A pick does not depend on what was planned
  before it, and the CLI shell plans exactly as ``db.query`` does.
"""

import pytest

from repro.cli import ShellState
from repro.optimizer import RankAwareOptimizer, RuleBasedOptimizer
from repro.optimizer.enumeration import optimize_traditional
from repro.optimizer.explain import explain_analyze
from repro.optimizer.synopsis import WALKS, JoinSynopsis, engine_estimator
from repro.workloads import WorkloadConfig, build_workload

SHAPES = {
    "S1": "SELECT * FROM A WHERE A.b ORDER BY f1(A.p1) + f2(A.p2) LIMIT {k}",
    "S2": "SELECT * FROM A, B WHERE A.b AND A.jc1 = B.jc1 "
          "ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) LIMIT {k}",
    "S3": "SELECT * FROM A, B, C WHERE A.b AND B.b AND A.jc1 = B.jc1 "
          "AND B.jc2 = C.jc2 ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) "
          "+ f4(B.p2) + f5(C.p1) LIMIT {k}",
}
CAPPED = (
    "SELECT * FROM A WHERE A.b AND A.p1 <= :cap "
    "ORDER BY f1(A.p1) + f2(A.p2) LIMIT 10"
)
#: traditional estimates stay within this factor of the rows each node
#: consumed (blocking nodes) or emitted (every other node)
ACCURACY = 1.25


def ledger_database(table_size=2000):
    """The paper's §6 tables at the perf ledger's settings (fan-out 10)."""
    return build_workload(
        WorkloadConfig(
            table_size=table_size, join_selectivity=10 / table_size, seed=42
        )
    ).database


def statement(shape, k=10):
    return SHAPES[shape].format(k=k)


@pytest.fixture(scope="module")
def db():
    return ledger_database()


def traditional_report(db, sql, execution):
    entry, __ = db.planner.prepare(
        sql, strategy="traditional", execution=execution
    )
    return explain_analyze(
        db.catalog, entry.spec, entry.plan, estimates=entry.estimates
    )


class TestSelectivities:
    def test_the_passing_fraction_of_the_uniform_rows(self, db):
        spec = db.bind(statement("S1"))
        synopsis = JoinSynopsis(db.catalog, spec.join_conditions)
        rows = synopsis.uniform("A")
        assert len(rows) == WALKS
        condition = spec.selections[0]
        fn = condition.compile(db.catalog.table("A").schema)
        expected = sum(1 for row in rows if fn(row)) / WALKS
        assert synopsis.selectivity("A", condition.expression) == expected

    def test_a_small_table_is_its_own_uniform_rows(self):
        db = ledger_database(WALKS)
        spec = db.bind(statement("S1"))
        synopsis = JoinSynopsis(db.catalog, spec.join_conditions)
        assert synopsis.uniform("A") == list(db.catalog.table("A").rows())

    def test_analyze_redraws_the_selectivities(self):
        # Same row count, A.b flipped on every row that had it: no drift,
        # so only an explicit ANALYZE moves the estimate.
        db = ledger_database(1000)
        spec = db.bind(statement("S1"))
        expression = spec.selections[0].expression

        def estimate():
            return db.planner.synopsis(spec).selectivity("A", expression)

        before = estimate()
        b = db.catalog.table("A").schema.index_of("A.b")
        flipped = [
            row.values[:b] + (False,) + row.values[b + 1:]
            for row in db.catalog.table("A").rows()
            if row[b]
        ]
        assert db.delete_where("A", lambda row: row[b]) == len(flipped)
        db.insert("A", flipped)
        assert estimate() == before
        db.analyze()
        assert estimate() < before / 100

    def test_uniform_rows_ignore_the_walks_drawn_before(self, db):
        spec = db.bind(statement("S3"))
        walked = JoinSynopsis(db.catalog, spec.join_conditions)
        walked.walks(frozenset({"A"}))
        walked.walks(frozenset(spec.tables))
        fresh = JoinSynopsis(db.catalog, spec.join_conditions)
        assert walked.uniform("A") == fresh.uniform("A")

    def test_a_traditional_statement_draws_no_walk(self):
        db = ledger_database()
        spec = db.bind(statement("S3"))
        db.planner.prepare(spec, strategy="traditional")
        synopsis = db.planner.synopsis(spec)
        assert not synopsis._walks
        assert set(synopsis._uniform) == {"A", "B"}

    def test_a_parameter_is_priced_on_its_peeked_value(self, db):
        def sorted_rows(cap):
            entry, __ = db.planner.prepare(
                CAPPED, strategy="traditional", params={"cap": cap},
                use_cache=False, execution="row",
            )
            sort = next(node for node in entry.plan.walk() if node.blocking)
            return entry.estimates[sort.fingerprint()][0]

        assert sorted_rows(0.1) < sorted_rows(0.5) < sorted_rows(1.0)


class TestEstimateAccuracy:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_every_traditional_operator_at_2k_rows(self, db, shape):
        report = traditional_report(db, statement(shape), "row")
        assert len(report.nodes) >= 3
        for node in report.nodes:
            assert node.misestimate_factor <= ACCURACY, report.render()

    def test_traditional_plans_at_20k_rows(self):
        # The default regime: the compiled segment is one node, judged on
        # the rows it consumed (row-mode S3 would take seconds here).
        db = ledger_database(20_000)
        for shape in sorted(SHAPES):
            report = traditional_report(db, statement(shape), "auto")
            for node in report.nodes:
                assert node.misestimate_factor <= ACCURACY, report.render()


class TestNoPlanningHistory:
    def test_rank_aware_picks_after_a_traditional_statement(self):
        used = ledger_database()
        used.planner.prepare(statement("S3"), strategy="traditional")
        for k in (1, 10, 100):
            entry, __ = used.planner.prepare(statement("S3", k))
            fresh, __ = ledger_database().planner.prepare(statement("S3", k))
            assert entry.plan.fingerprint() == fresh.plan.fingerprint()
            assert entry.estimates == fresh.estimates

    def test_the_cli_shell_plans_as_the_engine_does(self):
        db = ledger_database()
        shell = ShellState(db)
        shelled = shell.execute(statement("S3"))
        queried = db.query(statement("S3"))
        assert queried.plan_cached  # the shell's entry, same signature
        assert queried.plan.fingerprint() == shelled.plan.fingerprint()


class TestRetiredKnobs:
    @pytest.mark.parametrize("knob", ["sample_ratio", "seed"])
    @pytest.mark.parametrize("strategy", ["rank-aware", "traditional"])
    def test_the_engine_rejects_them(self, db, knob, strategy):
        sql = statement("S2")
        with pytest.raises(TypeError):
            db.query(sql, strategy=strategy, **{knob: 0.5})
        with pytest.raises(TypeError):
            db.planner.prepare(sql, strategy=strategy, **{knob: 0.5})
        with pytest.raises(TypeError):
            db.explain_analyze(sql, strategy=strategy, **{knob: 0.5})
        with pytest.raises(TypeError):
            db.session(strategy=strategy, **{knob: 0.5}).execute(sql)

    @pytest.mark.parametrize("knob", ["sample", "sample_ratio", "seed"])
    def test_the_optimizers_reject_them(self, db, knob):
        spec = db.bind(statement("S2"))
        for build in (
            RankAwareOptimizer,
            RuleBasedOptimizer,
            optimize_traditional,
            engine_estimator,
        ):
            with pytest.raises(TypeError):
                build(db.catalog, spec, **{knob: None})
        with pytest.raises(TypeError):
            db.optimizer(spec, **{knob: None})

    def test_the_planner_holds_no_sample(self, db):
        assert not hasattr(db.planner, "sample")
        assert not hasattr(db.planner, "_sample_cache")
