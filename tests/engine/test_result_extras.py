"""QueryResult extras: CSV export, spec-based queries, determinism soak."""

import random

import pytest

from repro.engine import Database
from repro.storage import DataType
from repro.workloads import WorkloadConfig, build_workload


@pytest.fixture
def db():
    rng = random.Random(151)
    db = Database()
    db.create_table("t", [("name", DataType.TEXT), ("x", DataType.FLOAT)])
    db.insert("t", [(f"r{i}", round(rng.random(), 4)) for i in range(80)])
    db.register_predicate("px", ["t.x"], lambda x: x)
    db.create_rank_index("t", "px")
    db.analyze()
    return db


SQL = "SELECT * FROM t ORDER BY px(t.x) LIMIT 4"


class TestToCsv:
    def test_with_scores(self, db, tmp_path):
        result = db.query(SQL)
        path = tmp_path / "out.csv"
        assert result.to_csv(path) == 4
        lines = path.read_text().splitlines()
        assert lines[0] == "t.name,t.x,score"
        assert len(lines) == 5

    def test_without_scores(self, db, tmp_path):
        result = db.query(SQL)
        path = tmp_path / "out.csv"
        result.to_csv(path, include_score=False)
        assert path.read_text().splitlines()[0] == "t.name,t.x"

    def test_round_trip_back_into_engine(self, db, tmp_path):
        result = db.query(SQL)
        path = tmp_path / "out.csv"
        result.to_csv(path, include_score=False)
        other = Database()
        other.create_table("copy", [("name", DataType.TEXT), ("x", DataType.FLOAT)])
        assert other.load_csv("copy", path) == 4


class TestSpecQueries:
    def test_query_accepts_spec(self, db):
        spec = db.bind(SQL)
        result = db.query(spec)
        assert len(result) == 4

    def test_query_logical_k_override(self, db):
        from repro.algebra.operators import LogicalRank, LogicalScan

        spec = db.bind(SQL)
        logical = LogicalRank(
            LogicalScan("t", db.catalog.table("t").schema), "px"
        )
        result = db.query_logical(logical, spec, k=2)
        assert len(result) == 2


class TestDeterminismSoak:
    def test_repeated_full_pipeline_identical(self):
        workload = build_workload(
            WorkloadConfig(table_size=400, join_selectivity=0.02, seed=31, k=8)
        )
        snapshots = []
        for __ in range(3):
            result = workload.database.query(
                workload.spec
            )
            snapshots.append(
                (
                    tuple(result.rows),
                    tuple(round(s, 12) for s in result.scores),
                    result.metrics.simulated_cost,
                    result.plan.fingerprint(),
                )
            )
        assert snapshots[0] == snapshots[1] == snapshots[2]
