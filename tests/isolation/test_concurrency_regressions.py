"""Regression tests for the seams between transactions and the other
concurrency layers: snapshot-isolated serving and compiled execution.

* a transaction's read view must stay byte-identical while autocommit
  writers churn the same tables;
* a compiled segment executing inside a transaction-scoped snapshot must
  return exactly what the row plan returns on the same view, buffered
  writes included, and stay stable while writers churn the live tables.
"""

from __future__ import annotations

import random
import threading

from repro.engine.database import Database
from repro.storage.schema import DataType
from repro.workloads import WorkloadConfig, build_workload

#: the reader statements (a 3-way join, a µ-over-scan, a plain rank scan)
QUERIES = [
    (
        "SELECT * FROM A, B, C "
        "WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 AND A.b AND B.b "
        "ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) + f5(C.p1) "
        "LIMIT 10"
    ),
    "SELECT * FROM A WHERE A.b ORDER BY f1(A.p1) + f2(A.p2) LIMIT 8",
    "SELECT * FROM C ORDER BY f5(C.p1) LIMIT 5",
]

#: churn rows with maximal predicate inputs — they would top every ranking
#: if a transaction's view ever leaked a concurrent publication
HOT_ROWS = [(1, 1, True, 0.999, 0.999) for __ in range(5)]


def build_workload_db() -> Database:
    workload = build_workload(
        WorkloadConfig(table_size=150, join_selectivity=0.05, seed=11, k=10)
    )
    return workload.database


def transcript_of(result) -> tuple:
    return (tuple(map(tuple, result.rows)), tuple(result.scores))


class TestTransactionViewUnderChurn:
    def test_transaction_reads_are_frozen_while_writers_churn(self):
        """PR 5 seam: autocommit insert/delete churn publishes version after
        version, but every statement of an open transaction keeps reading
        the BEGIN snapshot — byte-identical transcripts throughout."""
        db = build_workload_db()
        txn = db.begin()
        baseline = {
            sql: transcript_of(
                db.query(sql, snapshot=txn.read_view())
            )
            for sql in QUERIES
        }

        stop = threading.Event()
        errors: list[BaseException] = []

        def churn() -> None:
            try:
                for __ in range(25):
                    db.insert("A", HOT_ROWS)
                    db.insert("C", HOT_ROWS)
                    db.delete_where("A", lambda row: row[3] > 0.99)
                    db.delete_where("C", lambda row: row[3] > 0.99)
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)
            finally:
                stop.set()

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            reads = 0
            while not stop.is_set() or reads == 0:
                for sql in QUERIES:
                    result = db.query(
                        sql, snapshot=txn.read_view()
                    )
                    assert transcript_of(result) == baseline[sql]
                    reads += 1
        finally:
            writer.join()
            db.close()
        assert not errors
        assert reads >= len(QUERIES)
        txn.rollback()

    def test_buffered_writes_stay_visible_and_stable_under_churn(self):
        """The transaction's own buffered rows dominate its view's rankings
        no matter what concurrent writers publish meanwhile."""
        db = build_workload_db()
        txn = db.begin()
        # a join value no generated row has (the generator draws jc1 from
        # a small range), so an indexed point read can pick the row out
        buffered_row = (999, 1, True, 0.5, 0.5)
        txn.insert(db.catalog.table("C"), [buffered_row])
        point_read = "SELECT * FROM C WHERE C.jc1 = :j"
        assert db.query(
            point_read, params={"j": 999}, snapshot=txn.read_view()
        ).rows == [buffered_row]
        # invisible outside the transaction
        assert db.query(point_read, params={"j": 999}).rows == []
        rank_expected = transcript_of(
            db.query(QUERIES[2], snapshot=txn.read_view())
        )

        stop = threading.Event()

        def churn() -> None:
            try:
                for __ in range(25):
                    db.insert("C", HOT_ROWS)
                    db.delete_where("C", lambda row: row[3] > 0.99)
            finally:
                stop.set()

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            while not stop.is_set():
                view = txn.read_view()
                assert db.query(
                    point_read, params={"j": 999}, snapshot=view
                ).rows == [buffered_row]
                rank = db.query(QUERIES[2], snapshot=view)
                assert transcript_of(rank) == rank_expected
        finally:
            writer.join()
        # ... and the buffered row never escaped into the live database
        txn.rollback()
        assert db.query(point_read, params={"j": 999}).rows == []
        db.close()


class TestCompiledExecutionInsideTransactions:
    """The compiled regime over a transaction view."""

    SQL = "SELECT * FROM T WHERE T.k > 1 ORDER BY pa(T.x) LIMIT 10"
    KNOBS = dict(strategy="traditional")

    def build_db(self, n: int = 8000) -> Database:
        db = Database(execution="auto")
        db.create_table("T", [("k", DataType.INT), ("x", DataType.FLOAT)])
        rng = random.Random(11)
        db.insert(
            "T", [(rng.randrange(5), round(rng.random(), 6)) for __ in range(n)]
        )
        db.register_predicate("pa", ["T.x"], lambda x: x)
        db.analyze()
        return db

    def test_compiled_matches_row_on_a_transaction_view(self):
        db = self.build_db()
        # the optimizer really compiles this shape (guards the test
        # against silently degrading into row-vs-row)
        assert "-> compiled" in db.explain(self.SQL, **self.KNOBS)

        txn = db.begin()
        table = db.catalog.table("T")
        # buffered writes that change the top-k: current winners out first,
        # then maximal-x rows in (a later delete with this condition would
        # match the staged rows too and unstage them)
        txn.delete_where(table, lambda row: row[1] > 0.99985)
        txn.insert(table, [(4, 0.9999994), (3, 0.9999991)])

        view = txn.read_view()
        row = db.query(self.SQL, snapshot=view, execution="row", **self.KNOBS)
        compiled = db.query(self.SQL, snapshot=view, **self.KNOBS)
        assert transcript_of(compiled) == transcript_of(row)
        # the buffered inserts won the ranking in both executions
        assert row.rows[0][1] == 0.9999994
        assert row.rows[1][1] == 0.9999991
        txn.rollback()
        db.close()

    def test_view_is_stable_under_concurrent_churn(self):
        db = self.build_db(4000)
        txn = db.begin()
        view_baseline = transcript_of(
            db.query(self.SQL, snapshot=txn.read_view(), **self.KNOBS)
        )
        stop = threading.Event()

        def churn() -> None:
            try:
                for i in range(15):
                    db.insert("T", [(4, 0.99999) for __ in range(5)])
                    db.delete_where("T", lambda row: row[1] > 0.9999)
            finally:
                stop.set()

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            while not stop.is_set():
                got = transcript_of(
                    db.query(self.SQL, snapshot=txn.read_view(), **self.KNOBS)
                )
                assert got == view_baseline
        finally:
            writer.join()
            txn.rollback()
            db.close()
