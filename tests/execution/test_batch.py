"""Unit tests for the batched columnar path: Batch, the batch operators,
the BatchToRow frontier adapter, the top-k sorts, and the storage-side
columnar view / bulk-insert fast paths that feed them."""

from __future__ import annotations

import math

import pytest

from repro.algebra.expressions import col
from repro.algebra.predicates import BooleanPredicate
from repro.execution import (
    BATCH_SIZE,
    BatchColumnOrderScan,
    BatchFilter,
    BatchHashJoin,
    BatchNestedLoopJoin,
    BatchProject,
    BatchScan,
    BatchSort,
    BatchSortMergeJoin,
    BatchToRow,
    ExecutionContext,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    Project,
    SeqScan,
    Sort,
    SortMergeJoin,
    run_plan,
)
from repro.storage import Catalog, ColumnIndex, DataType, Schema

from tests.conftest import assert_descending


def ctx(paper_db, scoring=None):
    return ExecutionContext(paper_db.catalog, scoring or paper_db.F2)


def sequence(out):
    """The full observable output: (rid, values, scores) per tuple."""
    return [(s.row.rid, s.row.values, dict(s.scores)) for s in out]


def run_rows(paper_db, plan, scoring=None):
    context = ctx(paper_db, scoring)
    return sequence(run_plan(plan, context)), context.metrics


class TestBatchScan:
    def test_matches_seqscan(self, paper_db):
        row_out, row_metrics = run_rows(paper_db, SeqScan("S"))
        batch_out, batch_metrics = run_rows(paper_db, BatchToRow(BatchScan("S")))
        assert batch_out == row_out
        assert batch_metrics.tuples_scanned == row_metrics.tuples_scanned

    def test_bound_contract(self, paper_db):
        context = ctx(paper_db)
        adapter = BatchToRow(BatchScan("S"))
        adapter.open(context)
        assert adapter.bound() == pytest.approx(3.0)  # F_phi of F2
        assert adapter.predicates() == frozenset()
        while adapter.next() is not None:
            pass
        assert adapter.bound() == -math.inf
        adapter.close()

    def test_columnar_view_invalidated_by_insert(self):
        table = Catalog().create_table(
            "T", Schema.of(("k", DataType.INT), ("x", DataType.FLOAT))
        )
        table.insert_many([(1, 0.5), (2, 0.25)])
        view = table.columns()
        assert len(view) == 2
        assert view is table.columns()  # cached
        table.insert((9, 0.75))
        fresh = table.columns()
        assert fresh is not view
        assert len(fresh) == 3
        assert fresh.columns[0] == [1, 2, 9]
        assert fresh.rids == [r.rid for r in table.rows()]


class TestBatchColumnOrderScan:
    def test_matches_index_scan_order(self, paper_db):
        out, __ = run_rows(paper_db, BatchToRow(BatchColumnOrderScan("S", "S.a")))
        values = [v[1][0] for v in out]
        assert values == sorted(values)

    def test_fallback_without_index(self, paper_db):
        # No column index exists on S.c: transient sort, comparisons charged.
        context = ctx(paper_db)
        out = run_plan(BatchToRow(BatchColumnOrderScan("S", "S.c")), context)
        values = [s.row[1] for s in out]
        assert values == sorted(values)
        assert context.metrics.comparisons > 0


class TestBatchFilterProjectLimit:
    def test_filter_matches_row_filter(self, paper_db):
        condition = BooleanPredicate(col("S.a") > 1, "a>1")
        row_out, row_metrics = run_rows(paper_db, Filter(SeqScan("S"), condition))
        batch_out, batch_metrics = run_rows(
            paper_db, BatchToRow(BatchFilter(BatchScan("S"), condition))
        )
        assert batch_out == row_out
        assert batch_metrics.boolean_evaluations == row_metrics.boolean_evaluations

    def test_project_matches_row_project(self, paper_db):
        columns = ("S.c", "S.a")
        row_out, __ = run_rows(paper_db, Project(SeqScan("S"), columns))
        batch_out, __ = run_rows(
            paper_db, BatchToRow(BatchProject(BatchScan("S"), columns))
        )
        assert batch_out == row_out


class TestBatchJoins:
    def test_hash_join_same_order_as_row(self, paper_db):
        row_out, row_metrics = run_rows(
            paper_db, HashJoin(SeqScan("R"), SeqScan("S"), "R.a", "S.a")
        )
        batch_out, batch_metrics = run_rows(
            paper_db,
            BatchToRow(BatchHashJoin(BatchScan("R"), BatchScan("S"), "R.a", "S.a")),
        )
        assert batch_out == row_out
        assert batch_metrics.join_pairs_examined == row_metrics.join_pairs_examined

    def test_sort_merge_join_same_order_as_row(self, paper_db):
        row_out, row_metrics = run_rows(
            paper_db, SortMergeJoin(SeqScan("R"), SeqScan("S"), "R.a", "S.a")
        )
        batch_out, batch_metrics = run_rows(
            paper_db,
            BatchToRow(
                BatchSortMergeJoin(BatchScan("R"), BatchScan("S"), "R.a", "S.a")
            ),
        )
        assert batch_out == row_out
        assert batch_metrics.join_pairs_examined == row_metrics.join_pairs_examined
        assert batch_metrics.comparisons == row_metrics.comparisons

    def test_nested_loop_join_same_order_as_row(self, paper_db):
        condition = BooleanPredicate(col("R.a") < col("S.a"), "R.a<S.a")
        row_out, row_metrics = run_rows(
            paper_db, NestedLoopJoin(SeqScan("R"), SeqScan("S"), condition)
        )
        batch_out, batch_metrics = run_rows(
            paper_db,
            BatchToRow(
                BatchNestedLoopJoin(BatchScan("R"), BatchScan("S"), condition)
            ),
        )
        assert batch_out == row_out
        assert batch_metrics.join_pairs_examined == row_metrics.join_pairs_examined


class TestBatchSortAndTopK:
    def test_batch_sort_matches_row_sort(self, paper_db):
        row_out, row_metrics = run_rows(paper_db, Sort(SeqScan("S")))
        batch_out, batch_metrics = run_rows(
            paper_db, BatchToRow(BatchSort(BatchScan("S")))
        )
        assert batch_out == row_out
        assert (
            batch_metrics.predicate_evaluations == row_metrics.predicate_evaluations
        )
        assert_descending([score for __, __, s in batch_out for score in [sum(s.values())]])

    def test_batch_sort_carries_full_predicate_set(self, paper_db):
        context = ctx(paper_db)
        adapter = BatchToRow(BatchSort(BatchScan("S")))
        adapter.open(context)
        assert adapter.predicates() == frozenset(("p3", "p4", "p5"))
        first = adapter.next()
        assert first is not None
        # Sorted frontier: the bound is the next pending tuple's score.
        assert adapter.bound() <= context.upper_bound(first)
        adapter.close()

    def test_row_sort_topk_hint_same_prefix(self, paper_db):
        full, __ = run_rows(paper_db, Sort(SeqScan("S")))
        limited, metrics = run_rows(paper_db, Limit(Sort(SeqScan("S")), 3))
        assert limited == full[:3]

    def test_topk_sort_charges_fewer_comparisons(self, paper_db):
        __, full = run_rows(paper_db, Limit(Sort(SeqScan("S")), 6))
        __, topk = run_rows(paper_db, Limit(Sort(SeqScan("S")), 2))
        assert topk.comparisons < full.comparisons

    def test_batch_sort_topk_hint_same_prefix(self, paper_db):
        full, __ = run_rows(paper_db, BatchToRow(BatchSort(BatchScan("S"))))
        limited, __ = run_rows(
            paper_db, Limit(BatchToRow(BatchSort(BatchScan("S"))), 3)
        )
        assert limited == full[:3]

    def test_notify_limit_does_not_leak_without_limit(self, paper_db):
        # A cursor-style consumer (no λ) must see the full ordering.
        sort = Sort(SeqScan("S"))
        assert sort.fetch_limit is None
        out, __ = run_rows(paper_db, sort)
        assert len(out) == 6


class TestBulkInsert:
    def schema(self):
        return Schema.of(("k", DataType.INT), ("x", DataType.FLOAT))

    def test_insert_many_equivalent_to_loop(self):
        catalog_a, catalog_b = Catalog(), Catalog()
        bulk = catalog_a.create_table("T", self.schema())
        loop = catalog_b.create_table("T", self.schema())
        for table in (bulk, loop):
            table.attach_index(ColumnIndex("T_k_idx", table.schema, "T.k"))
        rows = [(i % 3, i / 10.0) for i in range(25)]
        assert bulk.insert_many(rows) == 25
        for values in rows:
            loop.insert(values)
        assert [r.values for r in bulk.rows()] == [r.values for r in loop.rows()]
        bulk_index = bulk.find_index(key="T.k")
        loop_index = loop.find_index(key="T.k")
        assert [r.rid for r in bulk_index.scan_ascending()] == [
            r.rid for r in loop_index.scan_ascending()
        ]

    def test_insert_many_validates_before_mutating(self):
        table = Catalog().create_table("T", self.schema())
        table.insert_many([(1, 0.5)])
        with pytest.raises(Exception):
            table.insert_many([(2, 0.25), ("bad", 0.75)])
        # The failed batch left no partial state behind.
        assert table.row_count == 1

    def test_bulk_insert_merges_into_existing_index(self):
        table = Catalog().create_table("T", self.schema())
        table.attach_index(ColumnIndex("T_k_idx", table.schema, "T.k"))
        table.insert_many([(5, 0.1), (1, 0.2)])
        table.insert_many([(3, 0.3), (0, 0.4), (9, 0.5)])
        index = table.find_index(key="T.k")
        keys = [r[0] for r in index.scan_ascending()]
        assert keys == sorted(keys)
        assert len(keys) == 5


class TestFrontierVectorization:
    """The µ-frontier prescore and σ-frontier prefilter hooks."""

    def test_mu_prescore_identical_output_and_charges(self, paper_db):
        from repro.execution import Mu

        row_out, row_metrics = run_rows(paper_db, Mu(SeqScan("S"), "p3"))
        batch_out, batch_metrics = run_rows(
            paper_db, Mu(BatchToRow(BatchScan("S")), "p3")
        )
        assert batch_out == row_out
        assert (
            batch_metrics.predicate_evaluations
            == row_metrics.predicate_evaluations
        )
        assert (
            batch_metrics.predicate_cost_units == row_metrics.predicate_cost_units
        )

    def test_mu_requests_prescore_from_frontier(self, paper_db):
        from repro.execution import Mu

        adapter = BatchToRow(BatchScan("S"))
        mu = Mu(adapter, "p3")
        mu.open(ctx(paper_db))
        assert adapter._prescore == ["p3"]
        first = mu.next()
        assert first is not None and "p3" in first.scores
        mu.close()

    def test_prescore_refused_above_batch_sort(self, paper_db):
        from repro.execution import Mu

        # Above a BatchSort frontier every predicate is already evaluated;
        # the adapter must refuse (P != φ) and µ's idempotent path applies.
        adapter = BatchToRow(BatchSort(BatchScan("S")))
        mu = Mu(adapter, "p3")
        mu.open(ctx(paper_db))
        assert adapter._prescore == []
        row_sorted, __ = run_rows(paper_db, Sort(SeqScan("S")))
        out = []
        while True:
            scored = mu.next()
            if scored is None:
                break
            out.append((scored.row.rid, scored.row.values, dict(scored.scores)))
        mu.close()
        assert out == row_sorted

    def test_prescored_frontier_bound_stays_f_phi(self, paper_db):
        from repro.execution import Mu

        context = ctx(paper_db)
        adapter = BatchToRow(BatchScan("S"))
        mu = Mu(adapter, "p3")
        mu.open(context)
        assert mu.next() is not None
        # Prescored values ride along as a cache; the adapter's bound must
        # keep describing the segment's P = φ while tuples are pending.
        if adapter._position < len(adapter._pending):
            assert adapter.bound() == pytest.approx(
                context.scoring.max_possible()
            )
        mu.close()

    def test_filter_pushes_condition_into_frontier(self, paper_db):
        condition = BooleanPredicate(col("S.a") > 1, "a>1")
        row_out, row_metrics = run_rows(paper_db, Filter(SeqScan("S"), condition))
        adapter = BatchToRow(BatchScan("S"))
        pushed = Filter(adapter, condition)
        batch_out, batch_metrics = run_rows(paper_db, pushed)
        assert batch_out == row_out
        assert (
            batch_metrics.boolean_evaluations == row_metrics.boolean_evaluations
        )
        assert batch_metrics.boolean_cost_units == pytest.approx(
            row_metrics.boolean_cost_units
        )
        # The σ node's actual-input cardinality means the same thing in
        # both modes: every tuple the condition examined, not survivors.
        row_stats = next(
            s for name, s in row_metrics.operators.items() if "filter" in name
        )
        pushed_stats = next(
            s for name, s in batch_metrics.operators.items() if "filter" in name
        )
        assert pushed_stats.tuples_in == row_stats.tuples_in
        assert pushed_stats.tuples_out == row_stats.tuples_out

    def test_prescore_rejects_unknown_consumer_predicates_gracefully(self, paper_db):
        # A second µ for a different predicate above the same frontier is
        # impossible (single parent), but repeated requests for the same
        # predicate must not duplicate work.
        context = ctx(paper_db)
        adapter = BatchToRow(BatchScan("S"))
        adapter.open(context)
        assert adapter.request_prescore("p3")
        assert adapter.request_prescore("p3")
        assert adapter._prescore == ["p3"]
        adapter.close()


class TestBatchSizeBoundary:
    def test_multi_batch_scan(self):
        catalog = Catalog()
        table = catalog.create_table(
            "big", Schema.of(("k", DataType.INT), ("x", DataType.FLOAT))
        )
        n = BATCH_SIZE + 7
        table.insert_many([(i, (i % 97) / 97.0) for i in range(n)])
        from repro.algebra.predicates import RankingPredicate, ScoringFunction

        scoring = ScoringFunction([RankingPredicate("px", ["big.x"], lambda x: x)])
        context = ExecutionContext(catalog, scoring)
        out = run_plan(BatchToRow(BatchScan("big")), context)
        assert len(out) == n
        assert [s.row.rid[0][1] for s in out] == list(range(n))
