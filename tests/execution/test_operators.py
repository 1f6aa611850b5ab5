"""Unit tests for the physical operators: scans, µ, filter, sort, limit."""

import math

import pytest

from repro.algebra.expressions import col
from repro.algebra.predicates import BooleanPredicate
from repro.execution import (
    ColumnOrderScan,
    ExecutionContext,
    Filter,
    Limit,
    Mu,
    Project,
    RankScan,
    ScanSelect,
    SeqScan,
    Sort,
    run_plan,
)
from repro.storage import MultiKeyIndex

from tests.conftest import assert_descending


def ctx(paper_db, scoring=None):
    return ExecutionContext(paper_db.catalog, scoring or paper_db.F2)


class TestSeqScan:
    def test_heap_order_and_empty_scores(self, paper_db):
        context = ctx(paper_db)
        out = run_plan(SeqScan("S"), context)
        assert len(out) == 6
        assert all(s.scores == {} for s in out)
        assert [s.row.rid[0][1] for s in out] == list(range(6))

    def test_charges_scans(self, paper_db):
        context = ctx(paper_db)
        run_plan(SeqScan("S"), context)
        assert context.metrics.tuples_scanned == 6

    def test_bound_constant_then_exhausted(self, paper_db):
        context = ctx(paper_db)
        scan = SeqScan("S")
        scan.open(context)
        assert scan.bound() == pytest.approx(3.0)
        while scan.next() is not None:
            pass
        assert scan.bound() == -math.inf
        scan.close()

    def test_next_before_open_raises(self, paper_db):
        with pytest.raises(RuntimeError):
            SeqScan("S").next()


class TestRankScan:
    def test_descending_predicate_order(self, paper_db):
        context = ctx(paper_db)
        out = run_plan(RankScan("S", "p3"), context)
        scores = [s.scores["p3"] for s in out]
        assert scores == sorted(scores, reverse=True)

    def test_no_predicate_evaluations_charged(self, paper_db):
        """Rank-scan reads precomputed index scores — free at query time."""
        context = ctx(paper_db)
        run_plan(RankScan("S", "p3"), context)
        assert context.metrics.predicate_evaluations == 0

    def test_bound_tracks_last_score(self, paper_db):
        context = ctx(paper_db)
        scan = RankScan("S", "p3")
        scan.open(context)
        first = scan.next()
        assert scan.bound() == pytest.approx(context.upper_bound(first))
        scan.close()

    def test_missing_index_raises(self, paper_db):
        context = ctx(paper_db)
        scan = RankScan("S", "p4")  # no index on p4
        with pytest.raises(RuntimeError):
            scan.open(context)


class TestColumnOrderScan:
    def test_ascending_column_order(self, paper_db):
        context = ctx(paper_db)
        out = run_plan(ColumnOrderScan("S", "S.a"), context)
        values = [s.row[0] for s in out]
        assert values == sorted(values)

    def test_missing_index_falls_back_to_transient_sort(self, paper_db):
        # No column index on S.c: the scan builds a transient sorted
        # iterator (charging the sort's comparisons) instead of raising.
        context = ctx(paper_db)
        out = run_plan(ColumnOrderScan("S", "S.c"), context)
        table = paper_db.catalog.table("S")
        position = table.schema.index_of("S.c")
        assert [s.row.rid for s in out] == [
            r.rid for r in sorted(table.rows(), key=lambda r: (r[position], r.rid))
        ]
        assert context.metrics.comparisons > 0


class TestScanSelect:
    def test_filters_and_orders(self, paper_db):
        # Build a multi-key index on (a>2 as boolean? -> use c column): the
        # schema has no bool column, so index on a synthetic flag via c==1.
        table = paper_db.catalog.table("S")
        # Use column "a" with truthiness: a is int; treat a==1 rows as True.
        index = MultiKeyIndex(
            "S_mk",
            table.schema,
            "S.a",
            "p4",
            paper_db.p4.compile(table.schema),
        )
        # MultiKeyIndex booleanizes the key column: a != 0 is always true
        # here, so use scan_matching(True) to mean "a truthy".
        table.attach_index(index)
        context = ctx(paper_db)
        out = run_plan(ScanSelect("S", "S.a", "p4"), context)
        scores = [s.scores["p4"] for s in out]
        assert scores == sorted(scores, reverse=True)
        assert len(out) == 6  # all rows have a != 0

    def test_missing_index_raises(self, paper_db):
        context = ctx(paper_db)
        with pytest.raises(RuntimeError):
            ScanSelect("S", "S.a", "p3").open(context)


class TestMu:
    def test_output_descending(self, paper_db):
        context = ctx(paper_db)
        out = run_plan(Mu(RankScan("S", "p3"), "p4"), context)
        assert_descending([context.upper_bound(s) for s in out])

    def test_adds_predicate_to_set(self, paper_db):
        context = ctx(paper_db)
        mu = Mu(RankScan("S", "p3"), "p4")
        mu.open(context)
        assert mu.predicates() == frozenset({"p3", "p4"})
        mu.close()

    def test_idempotent_when_already_evaluated(self, paper_db):
        context = ctx(paper_db)
        plan = Mu(Mu(RankScan("S", "p3"), "p4"), "p4")
        out = run_plan(plan, context)
        # Second µ_p4 re-orders nothing and charges nothing extra:
        # 6 evaluations for the inner µ only.
        assert context.metrics.predicate_evaluations == 6
        assert len(out) == 6

    def test_over_seq_scan_drains_input(self, paper_db):
        """With P = φ below, every input ties at the max bound, so µ must
        consume the entire input before emitting."""
        context = ctx(paper_db)
        mu = Mu(SeqScan("S"), "p3")
        mu.open(context)
        first = mu.next()
        assert first is not None
        assert context.metrics.tuples_scanned == 6
        mu.close()


class TestFilter:
    def test_preserves_order(self, paper_db):
        context = ctx(paper_db)
        condition = BooleanPredicate(col("S.a") > 1, "a>1")
        out = run_plan(Filter(RankScan("S", "p3"), condition), context)
        assert all(s.row[0] > 1 for s in out)
        assert_descending([context.upper_bound(s) for s in out])

    def test_charges_boolean_evaluations(self, paper_db):
        context = ctx(paper_db)
        condition = BooleanPredicate(col("S.a") > 1, "a>1")
        run_plan(Filter(SeqScan("S"), condition), context)
        assert context.metrics.boolean_evaluations == 6

    def test_bound_delegates_to_child(self, paper_db):
        context = ctx(paper_db)
        condition = BooleanPredicate(col("S.a") > 0, "true-ish")
        operator = Filter(RankScan("S", "p3"), condition)
        operator.open(context)
        operator.next()
        assert operator.bound() == operator.child.bound()
        operator.close()


class TestProject:
    def test_narrows_layout(self, paper_db):
        context = ctx(paper_db)
        out = run_plan(Project(RankScan("S", "p3"), ("S.c",)), context)
        assert all(len(s.row.values) == 1 for s in out)

    def test_preserves_scores_and_order(self, paper_db):
        context = ctx(paper_db)
        out = run_plan(Project(RankScan("S", "p3"), ("S.c", "S.a")), context)
        assert_descending([context.upper_bound(s) for s in out])
        assert all("p3" in s.scores for s in out)

    def test_schema(self, paper_db):
        context = ctx(paper_db)
        operator = Project(SeqScan("S"), ("S.c",))
        operator.open(context)
        assert operator.schema().qualified_names() == ["S.c"]
        operator.close()


class TestSortAndLimit:
    def test_sort_emits_complete_ranking(self, paper_db):
        context = ctx(paper_db)
        out = run_plan(Sort(SeqScan("S")), context)
        scores = [context.upper_bound(s) for s in out]
        assert_descending(scores)
        assert len(out) == 6

    def test_sort_is_blocking(self, paper_db):
        context = ctx(paper_db)
        sort = Sort(SeqScan("S"))
        sort.open(context)
        sort.next()
        assert context.metrics.tuples_scanned == 6
        sort.close()

    def test_sort_completes_missing_predicates_only(self, paper_db):
        context = ctx(paper_db)
        run_plan(Sort(RankScan("S", "p3")), context)
        # p3 is free; only p4 and p5 are evaluated: 12 calls.
        assert context.metrics.predicate_evaluations == 12

    def test_limit_stops_pulling(self, paper_db):
        context = ctx(paper_db)
        out = run_plan(Limit(RankScan("S", "p3"), 2), context)
        assert len(out) == 2
        assert context.metrics.tuples_scanned == 2

    def test_limit_zero(self, paper_db):
        context = ctx(paper_db)
        assert run_plan(Limit(SeqScan("S"), 0), context) == []

    def test_limit_negative_rejected(self, paper_db):
        with pytest.raises(ValueError):
            Limit(SeqScan("S"), -1)

    def test_limit_larger_than_input(self, paper_db):
        context = ctx(paper_db)
        out = run_plan(Limit(SeqScan("S"), 100), context)
        assert len(out) == 6
