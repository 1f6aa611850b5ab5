"""The blocking τ_F and its compiled twin: the row :class:`Sort` and the
:class:`~repro.execution.codegen.CompiledSegment` that replaces it on a
sort-topped segment keep the same contracts — top-k under λ_k, the full
ordering without it, ``P`` = every predicate, ``bound()`` = the next
pending tuple's score — and the same output and counters."""

from __future__ import annotations

import math

import pytest

from repro.execution import ExecutionContext, Limit, SeqScan, Sort, run_plan
from repro.execution.codegen import CompiledSegment, compile_segment
from repro.optimizer.plans import BatchSegmentPlan, SeqScanPlan, SortPlan

from tests.conftest import assert_descending, assert_same_work


def ctx(paper_db):
    return ExecutionContext(paper_db.catalog, paper_db.F2)


def sequence(out):
    """The full observable output: (rid, values, scores) per tuple."""
    return [(s.row.rid, s.row.values, dict(s.scores)) for s in out]


def run_rows(paper_db, plan):
    context = ctx(paper_db)
    return sequence(run_plan(plan, context)), context.metrics


def compiled_sort(paper_db) -> CompiledSegment:
    """A fresh compiled twin of ``Sort(SeqScan("S"))`` under F2."""
    inner = SortPlan(SeqScanPlan("S"), frozenset(paper_db.F2.predicate_names))
    artifact = compile_segment(inner, paper_db.catalog, paper_db.F2)
    return BatchSegmentPlan(inner, artifact).build()


class TestRowSortTopK:
    def test_row_sort_topk_hint_same_prefix(self, paper_db):
        full, __ = run_rows(paper_db, Sort(SeqScan("S")))
        limited, metrics = run_rows(paper_db, Limit(Sort(SeqScan("S")), 3))
        assert limited == full[:3]

    def test_topk_sort_charges_fewer_comparisons(self, paper_db):
        __, full = run_rows(paper_db, Limit(Sort(SeqScan("S")), 6))
        __, topk = run_rows(paper_db, Limit(Sort(SeqScan("S")), 2))
        assert topk.comparisons < full.comparisons

    def test_notify_limit_does_not_leak_without_limit(self, paper_db):
        # A cursor-style consumer (no λ) must see the full ordering.
        sort = Sort(SeqScan("S"))
        assert sort.fetch_limit is None
        out, __ = run_rows(paper_db, sort)
        assert len(out) == 6


class TestCompiledSegment:
    def test_matches_row_sort(self, paper_db):
        row_out, row_metrics = run_rows(paper_db, Sort(SeqScan("S")))
        compiled_out, compiled_metrics = run_rows(paper_db, compiled_sort(paper_db))
        assert compiled_out == row_out
        assert_same_work(compiled_metrics.summary(), row_metrics.summary())
        assert_descending([sum(s.values()) for __, __, s in compiled_out])

    @pytest.mark.parametrize("k", [1, 3, 6, 10])
    def test_topk_under_limit_matches_row(self, paper_db, k):
        row_out, row_metrics = run_rows(paper_db, Limit(Sort(SeqScan("S")), k))
        compiled_out, compiled_metrics = run_rows(
            paper_db, Limit(compiled_sort(paper_db), k)
        )
        assert compiled_out == row_out
        assert_same_work(compiled_metrics.summary(), row_metrics.summary())

    def test_bound_contract(self, paper_db):
        context = ctx(paper_db)
        segment = compiled_sort(paper_db)
        segment.open(context)
        assert segment.predicates() == frozenset(("p3", "p4", "p5"))
        # Nothing run yet: only F_φ bounds the output.
        assert segment.bound() == pytest.approx(3.0)
        first = segment.next()
        assert first is not None
        # Ordered output: the bound is the next pending tuple's score.
        second_bound = segment.bound()
        assert second_bound <= context.upper_bound(first)
        second = segment.next()
        assert context.upper_bound(second) == second_bound
        while segment.next() is not None:
            pass
        assert segment.bound() == -math.inf
        segment.close()

    def test_cursor_without_limit_gets_the_full_ordering(self, paper_db):
        segment = compiled_sort(paper_db)
        assert segment.fetch_limit is None
        out, __ = run_rows(paper_db, segment)
        assert len(out) == 6

    def test_partial_pull_charges_one_move_per_emitted_tuple(self, paper_db):
        """A consumer that stops early pays for what it pulled, exactly as
        it would above the row sort."""
        results = []
        for root in (Sort(SeqScan("S")), compiled_sort(paper_db)):
            context = ctx(paper_db)
            root.open(context)
            pulled = [root.next() for __ in range(2)]
            root.close()
            results.append((sequence(pulled), context.metrics.tuples_moved))
        assert results[0] == results[1]

    def test_reopen_runs_the_function_again(self, paper_db):
        segment = compiled_sort(paper_db)
        first, __ = run_rows(paper_db, segment)
        again, __ = run_rows(paper_db, segment)
        assert again == first
