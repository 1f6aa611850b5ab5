"""One arithmetic for every score: ``upper_bound``, ``combine``,
``final_score`` and ``max_possible`` must agree bit for bit.

``upper_bound`` reads a precomputed slot table instead of building a score
list and calling ``combine``; the row and compiled regimes only
produce identical results and tie orders if both routes round identically
(on Python 3.12 the builtin float ``sum`` is compensated, so a different
accumulation would drift).  Floats are therefore compared with ``==``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.predicates import RankingPredicate, ScoringFunction
from repro.execution.codegen import compile_segment
from repro.execution.iterator import ExecutionContext
from repro.optimizer.plans import SeqScanPlan, SortPlan
from repro.storage import Catalog, DataType, Schema

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def scoring_and_scores(draw):
    combiner = draw(st.sampled_from(ScoringFunction.COMBINERS))
    n = draw(st.integers(min_value=1, max_value=6))
    p_maxes = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    predicates = [
        RankingPredicate(f"p{i}", [f"t.c{i}"], lambda v: v, p_max=p_max)
        for i, p_max in enumerate(p_maxes)
    ]
    weights = None
    if combiner == "wsum":
        weights = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                min_size=n, max_size=n,
            )
        )
    scoring = ScoringFunction(predicates, combiner=combiner, weights=weights)
    full = {p.name: draw(unit) * p.p_max for p in predicates}
    evaluated = draw(st.sets(st.sampled_from(sorted(full))))
    partial = {name: full[name] for name in evaluated}
    return scoring, full, partial


def _substituted(scoring: ScoringFunction, scores) -> list[float]:
    return [scores.get(p.name, p.p_max) for p in scoring.predicates]


@settings(max_examples=300, deadline=None)
@given(scoring_and_scores())
def test_upper_bound_is_combine_over_substituted_scores(case):
    scoring, full, partial = case
    for scores in ({}, partial, full):
        assert scoring.upper_bound(scores) == scoring.combine(
            _substituted(scoring, scores)
        )


@settings(max_examples=300, deadline=None)
@given(scoring_and_scores())
def test_max_possible_is_upper_bound_of_nothing(case):
    scoring, __, __ = case
    assert scoring.max_possible() == scoring.upper_bound({})
    assert scoring.max_possible() == scoring.combine(
        [p.p_max for p in scoring.predicates]
    )


@settings(max_examples=300, deadline=None)
@given(scoring_and_scores())
def test_final_score_is_combine_over_the_full_map(case):
    scoring, full, __ = case
    ordered = [full[p.name] for p in scoring.predicates]
    assert scoring.final_score(full) == scoring.combine(ordered)
    assert scoring.final_score(full) == scoring.upper_bound(full)
    # a row rebuilt from a compiled segment's score columns
    assert scoring.upper_bound(
        dict(zip(scoring.predicate_names, ordered))
    ) == scoring.combine(ordered)


def test_combine_keeps_its_arity_check():
    scoring = ScoringFunction(
        [RankingPredicate("a", ["t.a"], lambda v: v),
         RankingPredicate("b", ["t.b"], lambda v: v)]
    )
    with pytest.raises(ValueError, match="arity"):
        scoring.combine([0.5])


def compiled_bounds(scoring: ScoringFunction, rows) -> list[float]:
    """The F column a compiled sort segment computes over ``rows`` (one
    value per predicate, in declaration order), in input order."""
    width = len(scoring.predicates)
    catalog = Catalog()
    table = catalog.create_table(
        "t", Schema.of(*((f"c{i}", DataType.FLOAT) for i in range(width)))
    )
    for row in rows:
        table.insert(list(row))
    artifact = compile_segment(SortPlan(SeqScanPlan("t")), catalog, scoring)
    items, __, bounds, __ = artifact.function(
        ExecutionContext(catalog, scoring), None
    )
    by_ordinal = {rid: bound for (__, rid), bound in zip(items, bounds)}
    return [by_ordinal[rid] for rid in sorted(by_ordinal)]


@settings(max_examples=100, deadline=None)
@given(scoring_and_scores())
def test_compiled_bounds_are_combine(case):
    """Every combiner's compiled F column (``sum`` over bare scores, the
    weighted ``sum(map(mul, W, per))``, or the baked ``combine``) equals
    ``combine`` and ``upper_bound`` bit for bit."""
    scoring, full, __ = case
    ordered = [full[p.name] for p in scoring.predicates]
    (bound,) = compiled_bounds(scoring, [ordered])
    assert bound == scoring.combine(ordered)
    assert bound == scoring.upper_bound(full)


@pytest.mark.parametrize("weights", [None, (1.0, 1.0, 1.0), (2.0, 0.5, 3.0)])
def test_compiled_bounds_where_compensated_sum_differs(weights):
    """``1e16 + 1.0 + 1.0`` is ``1e16`` summed naively and ``1e16 + 2`` by
    a compensated ``sum`` (Python 3.12+).  Whichever this Python's builtin
    does, the compiled F column does the same."""
    predicates = [
        RankingPredicate(name, [f"t.c{i}"], lambda v: v, p_max=1e16)
        for i, name in enumerate(("p0", "p1", "p2"))
    ]
    combiner = "sum" if weights is None else "wsum"
    scoring = ScoringFunction(predicates, combiner=combiner, weights=weights)
    rows = [(1e16, 1.0, 1.0), (1.0, 1e16, 1.0), (1.0, 1.0, 1e16)]
    for row, bound in zip(rows, compiled_bounds(scoring, rows)):
        scores = dict(zip(scoring.predicate_names, row))
        assert bound == scoring.combine(row)
        assert bound == scoring.upper_bound(scores)
    if weights != (2.0, 0.5, 3.0):
        naive = (1e16 + 1.0) + 1.0
        assert compiled_bounds(scoring, rows[:1]) == [sum(rows[0])]
        assert sum(rows[0]) in (naive, 1e16 + 2.0)
