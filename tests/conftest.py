"""Shared fixtures: the paper's running-example relations and oracles.

``paper_db`` reproduces Figure 2 exactly: relations R, R' (same schema and
predicates p1/p2) and S (predicates p3/p4/p5), with the scoring functions
F1 = p1 + p2 and F2 = p3 + p4 + p5.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.algebra.predicates import RankingPredicate, ScoringFunction
from repro.algebra.rank_relation import rank_order_key, ScoredRow
from repro.storage import Catalog, ColumnIndex, DataType, RankIndex, Schema

# Figure 2(a)-(c): TID -> (a, b/c, p-scores...)
R_DATA = [
    # (a, b, p1, p2)
    (1, 2, 0.9, 0.65),  # r1
    (2, 3, 0.8, 0.5),   # r2
    (3, 4, 0.7, 0.7),   # r3
]

R_PRIME_DATA = [
    # (a, b, p1, p2)
    (1, 2, 0.9, 0.65),   # r'1
    (3, 4, 0.7, 0.7),    # r'2
    (5, 1, 0.75, 0.6),   # r'3
]

S_DATA = [
    # (a, c, p3, p4, p5)
    (4, 3, 0.7, 0.8, 0.9),    # s1
    (1, 1, 0.9, 0.85, 0.8),   # s2
    (1, 2, 0.5, 0.45, 0.75),  # s3
    (4, 2, 0.4, 0.7, 0.95),   # s4
    (5, 1, 0.3, 0.9, 0.6),    # s5
    (2, 3, 0.25, 0.45, 0.9),  # s6
]

# score lookups by the (a, b)/(a, c) value pairs (all unique in the data)
R_SCORES = {(a, b): (p1, p2) for a, b, p1, p2 in R_DATA}
R_PRIME_SCORES = {(a, b): (p1, p2) for a, b, p1, p2 in R_PRIME_DATA}
S_SCORES = {(a, c): (p3, p4, p5) for a, c, p3, p4, p5 in S_DATA}

RR_SCORES = dict(R_SCORES)
RR_SCORES.update(R_PRIME_SCORES)


class PaperDB:
    """The Figure 2 database with its predicates and scoring functions."""

    def __init__(self) -> None:
        self.catalog = Catalog()
        self.R = self.catalog.create_table(
            "R", Schema.of(("a", DataType.INT), ("b", DataType.INT))
        )
        self.R2 = self.catalog.create_table(
            "R2", Schema.of(("a", DataType.INT), ("b", DataType.INT))
        )
        self.S = self.catalog.create_table(
            "S", Schema.of(("a", DataType.INT), ("c", DataType.INT))
        )
        for a, b, *__ in R_DATA:
            self.R.insert([a, b])
        for a, b, *__ in R_PRIME_DATA:
            self.R2.insert([a, b])
        for a, c, *__ in S_DATA:
            self.S.insert([a, c])

        # Predicates reference *bare* columns so they resolve on R, R2 and
        # join outputs alike (the paper's R and R' share schema/predicates).
        self.p1 = RankingPredicate("p1", ["a", "b"], lambda a, b: RR_SCORES[(a, b)][0])
        self.p2 = RankingPredicate("p2", ["a", "b"], lambda a, b: RR_SCORES[(a, b)][1])
        self.p3 = RankingPredicate("p3", ["c", "S.a"], self._s_score(0))
        self.p4 = RankingPredicate("p4", ["c", "S.a"], self._s_score(1))
        self.p5 = RankingPredicate("p5", ["c", "S.a"], self._s_score(2))
        for predicate in (self.p1, self.p2, self.p3, self.p4, self.p5):
            self.catalog.register_predicate(predicate)

        self.F1 = ScoringFunction([self.p1, self.p2])
        self.F2 = ScoringFunction([self.p3, self.p4, self.p5])
        # F3 = sum(p1..p5) — used by the Figure 4(f) join example.
        self.F3 = ScoringFunction([self.p1, self.p2, self.p3, self.p4, self.p5])

        # rank indexes used by rank-scan tests (Figure 6 plans)
        self.S.attach_index(
            RankIndex("S_p3", self.S.schema, "p3", self.p3.compile(self.S.schema))
        )
        self.R.attach_index(
            RankIndex("R_p1", self.R.schema, "p1", self.p1.compile(self.R.schema))
        )
        self.S.attach_index(ColumnIndex("S_a", self.S.schema, "S.a"))

    @staticmethod
    def _s_score(position: int):
        def score(c, a):
            return S_SCORES[(a, c)][position]

        return score


@pytest.fixture
def paper_db() -> PaperDB:
    return PaperDB()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


def brute_force_topk(rows_by_table, selections, join_condition, score_fn, k):
    """Oracle: materialize, filter, score, sort — the canonical Eq. 1 form.

    ``rows_by_table`` is a list of row-lists; ``selections`` a list of
    per-table predicates (or None); ``join_condition`` takes the combined
    tuple; ``score_fn`` maps the combined tuple to its final score.
    Returns the sorted descending score list of the top k.
    """
    filtered = []
    for rows, keep in zip(rows_by_table, selections):
        filtered.append([r for r in rows if keep is None or keep(r)])
    scores = []
    for combo in itertools.product(*filtered):
        if join_condition is not None and not join_condition(combo):
            continue
        scores.append(score_fn(combo))
    scores.sort(reverse=True)
    return scores[:k]


def assert_descending(scores, tolerance=1e-9):
    """Assert a score sequence is non-increasing."""
    for earlier, later in zip(scores, scores[1:]):
        assert earlier >= later - tolerance, f"not descending: {earlier} < {later}"


def assert_same_work(got: dict, want: dict) -> None:
    """Two ``ExecutionMetrics.summary()`` dicts describe the same work:
    every integer counter exact, the float cost totals (``simulated_cost``,
    ``*_cost_units``) to 1e-9 — compiled code adds each operator's charge
    once, row mode once per tuple, so the sums round differently."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        if key == "simulated_cost" or key.endswith("_cost_units"):
            assert got[key] == pytest.approx(value, rel=1e-9), key
        else:
            assert got[key] == value, key
