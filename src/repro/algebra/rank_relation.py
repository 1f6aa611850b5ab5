"""Rank-relations: the paper's extended data model (Definition 1).

A rank-relation ``R_P`` is a relation whose tuples carry an implicit
*maximal-possible score* ``F_P[t]`` (with respect to a scoring function
``F`` and the set ``P`` of already-evaluated ranking predicates) and are
ordered by it, descending.  Ties are broken deterministically by row id.

:class:`RankRelation` here is the *reference* (materialized) semantics used
by the algebraic-law rewriter's equivalence checker and by tests; the
execution engine (:mod:`repro.execution`) produces the same sequences
incrementally.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping

from ..storage.row import Row
from .predicates import ScoringFunction


class ScoredRow:
    """A row together with its evaluated predicate scores.

    ``bound`` caches the row's ``F_P`` (``P`` = the keys of ``scores``)
    and ``bound_of`` names the :class:`ScoringFunction` it was computed
    under; the cache is valid only while ``bound_of`` is that very
    function.  Executing operators fill it through
    :meth:`repro.execution.iterator.ExecutionContext.upper_bound`, so each
    tuple's upper bound is computed once and its consumers reuse it.  A
    row read under any other scoring function (a later statement, a
    result or cursor that outlives its run) misses and recomputes.  The
    score map must not change after the bound is filled — operators derive
    new rows (:meth:`with_score`, :meth:`merge`) instead.
    """

    __slots__ = ("row", "scores", "bound", "bound_of")

    def __init__(self, row: Row, scores: Mapping[str, float]):
        self.row = row
        self.scores: dict[str, float] = dict(scores)
        self.bound = 0.0
        self.bound_of: ScoringFunction | None = None

    def __repr__(self) -> str:
        return f"ScoredRow({self.row!r}, scores={self.scores!r})"

    def with_score(self, name: str, score: float) -> "ScoredRow":
        """A copy with one more evaluated predicate score."""
        merged = dict(self.scores)
        merged[name] = score
        return ScoredRow(self.row, merged)

    def merge(self, other: "ScoredRow") -> "ScoredRow":
        """Join output: concatenated row, union of evaluated scores."""
        merged = dict(self.scores)
        merged.update(other.scores)
        return ScoredRow(self.row.concat(other.row), merged)


def rank_order_key(scoring: ScoringFunction, scored: ScoredRow) -> tuple:
    """Sort key realizing Definition 1's order: descending ``F_P``,
    then ascending row id for deterministic ties."""
    return (-scoring.upper_bound(scored.scores), scored.row.rid)


class RankRelation:
    """A materialized rank-relation: scored rows sorted per Definition 1."""

    def __init__(self, scoring: ScoringFunction, scored_rows: Iterable[ScoredRow] = ()):
        self.scoring = scoring
        self._rows = sorted(scored_rows, key=lambda s: rank_order_key(scoring, s))

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[ScoredRow]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"RankRelation(n={len(self._rows)}, scoring={self.scoring!r})"

    @property
    def rows(self) -> list[ScoredRow]:
        return list(self._rows)

    def evaluated_predicates(self) -> set[str]:
        """The predicate set ``P`` (union over rows; normally identical)."""
        out: set[str] = set()
        for scored in self._rows:
            out.update(scored.scores)
        return out

    def upper_bounds(self) -> list[float]:
        """``F_P`` scores in output order."""
        return [self.scoring.upper_bound(s.scores) for s in self._rows]

    def rids(self) -> list[tuple]:
        """Row identities in output order."""
        return [s.row.rid for s in self._rows]

    def top(self, k: int) -> list[ScoredRow]:
        """The first ``k`` rows (λ_k)."""
        if k < 0:
            raise ValueError("k must be non-negative")
        return self._rows[:k]

    def same_membership(self, other: "RankRelation") -> bool:
        """Equal as multisets of tuple *values* (membership property).

        Values, not row identities: under set semantics a union or
        intersection may keep either duplicate's identity, and the two are
        the same tuple.
        """
        return Counter(s.row.values for s in self._rows) == Counter(
            s.row.values for s in other._rows
        )

    def same_order(self, other: "RankRelation") -> bool:
        """Equal output order of row identities (order property), strictly —
        ties must also agree."""
        return self.rids() == other.rids()

    def same_ranking(self, other: "RankRelation") -> bool:
        """Order-equivalent per Definition 1: the score sequences match and
        equal-score blocks hold the same tuples (tie order is arbitrary)."""
        if len(self) != len(other):
            return False
        mine = self._score_blocks()
        theirs = other._score_blocks()
        if len(mine) != len(theirs):
            return False
        for (score_a, rows_a), (score_b, rows_b) in zip(mine, theirs):
            if abs(score_a - score_b) > 1e-9 or rows_a != rows_b:
                return False
        return True

    def _score_blocks(self) -> list[tuple[float, Counter]]:
        blocks: list[tuple[float, Counter]] = []
        for scored in self._rows:
            score = self.scoring.upper_bound(scored.scores)
            if blocks and abs(blocks[-1][0] - score) <= 1e-9:
                blocks[-1][1][scored.row.values] += 1
            else:
                blocks.append((score, Counter({scored.row.values: 1})))
        return blocks

    def equivalent(self, other: "RankRelation") -> bool:
        """Both logical properties agree: membership and ranking order
        (tie-insensitive, since Definition 1's tie-breaker is arbitrary)."""
        return self.same_membership(other) and self.same_ranking(other)
