"""Join operators: rank-aware (HRJN, NRJN) and classical baselines.

**Rank-aware joins** implement the paper's §4.2 choices:

* :class:`HRJN` — hash rank-join, after Ilyas et al. [22, 23]: a symmetric
  (pipelined) hash join over an equi-join condition that emits join results
  in descending combined upper-bound order.
* :class:`NRJN` — nested-loop rank-join: same threshold logic, but buffers
  plain lists and evaluates an arbitrary Boolean join condition on every
  pair, so it supports non-equi rank joins at quadratic pairing cost.

Both inputs arrive in their own ``F_P`` order.  A join result built from a
*future* tuple of side X can score at most the ``F_P`` of the last tuple
drawn from X (substituting an actual score for a maximal one can only lower
a monotone F), so the emission threshold is the max of the two sides'
last-drawn bounds — the rank-join "corner bound" (§4.1's rule, as in
:class:`~repro.execution.rank.Mu`).

**Classical joins** (used by traditional materialize-then-sort plans and as
baselines): :class:`NestedLoopJoin`, :class:`SortMergeJoin`,
:class:`HashJoin`.  They do *not* emit in score order; they are only valid
below a blocking :class:`~repro.execution.sort.Sort`, or when no ranking
predicates have been evaluated below them (``P = φ``, all upper bounds
equal, so any order vacuously satisfies Definition 1).
"""

from __future__ import annotations

import math
from typing import Any

from ..algebra.expressions import Evaluator
from ..algebra.predicates import BooleanPredicate
from ..algebra.rank_relation import ScoredRow
from ..storage.schema import Schema
from .iterator import PhysicalOperator, RankingQueue


class _BinaryJoin(PhysicalOperator):
    """Shared plumbing for binary joins."""

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        super().__init__()
        self.left = left
        self.right = right
        self._schema: Schema | None = None

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def schema(self) -> Schema:
        if self._schema is None:
            raise RuntimeError("join not opened")
        return self._schema

    def predicates(self) -> frozenset[str]:
        return self.left.predicates() | self.right.predicates()

    def _open_children(self) -> None:
        self.left.open(self.context)
        self.right.open(self.context)
        self._schema = self.left.schema().concat(self.right.schema())

    def _close(self) -> None:
        self.left.close()
        self.right.close()


class _RankJoin(_BinaryJoin):
    """Common machinery of the rank-aware joins: symmetric pulling, a
    ranking queue, and corner-bound emission thresholds."""

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator):
        super().__init__(left, right)
        self._queue = RankingQueue()
        self._left_done = False
        self._right_done = False
        #: F_P of each side's last drawn tuple, clamped to F_φ when drawn
        self._left_last = math.inf
        self._right_last = math.inf
        #: the corner bound, refreshed only when a side's bound or done
        #: flag changes (on a draw), not on every pull
        self._threshold = math.inf

    def bound(self) -> float:
        return max(self._queue.peek_bound(), self._corner_bound())

    def _corner_bound(self) -> float:
        """Max of the live sides' last-drawn bounds (−inf once both are
        done)."""
        candidates = []
        if not self._left_done:
            candidates.append(self._left_last)
        if not self._right_done:
            candidates.append(self._right_last)
        if not candidates:
            return -math.inf
        return max(candidates)

    def _open_rank_join(self) -> None:
        self._open_children()
        self._queue = RankingQueue()
        self._left_done = False
        self._right_done = False
        # min(+inf, F_φ) on both sides: nothing drawn yet, and the equal
        # bounds make the first draw come from the left (_choose_left's >=).
        max_possible = self.context.scoring.max_possible()
        self._left_last = max_possible
        self._right_last = max_possible
        self._threshold = max_possible

    def _next(self) -> ScoredRow | None:
        while True:
            if len(self._queue) and self._queue.peek_bound() >= self._threshold:
                return self._queue.pop()
            if self._left_done and self._right_done:
                if len(self._queue):
                    return self._queue.pop()
                return None
            self._advance_one_input()

    def _choose_left(self) -> bool:
        if self._left_done:
            return False
        if self._right_done:
            return True
        # Descend the input whose corner bound is larger: it constrains the
        # emission threshold, so advancing it unblocks the queue sooner.
        return self._left_last >= self._right_last

    def _advance_one_input(self) -> None:
        pull_left = self._choose_left()
        side = self.left if pull_left else self.right
        scored = side.next()
        if scored is None:
            if pull_left:
                self._left_done = True
            else:
                self._right_done = True
        else:
            self._record_input()
            context = self.context
            # The side's producer already computed this bound; the row
            # carries it.
            input_bound = min(
                context.upper_bound(scored), context.scoring.max_possible()
            )
            if pull_left:
                self._left_last = input_bound
            else:
                self._right_last = input_bound
        self._threshold = self._corner_bound()
        if scored is not None:
            self._absorb(scored, from_left=pull_left)

    def _absorb(self, scored: ScoredRow, from_left: bool) -> None:
        """Store the new tuple and enqueue any join results it completes."""
        raise NotImplementedError


class HRJN(_RankJoin):
    """Hash rank-join (pipelined symmetric hash join, score-ordered output).

    ``left_key``/``right_key`` name the equi-join columns of the two inputs.
    """

    kind = "HRJN"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_key: str,
        right_key: str,
    ):
        super().__init__(left, right)
        self.left_key = left_key
        self.right_key = right_key
        self._left_hash: dict[Any, list[ScoredRow]] = {}
        self._right_hash: dict[Any, list[ScoredRow]] = {}
        self._left_position = -1
        self._right_position = -1

    def describe(self) -> str:
        return f"HRJN({self.left_key}={self.right_key})"

    def _open(self) -> None:
        self._open_rank_join()
        self._left_hash = {}
        self._right_hash = {}
        self._left_position = self.left.schema().index_of(self.left_key)
        self._right_position = self.right.schema().index_of(self.right_key)

    def _absorb(self, scored: ScoredRow, from_left: bool) -> None:
        context = self.context
        if from_left:
            key = scored.row[self._left_position]
            self._left_hash.setdefault(key, []).append(scored)
            partners = self._right_hash.get(key, ())
            for partner in partners:
                context.metrics.charge_join_pair()
                merged = scored.merge(partner)
                self._queue.push(context.upper_bound(merged), merged)
        else:
            key = scored.row[self._right_position]
            self._right_hash.setdefault(key, []).append(scored)
            partners = self._left_hash.get(key, ())
            for partner in partners:
                context.metrics.charge_join_pair()
                merged = partner.merge(scored)
                self._queue.push(context.upper_bound(merged), merged)


class NRJN(_RankJoin):
    """Nested-loop rank-join: arbitrary Boolean condition, ranked output."""

    kind = "NRJN"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        condition: BooleanPredicate,
    ):
        super().__init__(left, right)
        self.condition = condition
        self._left_seen: list[ScoredRow] = []
        self._right_seen: list[ScoredRow] = []
        self._evaluator: Evaluator | None = None

    def describe(self) -> str:
        return f"NRJN({self.condition.name})"

    def _open(self) -> None:
        self._open_rank_join()
        self._left_seen = []
        self._right_seen = []
        self._evaluator = self.condition.compile(self.schema(), self.context.params)

    def _absorb(self, scored: ScoredRow, from_left: bool) -> None:
        assert self._evaluator is not None
        context = self.context
        if from_left:
            self._left_seen.append(scored)
            pairs = ((scored, partner) for partner in self._right_seen)
        else:
            self._right_seen.append(scored)
            pairs = ((partner, scored) for partner in self._left_seen)
        for left_scored, right_scored in pairs:
            context.metrics.charge_join_pair()
            context.metrics.charge_boolean(cost=self.condition.cost)
            merged = left_scored.merge(right_scored)
            if self._evaluator(merged.row):
                self._queue.push(context.upper_bound(merged), merged)


class NestedLoopJoin(_BinaryJoin):
    """Classical nested-loop join (inner side materialized; blocking inner).

    Output order: outer-major — *not* score-ordered.
    """

    kind = "nestLoop"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        condition: BooleanPredicate | None,
    ):
        super().__init__(left, right)
        self.condition = condition
        self._inner: list[ScoredRow] | None = None
        self._outer_current: ScoredRow | None = None
        self._inner_position = 0
        self._evaluator: Evaluator | None = None
        self._exhausted = False

    def describe(self) -> str:
        name = self.condition.name if self.condition else "true"
        return f"nestLoop({name})"

    def bound(self) -> float:
        if self._exhausted:
            return -math.inf
        return self.context.scoring.max_possible()

    def _open(self) -> None:
        self._open_children()
        self._inner = None
        self._outer_current = None
        self._inner_position = 0
        self._exhausted = False
        self._evaluator = (
            self.condition.compile(self.schema(), self.context.params)
            if self.condition
            else None
        )

    def _materialize_inner(self) -> None:
        inner: list[ScoredRow] = []
        while True:
            scored = self.right.next()
            if scored is None:
                break
            self._record_input()
            inner.append(scored)
        self._inner = inner

    def _next(self) -> ScoredRow | None:
        if self._inner is None:
            self._materialize_inner()
        assert self._inner is not None
        context = self.context
        while True:
            if self._outer_current is None:
                self._outer_current = self.left.next()
                if self._outer_current is None:
                    self._exhausted = True
                    return None
                self._record_input()
                self._inner_position = 0
            while self._inner_position < len(self._inner):
                partner = self._inner[self._inner_position]
                self._inner_position += 1
                context.metrics.charge_join_pair()
                merged = self._outer_current.merge(partner)
                if self._evaluator is None:
                    return merged
                assert self.condition is not None
                context.metrics.charge_boolean(cost=self.condition.cost)
                if self._evaluator(merged.row):
                    return merged
            self._outer_current = None


class SortMergeJoin(_BinaryJoin):
    """Classical sort-merge equi-join (fully blocking).

    Drains and sorts both inputs by the join key, then merges.  Output order
    is join-key order — *not* score-ordered.
    """

    kind = "sortMergeJoin"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_key: str,
        right_key: str,
    ):
        super().__init__(left, right)
        self.left_key = left_key
        self.right_key = right_key
        self._output: list[ScoredRow] | None = None
        self._position = 0

    def describe(self) -> str:
        return f"sortMergeJoin({self.left_key}={self.right_key})"

    def column_order(self) -> str | None:
        return self.left_key

    def bound(self) -> float:
        if self._output is not None and self._position >= len(self._output):
            return -math.inf
        return self.context.scoring.max_possible()

    def _open(self) -> None:
        self._open_children()
        self._output = None
        self._position = 0

    def _collect(self, side: PhysicalOperator) -> list[ScoredRow]:
        out: list[ScoredRow] = []
        while True:
            scored = side.next()
            if scored is None:
                return out
            self._record_input()
            out.append(scored)

    def _input_ordered(self, side: PhysicalOperator, key: str) -> bool:
        """Whether a child already delivers the join key's interesting
        order (e.g. a column-index scan), making its sort free."""
        return side.column_order() == key

    def _merge(self) -> None:
        context = self.context
        left_pos = self.left.schema().index_of(self.left_key)
        right_pos = self.right.schema().index_of(self.right_key)
        left_rows = self._collect(self.left)
        right_rows = self._collect(self.right)
        for side, key, rows in (
            (self.left, self.left_key, left_rows),
            (self.right, self.right_key, right_rows),
        ):
            if not self._input_ordered(side, key):
                n = len(rows)
                context.metrics.charge_comparisons(
                    int(n * max(1, math.log2(n or 1)))
                )
        left_rows.sort(key=lambda s: (s.row[left_pos], s.row.rid))
        right_rows.sort(key=lambda s: (s.row[right_pos], s.row.rid))
        output: list[ScoredRow] = []
        i = j = 0
        while i < len(left_rows) and j < len(right_rows):
            context.metrics.charge_comparisons()
            lk = left_rows[i].row[left_pos]
            rk = right_rows[j].row[right_pos]
            if lk < rk:
                i += 1
            elif lk > rk:
                j += 1
            else:
                # Emit the full cross product of the equal-key groups.
                j_end = j
                while j_end < len(right_rows) and right_rows[j_end].row[right_pos] == lk:
                    j_end += 1
                i_end = i
                while i_end < len(left_rows) and left_rows[i_end].row[left_pos] == lk:
                    i_end += 1
                for a in range(i, i_end):
                    for b in range(j, j_end):
                        context.metrics.charge_join_pair()
                        output.append(left_rows[a].merge(right_rows[b]))
                i, j = i_end, j_end
        self._output = output

    def _next(self) -> ScoredRow | None:
        if self._output is None:
            self._merge()
        assert self._output is not None
        if self._position >= len(self._output):
            return None
        scored = self._output[self._position]
        self._position += 1
        return scored


class HashJoin(_BinaryJoin):
    """Classical hash equi-join: blocking build (right), streaming probe
    (left).  Output order follows the probe input — *not* score-ordered."""

    kind = "hashJoin"

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_key: str,
        right_key: str,
    ):
        super().__init__(left, right)
        self.left_key = left_key
        self.right_key = right_key
        self._hash: dict[Any, list[ScoredRow]] | None = None
        self._pending: list[ScoredRow] = []
        self._exhausted = False

    def describe(self) -> str:
        return f"hashJoin({self.left_key}={self.right_key})"

    def bound(self) -> float:
        if self._exhausted:
            return -math.inf
        return self.context.scoring.max_possible()

    def _open(self) -> None:
        self._open_children()
        self._hash = None
        self._pending = []
        self._exhausted = False

    def _build(self) -> None:
        right_pos = self.right.schema().index_of(self.right_key)
        table: dict[Any, list[ScoredRow]] = {}
        while True:
            scored = self.right.next()
            if scored is None:
                break
            self._record_input()
            table.setdefault(scored.row[right_pos], []).append(scored)
        self._hash = table

    def _next(self) -> ScoredRow | None:
        if self._hash is None:
            self._build()
        assert self._hash is not None
        context = self.context
        left_pos = self.left.schema().index_of(self.left_key)
        while True:
            if self._pending:
                return self._pending.pop(0)
            scored = self.left.next()
            if scored is None:
                self._exhausted = True
                return None
            self._record_input()
            for partner in self._hash.get(scored.row[left_pos], ()):
                context.metrics.charge_join_pair()
                self._pending.append(scored.merge(partner))
