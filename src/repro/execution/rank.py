"""The µ (rank) physical operator.

``Mu`` evaluates one additional ranking predicate ``p`` on its input stream
(ordered by ``F_P``) and emits in ``F_{P∪{p}}`` order.  It buffers tuples in
a ranking queue and releases the top tuple ``t`` once no future input tuple
can beat it: ``F_{P∪{p}}[t''] ≤ F_P[t''] ≤ threshold`` for every future
``t''`` (§4.1).  This is the single-predicate special case of the MPro/Upper
scheduling algorithms the paper builds on.

The threshold is ``F_P[t']`` of the *last tuple drawn* from the input —
exactly the emission rule of §4.1 ("the top tuple t in the queue can be
output when a t' is drawn from x such that F_{P∪{p}}[t] ≥ F_P[t']").  It
reproduces the tuple-flow counts of Figure 6 exactly.
"""

from __future__ import annotations

import math

from ..algebra.rank_relation import ScoredRow
from ..storage.schema import Schema
from .iterator import PhysicalOperator, RankingQueue


class Mu(PhysicalOperator):
    """Rank operator µ_p: evaluate predicate ``p``, reorder incrementally."""

    kind = "rank"

    def __init__(self, child: PhysicalOperator, predicate_name: str):
        super().__init__()
        self.child = child
        self.predicate_name = predicate_name
        self._queue = RankingQueue()
        self._input_exhausted = False
        #: F_P of the last drawn input tuple, clamped to F_φ when drawn
        self._last_input_bound = math.inf
        #: the predicate's compiled ``(evaluator, cost)``, resolved once at
        #: open — None when the child already evaluated it (idempotent µ)
        self._evaluator = None

    def describe(self) -> str:
        return f"rank_{self.predicate_name}"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def schema(self) -> Schema:
        return self.child.schema()

    def predicates(self) -> frozenset[str]:
        return self.child.predicates() | {self.predicate_name}

    def bound(self) -> float:
        # Future outputs are either buffered (<= queue top) or derived from
        # future input tuples, whose F_P cannot exceed the input threshold.
        if self._input_exhausted:
            return self._queue.peek_bound()
        return max(self._queue.peek_bound(), self._last_input_bound)

    def _open(self) -> None:
        context = self.context
        self.child.open(context)
        self._queue = RankingQueue()
        self._input_exhausted = False
        # min(+inf, F_φ): nothing drawn yet, so only F_φ bounds the input.
        self._last_input_bound = context.scoring.max_possible()
        self._evaluator = None
        if self.predicate_name not in self.child.predicates():
            self._evaluator = context.evaluators.entry(
                self.predicate_name, self.child.schema()
            )

    def _next(self) -> ScoredRow | None:
        context = self.context
        while True:
            threshold = -math.inf if self._input_exhausted else self._last_input_bound
            if len(self._queue) and self._queue.peek_bound() >= threshold:
                return self._queue.pop()
            if self._input_exhausted:
                if len(self._queue):
                    return self._queue.pop()
                return None
            scored = self.child.next()
            if scored is None:
                self._input_exhausted = True
                continue
            self._record_input()
            # The drawn tuple's F_P (before applying p) bounds every future
            # input tuple, because the input arrives in F_P order.  The
            # producer already computed this bound; the row carries it.
            self._last_input_bound = min(
                context.upper_bound(scored), context.scoring.max_possible()
            )
            if self.predicate_name in scored.scores:
                # Predicate already evaluated below (idempotent µ).
                updated = scored
            else:
                evaluate, cost = self._evaluator
                context.metrics.charge_predicate(cost)
                updated = scored.with_score(self.predicate_name, evaluate(scored.row))
            self._queue.push(context.upper_bound(updated), updated)

    def _close(self) -> None:
        self.child.close()
        self._queue = RankingQueue()
