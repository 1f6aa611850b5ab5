"""Selection and projection physical operators.

Both are order-preserving unary operators: σ manipulates membership only and
keeps the input's ``F_P`` order (Figure 3); π keeps membership, order and
scores while narrowing the value layout.
"""

from __future__ import annotations

from ..algebra.expressions import Evaluator
from ..algebra.predicates import BooleanPredicate
from ..algebra.rank_relation import ScoredRow
from ..storage.schema import Schema
from .iterator import PhysicalOperator


class Filter(PhysicalOperator):
    """Selection σ_c: drops non-qualifying tuples, preserves order."""

    kind = "filter"

    def __init__(self, child: PhysicalOperator, condition: BooleanPredicate):
        super().__init__()
        self.child = child
        self.condition = condition
        self._evaluator: Evaluator | None = None

    def describe(self) -> str:
        return f"filter({self.condition.name})"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def schema(self) -> Schema:
        return self.child.schema()

    def predicates(self) -> frozenset[str]:
        return self.child.predicates()

    def bound(self) -> float:
        # Filtering cannot raise any score; the child's bound still holds.
        return self.child.bound()

    def column_order(self) -> str | None:
        # Dropping tuples preserves any column order of the input.
        return self.child.column_order()

    def _open(self) -> None:
        self.child.open(self.context)
        self._evaluator = self.condition.compile(
            self.child.schema(), self.context.params
        )

    def _next(self) -> ScoredRow | None:
        assert self._evaluator is not None
        while True:
            scored = self.child.next()
            if scored is None:
                return None
            self._record_input()
            self.context.metrics.charge_boolean(cost=self.condition.cost)
            if self._evaluator(scored.row):
                return scored

    def _close(self) -> None:
        self.child.close()


class Project(PhysicalOperator):
    """Projection π: narrows the value layout, preserves order and scores."""

    kind = "project"

    def __init__(self, child: PhysicalOperator, columns: tuple[str, ...]):
        super().__init__()
        self.child = child
        self.columns = tuple(columns)
        self._positions: list[int] | None = None
        self._schema: Schema | None = None

    def describe(self) -> str:
        return f"project({', '.join(self.columns)})"

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def schema(self) -> Schema:
        if self._schema is None:
            raise RuntimeError("project not opened")
        return self._schema

    def predicates(self) -> frozenset[str]:
        return self.child.predicates()

    def bound(self) -> float:
        return self.child.bound()

    def _open(self) -> None:
        self.child.open(self.context)
        child_schema = self.child.schema()
        self._positions = [child_schema.index_of(c) for c in self.columns]
        self._schema = child_schema.project(self.columns)

    def _next(self) -> ScoredRow | None:
        assert self._positions is not None
        scored = self.child.next()
        if scored is None:
            return None
        self._record_input()
        return ScoredRow(scored.row.project(self._positions), scored.scores)

    def _close(self) -> None:
        self.child.close()
