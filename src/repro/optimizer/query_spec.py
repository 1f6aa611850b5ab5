"""Query specification: the optimizer's input.

A :class:`QuerySpec` is the bound, canonical form of a rank-relational query
(Eq. 1): base tables, single-table Boolean selections, Boolean join
conditions, a monotone scoring function over ranking predicates, the result
size ``k`` and an optional projection list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra.expressions import Comparison, ColumnRef
from ..algebra.parameters import ParameterSlots
from ..algebra.predicates import BooleanPredicate, ScoringFunction


@dataclass(frozen=True)
class JoinCondition:
    """A Boolean join condition; equi-joins carry their key columns."""

    predicate: BooleanPredicate
    tables: frozenset[str]
    #: for equi-joins: {table: key column}; empty for general conditions
    equi_keys: tuple[tuple[str, str], ...] = ()

    @property
    def is_equi(self) -> bool:
        return len(self.equi_keys) == 2

    def key_for(self, table: str) -> str | None:
        """The equi-join key column of ``table`` under this condition."""
        for t, column in self.equi_keys:
            if t == table:
                return column
        return None

    @classmethod
    def from_predicate(cls, predicate: BooleanPredicate) -> "JoinCondition":
        """Build from a Boolean predicate, detecting equi-join shape."""
        tables = frozenset(predicate.tables())
        equi: tuple[tuple[str, str], ...] = ()
        expression = predicate.expression
        if (
            isinstance(expression, Comparison)
            and expression.op == "="
            and isinstance(expression.left, ColumnRef)
            and isinstance(expression.right, ColumnRef)
        ):
            left_table = expression.left.name.partition(".")[0]
            right_table = expression.right.name.partition(".")[0]
            if left_table != right_table and "." in expression.left.name:
                equi = (
                    (left_table, expression.left.name),
                    (right_table, expression.right.name),
                )
        return cls(predicate, tables, equi)


@dataclass
class QuerySpec:
    """The canonical rank-relational query (Eq. 1)."""

    tables: list[str]
    scoring: ScoringFunction
    k: int
    selections: list[BooleanPredicate] = field(default_factory=list)
    join_conditions: list[JoinCondition] = field(default_factory=list)
    projection: list[str] | None = None
    #: the bind-variable slots this spec's Parameter expressions name
    #: (None for fully literal queries); values travel with each execution
    parameters: ParameterSlots | None = None

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("query needs at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise ValueError("duplicate tables (self-joins need aliases)")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        for condition in self.selections:
            if len(condition.tables()) > 1:
                raise ValueError(
                    f"selection {condition.name!r} spans multiple tables; "
                    "pass it as a join condition"
                )

    def selections_on(self, table: str) -> list[BooleanPredicate]:
        """Single-table selections restricted to ``table``."""
        return [c for c in self.selections if c.tables() <= {table}]

    def join_conditions_within(self, tables: frozenset[str]) -> list[JoinCondition]:
        """Join conditions fully contained in a table set."""
        return [j for j in self.join_conditions if j.tables <= tables]

    def join_conditions_between(
        self, left: frozenset[str], right: frozenset[str]
    ) -> list[JoinCondition]:
        """Join conditions connecting two disjoint table sets."""
        out = []
        for j in self.join_conditions:
            if j.tables & left and j.tables & right and j.tables <= (left | right):
                out.append(j)
        return out

    def predicates_evaluable_on(self, tables: frozenset[str]) -> list[str]:
        """Ranking predicates whose referenced tables are all in ``tables``."""
        out = []
        for predicate in self.scoring.predicates:
            if predicate.tables() <= tables:
                out.append(predicate.name)
        return out
