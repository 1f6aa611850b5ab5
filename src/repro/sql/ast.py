"""Abstract syntax tree for the top-k SQL dialect."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


# -- scalar expressions -------------------------------------------------

@dataclass(frozen=True)
class ColumnNode:
    """A (possibly table-qualified) column reference."""

    table: str | None
    name: str

    def reference(self) -> str:
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name


@dataclass(frozen=True)
class LiteralNode:
    """A numeric, string or Boolean constant."""

    value: object


@dataclass(frozen=True)
class ParameterNode:
    """A bind-variable placeholder: positional ``?`` or named ``:name``.

    ``key`` is the slot key — ``"?1"``, ``"?2"``, … for positional
    placeholders (ordinal by occurrence) or ``":name"`` for named ones.
    """

    key: str


@dataclass(frozen=True)
class BinaryOpNode:
    """Arithmetic or comparison binary operation."""

    op: str
    left: "ExpressionNode"
    right: "ExpressionNode"


@dataclass(frozen=True)
class NegateNode:
    """Unary minus over a non-literal operand (a negated number literal
    is folded into its :class:`LiteralNode` by the parser)."""

    operand: "ExpressionNode"


@dataclass(frozen=True)
class BooleanNode:
    """AND / OR / NOT."""

    op: str
    operands: tuple["ExpressionNode", ...]


@dataclass(frozen=True)
class CallNode:
    """A function call — in ORDER BY, a ranking-predicate invocation."""

    name: str
    args: tuple["ExpressionNode", ...]


ExpressionNode = Union[
    ColumnNode, LiteralNode, ParameterNode, BinaryOpNode, NegateNode,
    BooleanNode, CallNode,
]


# -- query structure ------------------------------------------------------

@dataclass(frozen=True)
class TableRef:
    """A FROM-list entry: table name with optional alias."""

    name: str
    alias: str | None = None

    @property
    def effective_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class OrderTerm:
    """One term of the ORDER BY scoring expression.

    ``weight`` supports ``0.5 * p1`` style weighted terms; ``combiner``
    records whether the terms were joined by ``+`` (sum, default) or ``*``
    (product — the paper's alternative monotone scoring function).
    """

    expression: ExpressionNode
    weight: float = 1.0
    combiner: str = "sum"


@dataclass
class SelectStatement:
    """A parsed top-k SELECT."""

    projection: list[str] | None  # None = SELECT *
    tables: list[TableRef] = field(default_factory=list)
    where: ExpressionNode | None = None
    order_by: list[OrderTerm] = field(default_factory=list)
    limit: int | None = None
    #: parameter slot keys in first-occurrence order ("?1"... or ":name")
    parameters: tuple[str, ...] = ()
