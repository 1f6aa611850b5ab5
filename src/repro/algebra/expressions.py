"""Scalar expression trees.

Boolean conditions (``r.cuisine = 'Italian'``, ``h.price + r.price < 100``)
and cheap ranking expressions (``(200 - h.price) * 0.2``) are represented as
immutable expression trees.  An expression is *compiled* against a schema
into a plain Python closure mapping a row to a value, so per-tuple
evaluation involves no tree walking.

Expression nodes support operator overloading for convenient construction::

    col("h.price") + col("r.price") < lit(100)
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from ..storage.row import Row
from ..storage.schema import Schema

Evaluator = Callable[[Row], Any]

#: one execution's bind-variable values, by slot key (see
#: :mod:`repro.algebra.parameters`)
Params = Optional[Mapping[str, Any]]


class Expression:
    """Base class of all scalar expressions."""

    def compile(self, schema: Schema, params: Params = None) -> Evaluator:
        """Compile to a ``row -> value`` closure over the given schema; a
        bind variable compiles to its value in ``params``."""
        raise NotImplementedError

    def references(self) -> set[str]:
        """All (possibly qualified) column references in this expression."""
        out: set[str] = set()
        self._collect_references(out)
        return out

    def tables(self) -> set[str]:
        """Table qualifiers appearing in this expression's column refs."""
        return {r.partition(".")[0] for r in self.references() if "." in r}

    def _collect_references(self, out: set[str]) -> None:
        for child in self.children():
            child._collect_references(out)

    def children(self) -> Iterator["Expression"]:
        return iter(())

    # -- operator overloading ------------------------------------------
    def __add__(self, other: "Expression | float | int") -> "Arithmetic":
        return Arithmetic("+", self, _coerce(other))

    def __sub__(self, other: "Expression | float | int") -> "Arithmetic":
        return Arithmetic("-", self, _coerce(other))

    def __mul__(self, other: "Expression | float | int") -> "Arithmetic":
        return Arithmetic("*", self, _coerce(other))

    def __truediv__(self, other: "Expression | float | int") -> "Arithmetic":
        return Arithmetic("/", self, _coerce(other))

    def __lt__(self, other: "Expression | float | int") -> "Comparison":
        return Comparison("<", self, _coerce(other))

    def __le__(self, other: "Expression | float | int") -> "Comparison":
        return Comparison("<=", self, _coerce(other))

    def __gt__(self, other: "Expression | float | int") -> "Comparison":
        return Comparison(">", self, _coerce(other))

    def __ge__(self, other: "Expression | float | int") -> "Comparison":
        return Comparison(">=", self, _coerce(other))

    def eq(self, other: "Expression | float | int | str") -> "Comparison":
        """Equality comparison (named method; ``==`` is kept for identity)."""
        return Comparison("=", self, _coerce(other))

    def ne(self, other: "Expression | float | int | str") -> "Comparison":
        return Comparison("!=", self, _coerce(other))

    def and_(self, other: "Expression") -> "BooleanOp":
        return BooleanOp("and", [self, other])

    def or_(self, other: "Expression") -> "BooleanOp":
        return BooleanOp("or", [self, other])

    def not_(self) -> "BooleanOp":
        return BooleanOp("not", [self])


def _coerce(value: "Expression | float | int | str | bool") -> Expression:
    if isinstance(value, Expression):
        return value
    return Literal(value)


class ColumnRef(Expression):
    """Reference to a column by (possibly qualified) name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def compile(self, schema: Schema, params: Params = None) -> Evaluator:
        position = schema.index_of(self.name)
        return lambda row: row[position]

    def _collect_references(self, out: set[str]) -> None:
        out.add(self.name)

    def __repr__(self) -> str:
        return self.name


class Literal(Expression):
    """A constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def compile(self, schema: Schema, params: Params = None) -> Evaluator:
        value = self.value
        return lambda row: value

    def __repr__(self) -> str:
        return repr(self.value)


_ARITHMETIC_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}

_COMPARISON_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Arithmetic(Expression):
    """Binary arithmetic (``+ - * / %``); NULL-propagating."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _ARITHMETIC_OPS:
            raise ValueError(f"unknown arithmetic operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def compile(self, schema: Schema, params: Params = None) -> Evaluator:
        fn = _ARITHMETIC_OPS[self.op]
        left = self.left.compile(schema, params)
        right = self.right.compile(schema, params)

        def evaluate(row: Row) -> Any:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return None
            return fn(a, b)

        return evaluate

    def children(self) -> Iterator[Expression]:
        yield self.left
        yield self.right

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class Comparison(Expression):
    """Binary comparison; NULL compares to False (SQL three-valued logic
    collapsed to two-valued, which suffices for this engine)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def compile(self, schema: Schema, params: Params = None) -> Evaluator:
        fn = _COMPARISON_OPS[self.op]
        left = self.left.compile(schema, params)
        right = self.right.compile(schema, params)

        def evaluate(row: Row) -> bool:
            a = left(row)
            b = right(row)
            if a is None or b is None:
                return False
            return fn(a, b)

        return evaluate

    def children(self) -> Iterator[Expression]:
        yield self.left
        yield self.right

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class BooleanOp(Expression):
    """N-ary AND / OR or unary NOT over Boolean sub-expressions."""

    __slots__ = ("op", "operands")

    def __init__(self, op: str, operands: Sequence[Expression]):
        if op not in ("and", "or", "not"):
            raise ValueError(f"unknown boolean operator: {op!r}")
        if op == "not" and len(operands) != 1:
            raise ValueError("NOT takes exactly one operand")
        if op in ("and", "or") and not operands:
            raise ValueError(f"{op.upper()} needs at least one operand")
        self.op = op
        self.operands = tuple(operands)

    def compile(self, schema: Schema, params: Params = None) -> Evaluator:
        compiled = [operand.compile(schema, params) for operand in self.operands]
        if self.op == "not":
            inner = compiled[0]
            return lambda row: not inner(row)
        if self.op == "and":
            return lambda row: all(fn(row) for fn in compiled)
        return lambda row: any(fn(row) for fn in compiled)

    def children(self) -> Iterator[Expression]:
        return iter(self.operands)

    def __repr__(self) -> str:
        if self.op == "not":
            return f"(not {self.operands[0]!r})"
        joiner = f" {self.op} "
        return "(" + joiner.join(repr(o) for o in self.operands) + ")"


class FunctionCall(Expression):
    """Call of a named Python function over sub-expression arguments."""

    __slots__ = ("name", "fn", "args")

    def __init__(self, name: str, fn: Callable[..., Any], args: Sequence[Expression]):
        self.name = name
        self.fn = fn
        self.args = tuple(args)

    def compile(self, schema: Schema, params: Params = None) -> Evaluator:
        compiled = [arg.compile(schema, params) for arg in self.args]
        fn = self.fn
        return lambda row: fn(*(c(row) for c in compiled))

    def children(self) -> Iterator[Expression]:
        return iter(self.args)

    def __repr__(self) -> str:
        args = ", ".join(repr(a) for a in self.args)
        return f"{self.name}({args})"


def col(name: str) -> ColumnRef:
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    """Shorthand constructor for a literal."""
    return Literal(value)


def conjunction(terms: Sequence[Expression]) -> Expression:
    """AND together a non-empty sequence of terms (single term passes through)."""
    if not terms:
        raise ValueError("conjunction of zero terms")
    if len(terms) == 1:
        return terms[0]
    return BooleanOp("and", list(terms))


def split_conjuncts(expression: Expression) -> list[Expression]:
    """Flatten nested ANDs into a list of conjuncts (selection splitting)."""
    if isinstance(expression, BooleanOp) and expression.op == "and":
        out: list[Expression] = []
        for operand in expression.operands:
            out.extend(split_conjuncts(operand))
        return out
    return [expression]
