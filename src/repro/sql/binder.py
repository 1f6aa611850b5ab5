"""Binder: semantic analysis from AST to :class:`QuerySpec`.

Resolves table names and aliases against the catalog, qualifies column
references, classifies WHERE conjuncts into single-table selections and
join conditions, and turns the ORDER BY expression into a monotone scoring
function over ranking predicates:

* ``name(args...)`` — a registered ranking predicate (the paper's
  user-defined functions, e.g. ``cheap(h.price)``);
* a bare identifier naming a registered predicate;
* a column or arithmetic expression — bound as an *expression predicate*
  with zero evaluation cost; its maximal value (needed for upper-bound
  scores) is taken from table statistics.

Bind-variable placeholders (``?`` / ``:name``) become
:class:`~repro.algebra.parameters.Parameter` expressions sharing one
:class:`~repro.algebra.parameters.ParameterSlots` object per statement,
attached to the resulting spec — the foundation of template-level plan
reuse.  Parameters are allowed anywhere in WHERE (selections and join
conditions) but not in ORDER BY scoring expressions, whose maxima must be
statically known for the ranking principle's upper bounds.
"""

from __future__ import annotations

from ..algebra.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expression,
    Literal,
    split_conjuncts,
)
from ..algebra.parameters import Parameter, ParameterSlots
from ..algebra.predicates import BooleanPredicate, RankingPredicate, ScoringFunction
from ..optimizer.query_spec import JoinCondition, QuerySpec
from ..storage.catalog import Catalog
from ..storage.schema import DataType
from .ast import (
    BinaryOpNode,
    BooleanNode,
    CallNode,
    ColumnNode,
    ExpressionNode,
    LiteralNode,
    NegateNode,
    ParameterNode,
    SelectStatement,
)

#: k used when a query has ORDER BY but no LIMIT (effectively "all results").
UNBOUNDED_K = 10**9


class BindError(Exception):
    """Raised on semantic errors: unknown tables/columns/predicates."""


class Binder:
    """Binds one SELECT statement against a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        #: per-statement bind-variable slots, rebuilt by every bind() call
        self._slots = ParameterSlots()

    def bind(self, statement: SelectStatement) -> QuerySpec:
        self._slots = ParameterSlots()
        for key in statement.parameters:
            self._slots.declare(key)
        alias_map = self._bind_tables(statement)
        tables = list(alias_map.values())
        selections: list[BooleanPredicate] = []
        join_conditions: list[JoinCondition] = []
        if statement.where is not None:
            expression = self._expression(statement.where, alias_map)
            for conjunct in split_conjuncts(expression):
                predicate = BooleanPredicate(conjunct)
                if len(predicate.tables()) >= 2:
                    join_conditions.append(JoinCondition.from_predicate(predicate))
                else:
                    selections.append(predicate)
        scoring = self._scoring(statement, alias_map)
        k = statement.limit if statement.limit is not None else UNBOUNDED_K
        projection = None
        if statement.projection is not None:
            projection = [
                self._qualify(reference, alias_map) for reference in statement.projection
            ]
        return QuerySpec(
            tables=tables,
            scoring=scoring,
            k=k,
            selections=selections,
            join_conditions=join_conditions,
            projection=projection,
            parameters=self._slots if self._slots else None,
        )

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------
    def _bind_tables(self, statement: SelectStatement) -> dict[str, str]:
        """Map alias (or name) -> real table name, validating existence."""
        alias_map: dict[str, str] = {}
        for ref in statement.tables:
            if not self.catalog.has_table(ref.name):
                raise BindError(f"unknown table: {ref.name!r}")
            key = ref.effective_name
            if key in alias_map:
                raise BindError(f"duplicate table or alias: {key!r}")
            alias_map[key] = ref.name
        if len(set(alias_map.values())) != len(alias_map):
            raise BindError("self-joins are not supported (same table twice)")
        return alias_map

    # ------------------------------------------------------------------
    # scalar expressions
    # ------------------------------------------------------------------
    def _qualify(self, reference: str, alias_map: dict[str, str]) -> str:
        """Resolve a column reference to its qualified ``table.column``."""
        if "." in reference:
            prefix, __, column = reference.partition(".")
            if prefix not in alias_map:
                raise BindError(f"unknown table or alias: {prefix!r}")
            table = alias_map[prefix]
            qualified = f"{table}.{column}"
            if not self.catalog.table(table).schema.has_column(qualified):
                raise BindError(f"unknown column: {reference!r}")
            return qualified
        owners = [
            table
            for table in alias_map.values()
            if self.catalog.table(table).schema.has_column(reference)
        ]
        if not owners:
            raise BindError(f"unknown column: {reference!r}")
        if len(set(owners)) > 1:
            raise BindError(f"ambiguous column: {reference!r}")
        return f"{owners[0]}.{reference}"

    def _expression(self, node: ExpressionNode, alias_map: dict[str, str]) -> Expression:
        if isinstance(node, LiteralNode):
            return Literal(node.value)
        if isinstance(node, ParameterNode):
            return Parameter(self._slots.declare(node.key))
        if isinstance(node, ColumnNode):
            return ColumnRef(self._qualify(node.reference(), alias_map))
        if isinstance(node, BinaryOpNode):
            left = self._expression(node.left, alias_map)
            right = self._expression(node.right, alias_map)
            if node.op in ("+", "-", "*", "/", "%"):
                self._expect_parameter_types(left, right, arithmetic=True)
                return Arithmetic(node.op, left, right)
            self._expect_parameter_types(left, right, arithmetic=False)
            return Comparison(node.op, left, right)
        if isinstance(node, NegateNode):
            # ``-x`` is ``-1 * x``: exact for every number (the sign of
            # zero included) and NULL-propagating, in every regime.  On
            # text it would give '' instead of failing, so text is
            # rejected here.
            operand = self._expression(node.operand, alias_map)
            if self._is_text(operand):
                raise BindError(f"unary minus needs a number, not {operand!r}")
            minus_one = Literal(-1)
            self._expect_parameter_types(minus_one, operand, arithmetic=True)
            return Arithmetic("*", minus_one, operand)
        if isinstance(node, BooleanNode):
            return BooleanOp(
                node.op,
                [self._expression(operand, alias_map) for operand in node.operands],
            )
        if isinstance(node, CallNode):
            raise BindError(
                f"function call {node.name!r} is only allowed in ORDER BY "
                "(as a ranking predicate)"
            )
        raise BindError(f"unsupported expression node: {type(node).__name__}")

    def _is_text(self, expression: Expression) -> bool:
        if isinstance(expression, Literal):
            return isinstance(expression.value, str)
        if isinstance(expression, ColumnRef):
            table, __, __column = expression.name.partition(".")
            schema = self.catalog.table(table).schema
            return schema.column(expression.name).dtype is DataType.TEXT
        return False

    def _expect_parameter_types(
        self, left: Expression, right: Expression, arithmetic: bool
    ) -> None:
        """Infer expected binding types for parameters from their context.

        A parameter compared against a column expects that column's type;
        one compared against arithmetic, or used inside arithmetic, expects
        a number; one compared against a literal expects that literal's
        type.  Violations surface as clear
        :class:`~repro.algebra.parameters.ParameterError`\\ s at bind time
        instead of raw ``TypeError``\\ s from deep inside planning or
        execution.
        """
        for parameter, other in ((left, right), (right, left)):
            if not isinstance(parameter, Parameter):
                continue
            if arithmetic or isinstance(other, Arithmetic):
                self._slots.expect(parameter.key, DataType.FLOAT)
            elif isinstance(other, ColumnRef):
                table, __, __column = other.name.partition(".")
                dtype = self.catalog.table(table).schema.column(other.name).dtype
                if dtype is DataType.INT:
                    # Comparisons against INT columns accept any number
                    # (`stars >= 2.5` is fine); only number-vs-text and
                    # number-vs-bool mixups are errors.
                    dtype = DataType.FLOAT
                self._slots.expect(parameter.key, dtype)
            elif isinstance(other, Literal) and other.value is not None:
                dtype = DataType.infer(other.value)
                if dtype is DataType.INT:
                    dtype = DataType.FLOAT
                self._slots.expect(parameter.key, dtype)

    # ------------------------------------------------------------------
    # scoring function
    # ------------------------------------------------------------------
    def _scoring(
        self, statement: SelectStatement, alias_map: dict[str, str]
    ) -> ScoringFunction:
        if not statement.order_by:
            # Non-ranking query: order by a zero-cost constant.
            constant = RankingPredicate(
                "_unordered", [], lambda: 1.0, cost=0.0, p_max=1.0
            )
            return ScoringFunction([constant])
        predicates: list[RankingPredicate] = []
        weights: list[float] = []
        for term in statement.order_by:
            predicates.append(self._order_predicate(term.expression, alias_map))
            weights.append(term.weight)
        if all(term.combiner == "product" for term in statement.order_by) and len(
            statement.order_by
        ) > 1:
            return ScoringFunction(predicates, combiner="product")
        if any(w != 1.0 for w in weights):
            return ScoringFunction(predicates, combiner="wsum", weights=weights)
        return ScoringFunction(predicates, combiner="sum")

    def _order_predicate(
        self, node: ExpressionNode, alias_map: dict[str, str]
    ) -> RankingPredicate:
        if _contains_parameter(node):
            raise BindError(
                "parameters are not supported in ORDER BY scoring expressions: "
                "the optimizer's upper-bound pruning (Property 1) needs "
                "statically known score maxima; register a ranking predicate "
                "or inline the constant instead"
            )
        if isinstance(node, CallNode):
            if not self.catalog.has_predicate(node.name):
                raise BindError(f"unknown ranking predicate: {node.name!r}")
            return self.catalog.predicate(node.name)
        if isinstance(node, ColumnNode) and node.table is None and self.catalog.has_predicate(
            node.name
        ):
            return self.catalog.predicate(node.name)
        # Expression predicate (e.g. a raw column, or (200 - h.price) * 0.2).
        expression = self._expression(node, alias_map)
        return self._expression_predicate(expression)

    def _expression_predicate(self, expression: Expression) -> RankingPredicate:
        name = f"expr:{expression!r}"
        if self.catalog.has_predicate(name):
            return self.catalog.predicate(name)
        p_max = self._expression_maximum(expression)
        predicate = RankingPredicate(
            name, sorted(expression.references()), expression, cost=0.0, p_max=p_max
        )
        self.catalog.register_predicate(predicate)
        return predicate

    def _expression_maximum(self, expression: Expression) -> float:
        """Upper bound of an expression predicate, from column statistics.

        Falls back to 1.0 (the paper's normalized-score assumption) when no
        statistic is available.
        """
        references = expression.references()
        if isinstance(expression, ColumnRef):
            table, __, column = expression.name.partition(".")
            stats = self.catalog.stats(table).column(column)
            if stats and isinstance(stats.max_value, (int, float)):
                return max(float(stats.max_value), 1e-9)
            return 1.0
        # For compound expressions, conservatively sum component maxima.
        total = 0.0
        for reference in sorted(references):
            table, __, column = reference.partition(".")
            stats = self.catalog.stats(table).column(column)
            if stats and isinstance(stats.max_value, (int, float)):
                total += abs(float(stats.max_value))
            else:
                total += 1.0
        return max(total, 1.0)


def _contains_parameter(node: ExpressionNode) -> bool:
    """Whether an AST expression contains a bind-variable placeholder."""
    if isinstance(node, ParameterNode):
        return True
    if isinstance(node, BinaryOpNode):
        return _contains_parameter(node.left) or _contains_parameter(node.right)
    if isinstance(node, NegateNode):
        return _contains_parameter(node.operand)
    if isinstance(node, BooleanNode):
        return any(_contains_parameter(operand) for operand in node.operands)
    if isinstance(node, CallNode):
        return any(_contains_parameter(argument) for argument in node.args)
    return False


def bind(statement: SelectStatement, catalog: Catalog) -> QuerySpec:
    """Bind a parsed statement against a catalog."""
    return Binder(catalog).bind(statement)
