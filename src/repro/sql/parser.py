"""Recursive-descent parser for the top-k SQL dialect.

Grammar (simplified)::

    select    := SELECT ('*' | column (',' column)*)
                 FROM table_ref (',' table_ref)*
                 [WHERE bool_expr]
                 [ORDER BY order_term ('+' order_term)*]
                 [LIMIT number]
    bool_expr := bool_term (OR bool_term)*
    bool_term := bool_factor (AND bool_factor)*
    bool_factor := [NOT] comparison | '(' bool_expr ')'
    comparison := additive [cmp_op additive]
    additive  := multiplicative (('+'|'-') multiplicative)*
    multiplicative := primary (('*'|'/'|'%') primary)*
    primary   := '-' primary | number | string | TRUE | FALSE | param
                 | call | column | '(' additive ')'
    param     := '?' | ':' name        -- bind variables; one style per statement
    order_term := [number '*'] (call | column | ...)
"""

from __future__ import annotations

from .ast import (
    BinaryOpNode,
    BooleanNode,
    CallNode,
    ColumnNode,
    ExpressionNode,
    LiteralNode,
    NegateNode,
    OrderTerm,
    ParameterNode,
    SelectStatement,
    TableRef,
)
from .lexer import Token, TokenType, tokenize

COMPARISON_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")


class ParseError(Exception):
    """Raised on syntax errors, with position information."""


class Parser:
    """One-statement recursive-descent parser."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.position = 0
        #: parameter slot keys in first-occurrence order
        self._parameters: list[str] = []
        self._parameter_style: str | None = None

    # -- token plumbing --------------------------------------------------
    def _peek(self) -> Token:
        return self.tokens[self.position]

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        self.position += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._peek()
        if not token.is_keyword(word):
            raise ParseError(f"expected {word.upper()} at {token.position}, got {token.value!r}")
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _accept_punct(self, value: str) -> bool:
        token = self._peek()
        if token.type is TokenType.PUNCT and token.value == value:
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        token = self._peek()
        if token.type is not TokenType.PUNCT or token.value != value:
            raise ParseError(f"expected {value!r} at {token.position}, got {token.value!r}")
        self._advance()

    def _accept_operator(self, *ops: str) -> str | None:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value in ops:
            self._advance()
            return token.value
        return None

    # -- entry point -------------------------------------------------------
    def parse(self) -> SelectStatement:
        statement = self._select()
        token = self._peek()
        if token.type is not TokenType.EOF:
            raise ParseError(f"trailing input at {token.position}: {token.value!r}")
        statement.parameters = tuple(self._parameters)
        return statement

    def _select(self) -> SelectStatement:
        self._expect_keyword("select")
        projection = self._projection()
        self._expect_keyword("from")
        tables = [self._table_ref()]
        while self._accept_punct(","):
            tables.append(self._table_ref())
        where = None
        if self._accept_keyword("where"):
            where = self._bool_expr()
        order_by: list[OrderTerm] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by = self._order_terms()
        limit = None
        if self._accept_keyword("limit"):
            token = self._advance()
            if token.type is TokenType.PARAM:
                raise ParseError(
                    f"LIMIT does not take a parameter at {token.position}; "
                    "override the result size at execution time (run(k=...)) instead"
                )
            if token.type is not TokenType.NUMBER:
                raise ParseError(f"LIMIT needs a number at {token.position}")
            limit = int(float(token.value))
        return SelectStatement(projection, tables, where, order_by, limit)

    def _projection(self) -> list[str] | None:
        token = self._peek()
        if token.type is TokenType.OPERATOR and token.value == "*":
            self._advance()
            return None
        columns = [self._column_reference()]
        while self._accept_punct(","):
            columns.append(self._column_reference())
        return columns

    def _column_reference(self) -> str:
        token = self._advance()
        if token.type is not TokenType.IDENTIFIER:
            raise ParseError(f"expected column at {token.position}, got {token.value!r}")
        name = token.value
        if self._accept_punct("."):
            part = self._advance()
            if part.type is not TokenType.IDENTIFIER:
                raise ParseError(f"expected column after '.' at {part.position}")
            return f"{name}.{part.value}"
        return name

    def _table_ref(self) -> TableRef:
        token = self._advance()
        if token.type is not TokenType.IDENTIFIER:
            raise ParseError(f"expected table name at {token.position}, got {token.value!r}")
        name = token.value
        alias = None
        self._accept_keyword("as")
        nxt = self._peek()
        if nxt.type is TokenType.IDENTIFIER:
            alias = self._advance().value
        return TableRef(name, alias)

    # -- boolean expressions -----------------------------------------------
    def _bool_expr(self) -> ExpressionNode:
        terms = [self._bool_term()]
        while self._accept_keyword("or"):
            terms.append(self._bool_term())
        if len(terms) == 1:
            return terms[0]
        return BooleanNode("or", tuple(terms))

    def _bool_term(self) -> ExpressionNode:
        factors = [self._bool_factor()]
        while self._accept_keyword("and"):
            factors.append(self._bool_factor())
        if len(factors) == 1:
            return factors[0]
        return BooleanNode("and", tuple(factors))

    def _bool_factor(self) -> ExpressionNode:
        if self._accept_keyword("not"):
            return BooleanNode("not", (self._bool_factor(),))
        saved = self.position
        if self._accept_punct("("):
            # Could be a parenthesized boolean or arithmetic expression;
            # try boolean first, fall back to comparison.
            try:
                inner = self._bool_expr()
                self._expect_punct(")")
                return inner
            except ParseError:
                self.position = saved
        return self._comparison()

    def _comparison(self) -> ExpressionNode:
        left = self._additive()
        negated = False
        if self._peek().is_keyword("not"):
            # "x NOT IN (...)" / "x NOT BETWEEN a AND b"
            saved = self.position
            self._advance()
            if self._peek().is_keyword("in") or self._peek().is_keyword("between"):
                negated = True
            else:
                self.position = saved
        if self._accept_keyword("in"):
            node = self._in_list(left)
            return BooleanNode("not", (node,)) if negated else node
        if self._accept_keyword("between"):
            node = self._between(left)
            return BooleanNode("not", (node,)) if negated else node
        op = self._accept_operator(*COMPARISON_OPS)
        if op is None:
            return left
        if op == "<>":
            op = "!="
        right = self._additive()
        return BinaryOpNode(op, left, right)

    def _in_list(self, left: ExpressionNode) -> ExpressionNode:
        """``x IN (v1, v2, ...)`` desugars to an OR of equalities."""
        self._expect_punct("(")
        values = [self._additive()]
        while self._accept_punct(","):
            values.append(self._additive())
        self._expect_punct(")")
        comparisons = tuple(BinaryOpNode("=", left, v) for v in values)
        if len(comparisons) == 1:
            return comparisons[0]
        return BooleanNode("or", comparisons)

    def _between(self, left: ExpressionNode) -> ExpressionNode:
        """``x BETWEEN lo AND hi`` desugars to ``lo <= x AND x <= hi``."""
        low = self._additive()
        self._expect_keyword("and")
        high = self._additive()
        return BooleanNode(
            "and",
            (BinaryOpNode(">=", left, low), BinaryOpNode("<=", left, high)),
        )

    # -- arithmetic -----------------------------------------------------
    def _additive(self) -> ExpressionNode:
        node = self._multiplicative()
        while True:
            op = self._accept_operator("+", "-")
            if op is None:
                return node
            node = BinaryOpNode(op, node, self._multiplicative())

    def _multiplicative(self) -> ExpressionNode:
        node = self._primary()
        while True:
            op = self._accept_operator("*", "/", "%")
            if op is None:
                return node
            node = BinaryOpNode(op, node, self._primary())

    def _primary(self) -> ExpressionNode:
        token = self._peek()
        if token.type is TokenType.NUMBER:
            self._advance()
            text = token.value
            value = float(text) if ("." in text or "e" in text.lower()) else int(text)
            return LiteralNode(value)
        if token.type is TokenType.STRING:
            self._advance()
            return LiteralNode(token.value)
        if token.is_keyword("true"):
            self._advance()
            return LiteralNode(True)
        if token.is_keyword("false"):
            self._advance()
            return LiteralNode(False)
        if token.type is TokenType.PARAM:
            return self._parameter()
        if self._accept_punct("("):
            inner = self._additive()
            self._expect_punct(")")
            return inner
        if token.type is TokenType.IDENTIFIER:
            return self._identifier_expression()
        if token.type is TokenType.OPERATOR and token.value == "-":
            # Unary minus (checked last: the common primaries pay nothing).
            self._advance()
            operand = self._primary()
            if isinstance(operand, LiteralNode) and type(operand.value) in (
                int, float
            ):
                return LiteralNode(-operand.value)
            return NegateNode(operand)
        raise ParseError(f"unexpected token {token.value!r} at {token.position}")

    def _parameter(self) -> ParameterNode:
        """A bind-variable placeholder: ``?`` (ordinal) or ``:name``.

        Slot keys must be assigned *here*, not downstream: IN/BETWEEN
        desugaring duplicates the left-hand subtree, so a binder walking
        the AST would count one textual ``?`` twice.  The style-mixing
        check is duplicated in ``ParameterSlots.declare`` deliberately —
        the parser owns the error with position info for SQL input, the
        slots guard programmatic construction.
        """
        token = self._advance()
        if token.value == "?":
            style = "positional"
            key = f"?{sum(1 for k in self._parameters if k.startswith('?')) + 1}"
        else:
            style, key = "named", token.value
        if self._parameter_style is None:
            self._parameter_style = style
        elif self._parameter_style != style:
            raise ParseError(
                f"cannot mix positional (?) and named (:name) parameters "
                f"(at {token.position})"
            )
        if style == "positional" or key not in self._parameters:
            self._parameters.append(key)
        return ParameterNode(key)

    def _identifier_expression(self) -> ExpressionNode:
        name = self._advance().value
        if self._accept_punct("("):
            args: list[ExpressionNode] = []
            if not self._accept_punct(")"):
                args.append(self._additive())
                while self._accept_punct(","):
                    args.append(self._additive())
                self._expect_punct(")")
            return CallNode(name, tuple(args))
        if self._accept_punct("."):
            part = self._advance()
            if part.type is not TokenType.IDENTIFIER:
                raise ParseError(f"expected column after '.' at {part.position}")
            return ColumnNode(name, part.value)
        return ColumnNode(None, name)

    # -- ORDER BY ----------------------------------------------------------
    def _order_terms(self) -> list[OrderTerm]:
        """Additive scoring terms, or a pure product chain (``p1 * p2``).

        A product of ranking predicates selects the multiplicative
        combiner; the two cannot be mixed in one ORDER BY.
        """
        first = self._order_term()
        if first.weight == 1.0 and self._peek_operator("*"):
            factors = [first]
            while self._accept_operator("*"):
                factors.append(self._order_term())
            terms = [
                OrderTerm(f.expression, weight=1.0, combiner="product")
                for f in factors
            ]
            self._accept_keyword("desc")
            self._accept_keyword("asc")
            return terms
        terms = [first]
        while self._accept_operator("+"):
            terms.append(self._order_term())
        # Optional trailing ASC/DESC (DESC is the natural top-k direction).
        self._accept_keyword("desc")
        self._accept_keyword("asc")
        return terms

    def _peek_operator(self, op: str) -> bool:
        token = self._peek()
        return token.type is TokenType.OPERATOR and token.value == op

    def _order_term(self) -> OrderTerm:
        token = self._peek()
        weight = 1.0
        if token.type is TokenType.NUMBER:
            # weighted term: <number> '*' <expr>
            self._advance()
            weight = float(token.value)
            op = self._accept_operator("*")
            if op is None:
                raise ParseError(
                    f"expected '*' after weight at {token.position} in ORDER BY"
                )
        expression = self._primary()
        # Division/modulo bind within a term ('+'/'*' are combiner
        # separators at this level), e.g. "(p.a + p.b) / 2".
        while True:
            op = self._accept_operator("/", "%")
            if op is None:
                break
            expression = BinaryOpNode(op, expression, self._primary())
        return OrderTerm(expression, weight)


def parse(text: str) -> SelectStatement:
    """Parse a top-k SELECT statement."""
    return Parser(text).parse()
