"""SQL front end: lexer, parser, AST, binder for the top-k dialect."""

from .ast import (
    BinaryOpNode,
    BooleanNode,
    CallNode,
    ColumnNode,
    ExpressionNode,
    LiteralNode,
    NegateNode,
    OrderTerm,
    SelectStatement,
    TableRef,
)
from .binder import Binder, BindError, bind
from .lexer import LexError, Token, TokenType, tokenize
from .parser import ParseError, Parser, parse

__all__ = [
    "BinaryOpNode",
    "BindError",
    "Binder",
    "BooleanNode",
    "CallNode",
    "ColumnNode",
    "ExpressionNode",
    "LexError",
    "LiteralNode",
    "NegateNode",
    "OrderTerm",
    "ParseError",
    "Parser",
    "SelectStatement",
    "TableRef",
    "Token",
    "TokenType",
    "bind",
    "parse",
    "tokenize",
]
