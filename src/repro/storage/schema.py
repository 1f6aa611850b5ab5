"""Typed schemas for the storage engine.

A :class:`Schema` is an ordered list of named, typed :class:`Column` objects.
Schemas are immutable; operations that change shape (projection,
concatenation for joins) return new schemas.  Columns are addressed either by
plain name (``"price"``) or by qualified name (``"hotel.price"``) — the
qualifier is the table name or an alias assigned at scan time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence


class DataType(enum.Enum):
    """Supported column data types."""

    INT = "int"
    FLOAT = "float"
    TEXT = "text"
    BOOL = "bool"

    @classmethod
    def infer(cls, value: Any) -> "DataType":
        """Infer the data type of a Python value."""
        if isinstance(value, bool):
            return cls.BOOL
        if isinstance(value, int):
            return cls.INT
        if isinstance(value, float):
            return cls.FLOAT
        if isinstance(value, str):
            return cls.TEXT
        raise TypeError(f"unsupported value type: {type(value).__name__}")

    def validate(self, value: Any) -> bool:
        """Return True if ``value`` is acceptable for this type (None = NULL ok)."""
        if value is None:
            return True
        if self is DataType.BOOL:
            return isinstance(value, bool)
        if self is DataType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is DataType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is DataType.TEXT:
            return isinstance(value, str)
        return False


@dataclass(frozen=True)
class Column:
    """A named, typed column, optionally qualified by a table name/alias."""

    name: str
    dtype: DataType = DataType.FLOAT
    table: str | None = None

    @property
    def qualified_name(self) -> str:
        """The fully qualified ``table.name`` (or bare name if unqualified)."""
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name

    def with_table(self, table: str | None) -> "Column":
        """Return a copy of this column qualified with ``table``."""
        return Column(self.name, self.dtype, table)

    def matches(self, reference: str) -> bool:
        """Whether a (possibly qualified) column reference names this column."""
        if "." in reference:
            table, __, name = reference.partition(".")
            return self.name == name and self.table == table
        return self.name == reference


class SchemaError(Exception):
    """Raised on schema violations: unknown/ambiguous columns, arity mismatch."""


class Schema:
    """An immutable, ordered collection of columns.

    Provides positional lookup by (possibly qualified) column reference, which
    the expression compiler uses to turn names into tuple offsets.
    """

    __slots__ = ("_columns", "_by_qualified", "_hash")

    def __init__(self, columns: Iterable[Column]):
        self._columns: tuple[Column, ...] = tuple(columns)
        #: hashing walks every Column dataclass (and its DataType enum);
        #: schemas key evaluator caches, so the hash is computed once
        self._hash: int | None = None
        self._by_qualified: dict[str, int] = {}
        for i, col in enumerate(self._columns):
            self._by_qualified.setdefault(col.qualified_name, i)

    @classmethod
    def of(cls, *specs: str | tuple[str, DataType], table: str | None = None) -> "Schema":
        """Build a schema from terse specs.

        Each spec is a column name (type defaults to FLOAT) or a
        ``(name, DataType)`` pair.

        >>> Schema.of("a", ("b", DataType.INT), table="r").column_names()
        ['a', 'b']
        """
        columns = []
        for spec in specs:
            if isinstance(spec, str):
                columns.append(Column(spec, DataType.FLOAT, table))
            else:
                name, dtype = spec
                columns.append(Column(name, dtype, table))
        return cls(columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._columns)
        return self._hash

    def __repr__(self) -> str:
        cols = ", ".join(c.qualified_name for c in self._columns)
        return f"Schema({cols})"

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    def column_names(self) -> list[str]:
        """Unqualified column names in order."""
        return [c.name for c in self._columns]

    def qualified_names(self) -> list[str]:
        """Qualified column names in order."""
        return [c.qualified_name for c in self._columns]

    def index_of(self, reference: str) -> int:
        """Resolve a column reference to its tuple position.

        Raises :class:`SchemaError` for unknown or ambiguous references.
        """
        if reference in self._by_qualified:
            return self._by_qualified[reference]
        matches = [i for i, c in enumerate(self._columns) if c.matches(reference)]
        if not matches:
            raise SchemaError(f"unknown column: {reference!r} in {self!r}")
        if len(matches) > 1:
            raise SchemaError(f"ambiguous column: {reference!r} in {self!r}")
        return matches[0]

    def has_column(self, reference: str) -> bool:
        """Whether ``reference`` resolves to exactly one column."""
        try:
            self.index_of(reference)
        except SchemaError:
            return False
        return True

    def column(self, reference: str) -> Column:
        """Resolve a reference to its :class:`Column`."""
        return self._columns[self.index_of(reference)]

    def with_table(self, table: str | None) -> "Schema":
        """Return this schema with every column re-qualified to ``table``."""
        return Schema(c.with_table(table) for c in self._columns)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the concatenation (join/product) of two row layouts."""
        return Schema(self._columns + other._columns)

    def project(self, references: Sequence[str]) -> "Schema":
        """Schema restricted to the given column references, in given order."""
        return Schema(self._columns[self.index_of(r)] for r in references)

    def validate_row(self, values: Sequence[Any]) -> None:
        """Check arity and per-column types of a candidate row."""
        if len(values) != len(self._columns):
            raise SchemaError(
                f"row arity {len(values)} != schema arity {len(self._columns)}"
            )
        for col, value in zip(self._columns, values):
            if not col.dtype.validate(value):
                raise SchemaError(
                    f"column {col.qualified_name!r} ({col.dtype.value}) "
                    f"rejects value {value!r}"
                )
