"""Table statistics.

The catalog keeps the few classical statistics the engine still reads:
row counts, per-column distinct-value counts (the cost model's equi-join
selectivity) and min/max (the binder's ``p_max`` for arithmetic ranking
predicates).  Selection selectivities and ranked cardinalities come from
the join synopsis (:mod:`repro.optimizer.synopsis`), not from here.
:func:`analyze_table` computes the statistics in one pass, the way
``ANALYZE`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .table import Table


@dataclass
class ColumnStats:
    """Statistics for one column."""

    name: str
    n_distinct: int = 0
    min_value: Any = None
    max_value: Any = None


@dataclass
class TableStats:
    """Statistics for a whole table."""

    table_name: str
    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)

    def join_selectivity(self, column: str, other: "TableStats", other_column: str) -> float:
        """Classic equi-join selectivity: ``1 / max(V(R,a), V(S,b))``."""
        mine = self.columns.get(column)
        theirs = other.columns.get(other_column)
        v1 = mine.n_distinct if mine else 0
        v2 = theirs.n_distinct if theirs else 0
        denominator = max(v1, v2)
        if denominator <= 0:
            return 1.0
        return 1.0 / denominator


def analyze_table(table: Table) -> TableStats:
    """Compute :class:`TableStats` for a table in a single pass."""
    stats = TableStats(table.name, row_count=table.row_count)
    names = table.schema.column_names()
    values_by_column: list[list[Any]] = [[] for __ in names]
    for row in table.rows():
        for i, value in enumerate(row.values):
            if value is not None:
                values_by_column[i].append(value)
    for name, values in zip(names, values_by_column):
        col = ColumnStats(name, n_distinct=len(set(values)))
        if values:
            col.min_value = min(values)
            col.max_value = max(values)
        stats.columns[name] = col
    return stats
