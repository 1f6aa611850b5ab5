"""Database snapshots: one consistent, immutable view across all tables.

A :class:`DatabaseSnapshot` captures every table's published
:class:`~repro.storage.table.TableVersion` at one instant (statement
*admission* in the serving layer).  Execution then resolves every
``catalog.table(name)`` lookup through the snapshot, so the whole plan —
row scans, rank-index scans, and compiled segments alike — reads
exactly the versions that were current at admission, no matter how many
new versions concurrent writers publish while the query runs.

The snapshot deliberately exposes the same ``table()`` surface as
:class:`~repro.storage.catalog.Catalog`, and each captured version exposes
the same read surface as :class:`~repro.storage.table.Table` — execution
operators cannot tell (and must not care) whether they run against the
live catalog or a frozen snapshot.  This duck-typing is the snapshot
contract the per-run :class:`~repro.execution.iterator.ExecutionContext`
relies on: operators may only touch the catalog through ``table(name)``
and the returned object's read API.

Snapshots are cheap: capturing is O(#tables) reference copies (versions
are immutable and shared), so per-statement capture is viable even under
heavy traffic.
"""

from __future__ import annotations

from .catalog import Catalog, CatalogError
from .table import TableVersion


class DatabaseSnapshot:
    """An immutable ``{table name -> TableVersion}`` capture of a catalog.

    Ranking-predicate lookups pass through to the live catalog — predicate
    registrations are append-only and predicates themselves are immutable,
    so they need no versioning.
    """

    __slots__ = ("_source", "_versions")

    def __init__(self, catalog: Catalog):
        self._source = catalog
        self._versions: dict[str, TableVersion] = catalog.table_versions()

    def __repr__(self) -> str:
        tables = ", ".join(
            f"{name}@g{version.generation}"
            for name, version in sorted(self._versions.items())
        )
        return f"DatabaseSnapshot({tables})"

    def __contains__(self, name: str) -> bool:
        return name in self._versions

    # -- the Catalog read surface execution relies on ----------------------
    def table(self, name: str) -> TableVersion:
        """The captured version of a table (raises on unknown names, with
        the same exception type the live catalog uses)."""
        try:
            return self._versions[name]
        except KeyError:
            raise CatalogError(f"unknown table: {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._versions

    def tables(self):
        """The captured versions (tabular read surface, like Catalog)."""
        return iter(self._versions.values())

    def predicate(self, name: str):
        return self._source.predicate(name)

    def has_predicate(self, name: str) -> bool:
        return self._source.has_predicate(name)

    # -- introspection -----------------------------------------------------
    @property
    def generations(self) -> dict[str, int]:
        """Per-table generation at capture time (for tests/diagnostics)."""
        return {
            name: version.generation for name, version in self._versions.items()
        }

    def total_rows(self) -> int:
        return sum(v.row_count for v in self._versions.values())
