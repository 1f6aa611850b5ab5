"""Heap tables with copy-on-write version publication.

A :class:`Table` is a heap of rows with a fixed schema.  It is the unit the
catalog manages and scans read from.  Secondary indexes
(:mod:`repro.storage.index`) are registered on the table and kept in sync
by every write.

**Versioning (snapshot-isolated reads).**  All table state a reader can
observe — the row heap, every secondary index, and the lazily-built
columnar view — is published as an immutable :class:`TableVersion`.
Writers serialize on the table's write lock, prepare the whole write
(heap copy, index maintenance), and publish the next version with a single
attribute assignment, bumping the per-table generation.  Index maintenance
follows a *rebind* discipline (see :class:`~repro.storage.index.Index`):
entry arrays are never mutated in place, so a version can pin an index's
state with an O(1) shallow copy.  A reader that captured a version
(directly, or through a :class:`~repro.storage.snapshot.DatabaseSnapshot`)
keeps scanning exactly the rows, index entries and row vectors it
started with; it never blocks a writer and never observes half-applied
DML.

The convenience read API on :class:`Table` (``rows()``, ``columns()``,
``find_index()`` …) delegates to the *current* version — single-threaded
code behaves exactly as before, and index objects handed out by
``attach_index``/``create_*_index`` remain live handles that always
reflect the latest data.  Multi-statement readers that need one consistent
view across calls must capture :meth:`Table.version` once (the serving
layer does this at statement admission).

Besides the row heap, each version carries a lazily-built *columnar view*
(:meth:`TableVersion.columns`): the row-object and row-id vectors,
parallel to the heap.  Compiled segments (:mod:`repro.execution.codegen`)
drive their scan loops over them.  The view is cached *per version* —
publication-safe by construction: a writer publishing a new version never
touches the arrays an old snapshot's readers are scanning, and a version
whose heap is unchanged (index attachment) carries the already-built view
forward.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .row import Row
from .schema import Schema, SchemaError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .index import Index


@dataclass(frozen=True)
class ColumnarView:
    """An immutable snapshot of a table's heap as parallel vectors.

    ``rows`` and ``rids`` are the row-object and identity vectors in heap
    order; they share indices with each other and with the heap ordinals
    at snapshot time.
    """

    schema: Schema
    rids: list[tuple[tuple[str, int], ...]]
    rows: list[Row]

    def __len__(self) -> int:
        return len(self.rows)


class TableVersion:
    """One immutable published version of a table.

    Exposes the full *read* API of :class:`Table` (``rows``, ``columns``,
    ``find_index``, ``indexes``, ``row_count`` …) so execution operators
    and snapshots can treat a captured version exactly like the table
    itself.  Nothing here changes after publication — the only
    lazily-filled field is the cached columnar view, whose construction is
    deterministic and guarded by a per-version lock, so every reader sees
    the same arrays.
    """

    __slots__ = (
        "name",
        "schema",
        "generation",
        "_rows",
        "_indexes",
        "_columnar",
        "_columnar_lock",
    )

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: tuple[Row, ...],
        indexes: dict[str, "Index"],
        generation: int,
        columnar: ColumnarView | None = None,
    ):
        self.name = name
        self.schema = schema
        self.generation = generation
        self._rows = rows
        #: pinned index snapshots (their entry arrays never change again)
        self._indexes = indexes
        self._columnar = columnar
        self._columnar_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return (
            f"TableVersion({self.name!r}, gen={self.generation}, "
            f"rows={len(self._rows)})"
        )

    @property
    def row_count(self) -> int:
        return len(self._rows)

    @property
    def indexes(self) -> dict[str, "Index"]:
        """This version's pinned index snapshots by index name."""
        return dict(self._indexes)

    def rows(self) -> Iterator[Row]:
        """Iterate over this version's rows in heap (insertion) order."""
        return iter(self._rows)

    def row_at(self, position: int) -> Row:
        """Fetch the row at the given heap position (== the insertion
        ordinal while no delete has run on the table)."""
        return self._rows[position]

    def columns(self) -> ColumnarView:
        """The (cached) columnar view of this version's heap.

        Built on first use, once per version; the returned snapshot is
        immutable and safe to share across concurrent scans.  Readers
        holding this version keep these exact vectors no matter how
        many newer versions writers publish.
        """
        view = self._columnar
        if view is not None:
            return view
        with self._columnar_lock:
            if self._columnar is None:
                rows = list(self._rows)
                self._columnar = ColumnarView(
                    schema=self.schema,
                    rids=[r.rid for r in rows],
                    rows=rows,
                )
        return self._columnar

    def find_index(self, *, key: str | None = None) -> "Index | None":
        """Find an index whose leading key matches ``key`` (a column or
        predicate name), if any."""
        for index in self._indexes.values():
            if index.covers(key):
                return index
        return None


class Table:
    """An in-memory heap table with secondary indexes and COW versioning.

    Reads delegate to the currently-published :class:`TableVersion`; writes
    serialize on the table's write lock, maintain the live index objects
    (rebind discipline, so previously published versions stay frozen) and
    publish a fresh version atomically.  Readers therefore never block
    writers (and vice versa): a scan that captured a version keeps it
    until it finishes.

    The copy-on-write publication makes a *single-row* ``insert`` O(heap);
    bulk loads should use :meth:`insert_many`/:meth:`insert_dicts`, which
    pay one copy per batch.
    """

    def __init__(self, name: str, schema: Schema):
        if not name:
            raise ValueError("table name must be non-empty")
        self.name = name
        self.schema = schema.with_table(name)
        self._write_lock = threading.RLock()
        #: monotone rid allocator — never reused, even after deletes, so a
        #: row's identity is stable across every version it appears in
        self._next_ordinal = 0
        #: live index objects (stable handles; mutated only under the
        #: write lock, and only by rebinding their entry arrays)
        self._live_indexes: dict[str, "Index"] = {}
        self._version = TableVersion(self.name, self.schema, (), {}, 0)

    def __len__(self) -> int:
        return len(self._version)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, rows={len(self)})"

    # ------------------------------------------------------------------
    # versioned read API (delegates to the current published version)
    # ------------------------------------------------------------------
    def version(self) -> TableVersion:
        """The currently-published immutable version — the snapshot-capture
        point for readers that need one consistent view across calls."""
        return self._version

    @property
    def generation(self) -> int:
        """The published version's generation (bumped by every write)."""
        return self._version.generation

    @property
    def row_count(self) -> int:
        return self._version.row_count

    @property
    def indexes(self) -> dict[str, "Index"]:
        """The live index handles by index name (always-current reads;
        captured versions hold their own pinned snapshots instead)."""
        return dict(self._live_indexes)

    def rows(self) -> Iterator[Row]:
        """Iterate over all rows in heap (insertion) order.

        The iterator is pinned to the version current at the call, so a
        concurrent write never changes (or tears) an in-progress scan.
        """
        return self._version.rows()

    def row_at(self, position: int) -> Row:
        """Fetch the row at the given heap position in the current version."""
        return self._version.row_at(position)

    def columns(self) -> ColumnarView:
        """The current version's (cached) columnar view — see
        :meth:`TableVersion.columns`."""
        return self._version.columns()

    def find_index(self, *, key: str | None = None) -> "Index | None":
        """Find a live index whose leading key matches ``key`` (a column
        or predicate name), if any."""
        for index in self._live_indexes.values():
            if index.covers(key):
                return index
        return None

    # ------------------------------------------------------------------
    # writes (copy-on-write version publication)
    # ------------------------------------------------------------------
    def _publish(
        self, rows: tuple[Row, ...], columnar: ColumnarView | None = None
    ) -> TableVersion:
        """Pin the live indexes and atomically publish the next version
        (write lock held).  ``columnar`` carries a still-valid cached view
        forward when the heap did not change."""
        pinned = {
            name: index.pinned() for name, index in self._live_indexes.items()
        }
        version = TableVersion(
            self.name,
            self.schema,
            rows,
            pinned,
            self._version.generation + 1,
            columnar=columnar,
        )
        self._version = version
        return version

    def insert(self, values: Sequence[Any]) -> Row:
        """Validate and append one row; returns the stored :class:`Row`."""
        self.schema.validate_row(values)
        with self._write_lock:
            row = Row.base(values, self.name, self._next_ordinal)
            self._next_ordinal += 1
            for index in self._live_indexes.values():
                index.insert(row)
            self._publish(self._version._rows + (row,))
            return row

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-insert many rows; returns the number inserted.

        The bulk path validates *every* row before touching table state, so
        a bad row leaves the table and its indexes unchanged, then extends
        the heap in one copy and feeds each index a single sorted-merge
        batch (:meth:`Index.insert_many`) instead of one bisect-insert per
        row.  The new version publishes only after every index is complete
        — a concurrent reader sees all of the batch or none of it.
        """
        materialized = list(rows)
        for values in materialized:
            self.schema.validate_row(values)
        if not materialized:
            return 0
        with self._write_lock:
            base = self._next_ordinal
            staged = [
                Row.base(values, self.name, base + i)
                for i, values in enumerate(materialized)
            ]
            self._next_ordinal += len(staged)
            for index in self._live_indexes.values():
                index.insert_many(staged)
            self._publish(self._version._rows + tuple(staged))
            return len(staged)

    def insert_dicts(self, rows: Iterable[dict[str, Any]]) -> int:
        """Insert rows given as ``{column: value}`` dicts.

        Missing columns become NULL (None); unknown keys raise
        :class:`SchemaError`.
        """
        names = self.schema.column_names()
        known = set(names)
        staged: list[list[Any]] = []
        for mapping in rows:
            unknown = set(mapping) - known
            if unknown:
                raise SchemaError(
                    f"unknown columns for table {self.name!r}: {sorted(unknown)}"
                )
            staged.append([mapping.get(n) for n in names])
        return self.insert_many(staged)

    def delete_where(self, condition: Callable[[Row], bool]) -> int:
        """Delete every row for which ``condition(row)`` is true; returns
        the number deleted.

        Publishes a new version without the matching rows (surviving rows
        keep their identities — rids are never renumbered or reused), with
        every index filtered to match.  Readers holding an older version
        still see the deleted rows; readers admitted after publication
        never do.
        """
        with self._write_lock:
            keep: list[Row] = []
            dead: set[tuple[tuple[str, int], ...]] = set()
            for row in self._version._rows:
                if condition(row):
                    dead.add(row.rid)
                else:
                    keep.append(row)
            if not dead:
                return 0
            for index in self._live_indexes.values():
                index.remove_rids(dead)
            self._publish(tuple(keep))
            return len(dead)

    # ------------------------------------------------------------------
    # transaction support (see repro.storage.transaction)
    # ------------------------------------------------------------------
    @property
    def next_ordinal(self) -> int:
        """The monotone rid allocator's next value — persisted by
        checkpoints so restored tables never reuse a rid that a logged
        (but not yet replayed) transaction already carries."""
        return self._next_ordinal

    def ensure_next_ordinal(self, floor: int) -> None:
        """Advance the rid allocator to at least ``floor`` (never back).
        WAL replay calls this with one past the highest replayed ordinal."""
        with self._write_lock:
            if floor > self._next_ordinal:
                self._next_ordinal = floor

    def restore_rows(
        self, entries: "Iterable[tuple[int, Sequence[Any]]]", next_ordinal: int
    ) -> int:
        """Bulk-load ``(ordinal, values)`` pairs with their original rids
        — the checkpoint-restore path.  Unlike :meth:`insert_many`, rids
        come from the caller, and the allocator resumes at
        ``next_ordinal`` (or past the highest restored rid if larger).
        Only valid while the table is empty."""
        materialized = [(ordinal, values) for ordinal, values in entries]
        for __, values in materialized:
            self.schema.validate_row(values)
        with self._write_lock:
            if len(self._version):
                raise ValueError(
                    f"restore_rows on non-empty table {self.name!r}"
                )
            restored = [
                Row.base(values, self.name, ordinal)
                for ordinal, values in materialized
            ]
            floor = max(
                [next_ordinal] + [ordinal + 1 for ordinal, __ in materialized]
            )
            if floor > self._next_ordinal:
                self._next_ordinal = floor
            if restored:
                for index in self._live_indexes.values():
                    index.insert_many(restored)
                self._publish(self._version._rows + tuple(restored))
            return len(restored)

    def allocate_ordinals(self, count: int) -> int:
        """Reserve ``count`` rids from the monotone allocator; returns the
        first.  Transactions call this at *buffer* time so staged rows
        carry their final identity immediately (visible to the
        transaction's own reads, stable through commit).  Ordinals are
        never reused, so a rolled-back reservation is just a gap."""
        if count < 0:
            raise ValueError("cannot reserve a negative rid range")
        with self._write_lock:
            base = self._next_ordinal
            self._next_ordinal += count
            return base

    def apply_commit(
        self,
        deleted: "set[tuple[tuple[str, int], ...]]",
        staged: "list[Row]",
    ) -> TableVersion:
        """Apply one transaction's buffered writes against the *current*
        version and publish — the whole commit becomes visible in one
        publication.  Staged rows must carry rids from
        :meth:`allocate_ordinals`; the caller (the transaction manager)
        has already validated that every ``deleted`` rid is still present.
        """
        with self._write_lock:
            rows = self._version._rows
            if deleted:
                rows = tuple(r for r in rows if r.rid not in deleted)
                for index in self._live_indexes.values():
                    index.remove_rids(deleted)
            if staged:
                rows = rows + tuple(staged)
                for index in self._live_indexes.values():
                    index.insert_many(staged)
            return self._publish(rows)

    def attach_index(self, index: "Index") -> None:
        """Register a secondary index and backfill it with existing rows.

        The heap is unchanged, so the published version carries the cached
        columnar view forward — attaching an index never invalidates
        readers' vectors.
        """
        with self._write_lock:
            if index.name in self._live_indexes:
                raise ValueError(
                    f"index {index.name!r} already exists on {self.name!r}"
                )
            current = self._version
            index.insert_many(list(current._rows))
            self._live_indexes[index.name] = index
            self._publish(current._rows, columnar=current._columnar)
