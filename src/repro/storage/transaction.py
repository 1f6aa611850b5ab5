"""Multi-statement transactions over copy-on-write table versions.

A :class:`Transaction` extends PR 5's single-statement snapshot isolation
to statement *groups*: ``BEGIN`` captures one
:class:`~repro.storage.snapshot.DatabaseSnapshot` and every statement in
the transaction reads it; writes buffer in private per-table write sets
(never touching the shared catalog) and apply atomically at ``COMMIT``.
The mechanism is the natural one on this storage layer:

* **reads** go through a :class:`TransactionSnapshot`, which serves the
  begin-time version of each table *overlaid* with the transaction's own
  buffered writes (read-your-own-writes) — built from pinned index copies
  under the same rebind discipline writers use, so the shared versions
  stay frozen;
* **writes** stage :class:`~repro.storage.row.Row` objects with rids
  pre-allocated from the table's monotone ordinal counter (identity is
  final from the moment of buffering; aborted transactions simply waste
  ordinals, which were never reused anyway) and record deleted rids;
* **commit** validates *first-committer-wins*: under the manager lock,
  every rid this transaction deletes must still be present in the table's
  currently-published version.  A concurrent committer that removed one of
  them (the read-modify-write conflict) wins; this transaction aborts with
  :class:`SerializationError` and the client retries.  Validation passing,
  the buffered writes publish table-by-table while begins and snapshot
  captures are held off, so no reader ever observes half a commit.

**One logical clock.**  The manager bumps a single counter at every begin
and every finish, stamping ``begin_seq``/``end_seq`` into one total order.
A transaction's snapshot contains exactly the commits whose ``end_seq``
precedes its ``begin_seq`` — the property the black-box checker
(:mod:`repro.verify`) verifies from recorded histories, which is why
begin, snapshot capture and commit publication all serialize on the one
manager lock (each is O(#tables) or less; the lock is never held during
statement execution).

**Lock order** is manager lock → table write locks (sorted by name) →
catalog registry lock; no other code path takes them in the opposite
direction, and plain (non-transactional) writers still take only their
table's write lock, so autocommit DML and transactions interleave safely.
"""

from __future__ import annotations

import random
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from ..observe.trace import _NULL_CONTEXT
from .row import Row
from .snapshot import DatabaseSnapshot
from .table import Table, TableVersion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .catalog import Catalog


class TransactionError(Exception):
    """Misuse of the transaction API (no active transaction, reuse after
    commit, …)."""


class SerializationError(TransactionError):
    """First-committer-wins conflict: another transaction committed a
    write to a row this transaction also wrote.  The transaction is
    aborted; the client may retry it from ``BEGIN``."""


def retry_backoff(
    attempt: int,
    backoff: float,
    max_backoff: float = 0.5,
    rng: "random.Random | None" = None,
) -> float:
    """The delay before retry ``attempt`` (0-based) of a serialization
    conflict: exponential in the attempt, capped at ``max_backoff``, with
    uniform jitter in (0.5, 1.0]× so colliding retriers decorrelate.
    Used by :func:`retry_transaction`."""
    base = min(backoff * (2**attempt), max_backoff)
    roll = rng.random() if rng is not None else random.random()
    return base * (0.5 + 0.5 * roll)


def retry_transaction(
    fn: Callable[[Any], Any],
    begin: Callable[[], Any],
    commit: Callable[[Any], Any],
    rollback: Callable[[Any], Any],
    retries: int = 10,
    backoff: float = 0.01,
) -> Any:
    """Run ``fn`` in a transaction, retrying serialization conflicts with
    jittered exponential backoff — the one loop behind every
    ``run_transaction`` surface (embedded, in-process client, remote
    session).

    Each attempt calls ``begin()`` and hands its result to ``fn``, then to
    ``commit`` (which must be a no-op when ``fn`` already finished the
    transaction).  Any exception calls ``rollback`` with the same handle;
    a :class:`SerializationError` is retried up to ``retries`` times before
    it propagates.  Returns ``fn``'s result.
    """
    attempt = 0
    while True:
        handle = begin()
        try:
            result = fn(handle)
            commit(handle)
            return result
        except SerializationError:
            rollback(handle)
            if attempt >= retries:
                raise
            time.sleep(retry_backoff(attempt, backoff))
            attempt += 1
        except BaseException:
            rollback(handle)
            raise


class _WriteSet:
    """One transaction's buffered writes against one table."""

    __slots__ = ("table", "staged", "deleted", "mutations", "_overlay", "_overlay_at")

    def __init__(self, table: Table):
        self.table = table
        #: buffered inserts, carrying their final (pre-allocated) rids
        self.staged: list[Row] = []
        #: rids of snapshot rows this transaction deletes
        self.deleted: set[tuple[tuple[str, int], ...]] = set()
        #: bumped by every buffer change; keys the overlay cache
        self.mutations = 0
        self._overlay: TableVersion | None = None
        self._overlay_at = -1

    @property
    def dirty(self) -> bool:
        return bool(self.staged) or bool(self.deleted)

    def effective(self, base: TableVersion) -> TableVersion:
        """The base version with this write set overlaid — what the
        transaction's own statements read.  Cached per buffer state; the
        overlay's indexes are pinned copies mutated by rebinding, so
        ``base`` (shared with every other reader) stays frozen."""
        if not self.dirty:
            return base
        if self._overlay is not None and self._overlay_at == self.mutations:
            return self._overlay
        rows = tuple(
            row for row in base._rows if row.rid not in self.deleted
        ) + tuple(self.staged)
        indexes = {}
        for name, index in base.indexes.items():
            copy = index.pinned()
            if self.deleted:
                copy.remove_rids(self.deleted)
            if self.staged:
                copy.insert_many(list(self.staged))
            indexes[name] = copy
        self._overlay = TableVersion(
            base.name, base.schema, rows, indexes, base.generation
        )
        self._overlay_at = self.mutations
        return self._overlay


class TransactionSnapshot:
    """The begin-time snapshot overlaid with the transaction's own buffered
    writes.  Duck-types :class:`~repro.storage.snapshot.DatabaseSnapshot`
    (the same ``table()`` read surface), so execution cannot tell it is
    reading inside a transaction — the isolation contract of
    :class:`~repro.execution.iterator.ExecutionContext` carries over."""

    __slots__ = ("_base", "_transaction")

    def __init__(self, base: DatabaseSnapshot, transaction: "Transaction"):
        self._base = base
        self._transaction = transaction

    def __repr__(self) -> str:
        return (
            f"TransactionSnapshot(txn={self._transaction.txn_id}, "
            f"base={self._base!r})"
        )

    def __contains__(self, name: str) -> bool:
        return name in self._base

    def table(self, name: str) -> TableVersion:
        version = self._base.table(name)
        write_set = self._transaction._write_sets.get(name)
        if write_set is None:
            return version
        return write_set.effective(version)

    def has_table(self, name: str) -> bool:
        return self._base.has_table(name)

    def tables(self) -> Iterator[TableVersion]:
        for version in self._base.tables():
            yield self.table(version.name)

    def predicate(self, name: str):
        return self._base.predicate(name)

    def has_predicate(self, name: str) -> bool:
        return self._base.has_predicate(name)

    @property
    def generations(self) -> dict[str, int]:
        return self._base.generations

    def total_rows(self) -> int:
        return sum(v.row_count for v in self.tables())


#: terminal + live transaction states
ACTIVE, COMMITTED, ABORTED, ROLLED_BACK = (
    "active",
    "committed",
    "aborted",
    "rolled-back",
)


class Transaction:
    """One multi-statement transaction: a begin-time snapshot, buffered
    writes, and a statement-level event log (consumed by the history
    recorder).  Obtain via ``database.begin()`` or a session's ``BEGIN``;
    finish with :meth:`commit` or :meth:`rollback`."""

    def __init__(
        self,
        manager: "TransactionManager",
        txn_id: int,
        begin_seq: int,
        snapshot: DatabaseSnapshot,
        session: "str | None" = None,
    ):
        self._manager = manager
        self.txn_id = txn_id
        self.begin_seq = begin_seq
        self.end_seq: "int | None" = None
        self.status = ACTIVE
        self.session = session
        self.snapshot = snapshot
        self._write_sets: dict[str, _WriteSet] = {}
        self._lock = threading.RLock()
        #: replay ops for the WAL, accumulated as writes buffer and
        #: written *at commit, under the manager lock* — never earlier.
        #: Logging op-by-op as statements execute would let a checkpoint's
        #: WAL rotation land mid-transaction, splitting one commit group
        #: across segments; the checkpoint (which only contains commits
        #: from *before* its rotation) would then be paired with a tail
        #: holding the commit record but not all of its ops.  Group
        #: logging under the same lock rotation takes makes each segment
        #: boundary a whole-transaction boundary.
        self._wal_ops: list[tuple[str, str, list]] = []
        #: statement-level log: queries with observed rows, buffered DML
        self.events: list[dict[str, Any]] = []

    def __repr__(self) -> str:
        return (
            f"Transaction(id={self.txn_id}, status={self.status}, "
            f"begin_seq={self.begin_seq}, tables={sorted(self._write_sets)})"
        )

    @property
    def active(self) -> bool:
        return self.status == ACTIVE

    @property
    def read_only(self) -> bool:
        """True while no write is buffered (read-only commits skip
        validation and plan-cache invalidation entirely)."""
        return not any(ws.dirty for ws in self._write_sets.values())

    def _check_active(self) -> None:
        if self.status != ACTIVE:
            raise TransactionError(
                f"transaction {self.txn_id} is {self.status}; "
                "BEGIN a new one to continue"
            )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read_view(self) -> TransactionSnapshot:
        """The snapshot this transaction's statements execute against:
        begin-time versions overlaid with its own buffered writes."""
        self._check_active()
        return TransactionSnapshot(self.snapshot, self)

    def record_query(
        self, sql: str, params: Any, rows: "list[tuple] | None"
    ) -> None:
        """Log one executed query and the row values it observed (the
        read side of the recorded history)."""
        with self._lock:
            self.events.append(
                {"op": "query", "sql": sql, "params": params, "rows": rows}
            )

    # ------------------------------------------------------------------
    # buffered writes
    # ------------------------------------------------------------------
    def _write_set(self, table: Table) -> _WriteSet:
        write_set = self._write_sets.get(table.name)
        if write_set is None:
            write_set = self._write_sets[table.name] = _WriteSet(table)
        return write_set

    def insert(self, table: Table, rows: Iterable[Sequence[Any]]) -> int:
        """Buffer an insert of value tuples; visible to this transaction's
        own reads immediately, to others only after commit."""
        self._check_active()
        materialized = [tuple(values) for values in rows]
        for values in materialized:
            table.schema.validate_row(values)
        if not materialized:
            return 0
        with self._lock:
            write_set = self._write_set(table)
            base = table.allocate_ordinals(len(materialized))
            staged = [
                Row.base(values, table.name, base + i)
                for i, values in enumerate(materialized)
            ]
            if self._manager.wal is not None:
                self._wal_ops.append(
                    (
                        "insert",
                        table.name,
                        [(row.rid[0][1], list(row.values)) for row in staged],
                    )
                )
            write_set.staged.extend(staged)
            write_set.mutations += 1
            self.events.append(
                {"op": "insert", "table": table.name, "rows": materialized}
            )
            return len(materialized)

    def delete_where(
        self,
        table: Table,
        condition: "Callable[[Row], bool] | None" = None,
        *,
        column: "str | None" = None,
        equals: Any = None,
    ) -> int:
        """Buffer a delete: rows matching against *this transaction's
        effective view* (snapshot + own writes) are marked deleted.  The
        matched set freezes now — rows other transactions insert later are
        not retroactively matched (SI allows phantoms; first-committer-wins
        still catches conflicting deletes of shared rows at commit)."""
        self._check_active()
        if (condition is None) == (column is None):
            raise ValueError("pass exactly one of: condition, column=/equals=")
        recorded_column, recorded_equals = column, equals
        if condition is None:
            qualified = column if "." in column else f"{table.name}.{column}"
            position = table.schema.index_of(qualified)

            def condition(row: Row, _p=position, _v=equals) -> bool:
                return row[_p] == _v

        with self._lock:
            write_set = self._write_set(table)
            effective = write_set.effective(self.snapshot.table(table.name))
            matched = [row for row in effective.rows() if condition(row)]
            if matched:
                staged_rids = {row.rid for row in write_set.staged}
                doomed = {row.rid for row in matched}
                if self._manager.wal is not None:
                    # the *full* matched set, own staged rows included —
                    # replay re-derives the unstaging below, so it must
                    # see the same delete the buffer saw
                    self._wal_ops.append(
                        (
                            "delete",
                            table.name,
                            sorted(rid[0][1] for rid in doomed),
                        )
                    )
                # deleting an own staged row just unstages it
                write_set.staged = [
                    row for row in write_set.staged if row.rid not in doomed
                ]
                write_set.deleted |= doomed - staged_rids
                write_set.mutations += 1
            self.events.append(
                {
                    "op": "delete",
                    "table": table.name,
                    "column": recorded_column,
                    "equals": recorded_equals,
                    "matched": len(matched),
                }
            )
            return len(matched)

    # ------------------------------------------------------------------
    # finish
    # ------------------------------------------------------------------
    def commit(self) -> int:
        """Validate and publish; returns the commit sequence number.
        Raises :class:`SerializationError` (transaction aborted) on a
        first-committer-wins conflict."""
        return self._manager.commit(self)

    def rollback(self) -> None:
        """Discard buffered writes.  No-op on an already-finished
        transaction, so cleanup paths may call it unconditionally."""
        self._manager.rollback(self)

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if self.active:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()


class TransactionManager:
    """Begin/commit/rollback coordination over one catalog.

    Owns the logical clock and the commit critical section; see the module
    docstring for the protocol.  ``on_commit`` (the engine wires the plan
    cache invalidation here) fires exactly once per *writing* commit —
    buffered writes never fire it, rollbacks and read-only commits never
    fire it.
    """

    def __init__(
        self,
        catalog: "Catalog",
        on_commit: "Callable[[], None] | None" = None,
    ):
        self.catalog = catalog
        self.on_commit = on_commit
        #: the attached :class:`~repro.storage.wal.WriteAheadLog`, or None.
        #: When set, a writing transaction's commit record is appended and
        #: fsynced *before* publication — the durability point: an
        #: acknowledged commit survives any crash after it, and a crash
        #: before it leaves no trace recovery would apply.
        self.wal: Any = None
        #: the engine's :class:`~repro.observe.trace.Tracer`, when
        #: attached — commit and WAL-fsync report spans into whatever
        #: query trace is active on the committing thread.
        self.tracer: Any = None
        self._lock = threading.Lock()
        self._clock = 0
        self._next_txn_id = 1
        self._listeners: list[Any] = []
        #: counters (read under the lock via summary())
        self.begun = 0
        self.committed = 0
        self.rolled_back = 0
        self.conflicts = 0

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def add_listener(self, listener: Any) -> None:
        """Subscribe to transaction lifecycle events.  A listener may
        implement ``transaction_began(txn)`` and/or
        ``transaction_finished(txn)``; both are called under the manager
        lock, so they must be fast and must not call back into the
        manager (the history recorder only appends to a list)."""
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(self, listener: Any) -> None:
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _notify(self, event: str, txn: Transaction) -> None:
        for listener in self._listeners:
            hook = getattr(listener, event, None)
            if hook is not None:
                hook(txn)

    def summary(self) -> dict[str, int]:
        with self._lock:
            return {
                "txns_begun": self.begun,
                "txns_committed": self.committed,
                "txns_rolled_back": self.rolled_back,
                "txn_conflicts": self.conflicts,
                "txn_clock": self._clock,
            }

    # ------------------------------------------------------------------
    # the clock-serialized operations
    # ------------------------------------------------------------------
    def capture(self) -> DatabaseSnapshot:
        """A consistent snapshot, serialized with commit publication —
        every snapshot observes whole commits only (all tables or none).
        This is what ``Database.snapshot()`` delegates to."""
        with self._lock:
            return DatabaseSnapshot(self.catalog)

    def exclusive(self) -> threading.Lock:
        """The manager lock, for callers that must serialize with begins
        and commit publication — the checkpoint path holds it across
        {capture table versions, rotate the WAL} so the snapshot contains
        exactly the commits of the pre-rotation segments."""
        return self._lock

    def ensure_txn_id(self, floor: int) -> None:
        """Advance the transaction-id allocator to at least ``floor`` —
        recovery calls this so post-crash transactions never reuse an id
        that appears in the replayed log."""
        with self._lock:
            if floor > self._next_txn_id:
                self._next_txn_id = floor

    def begin(self, session: "str | None" = None) -> Transaction:
        """Start a transaction: bump the clock, capture the snapshot, all
        atomically with respect to commits."""
        with self._lock:
            self._clock += 1
            txn = Transaction(
                manager=self,
                txn_id=self._next_txn_id,
                begin_seq=self._clock,
                snapshot=DatabaseSnapshot(self.catalog),
                session=session,
            )
            self._next_txn_id += 1
            self.begun += 1
            self._notify("transaction_began", txn)
            return txn

    def _span(self, name: str, **attrs: Any):
        tracer = self.tracer
        if tracer is None:
            return _NULL_CONTEXT
        return tracer.span(name, **attrs)

    def commit(self, txn: Transaction) -> int:
        """First-committer-wins validation, then atomic publication."""
        with self._span("commit", txn=txn.txn_id):
            return self._commit(txn)

    def _commit(self, txn: Transaction) -> int:
        with self._lock:
            txn._check_active()
            dirty = sorted(
                (ws for ws in txn._write_sets.values() if ws.dirty),
                key=lambda ws: ws.table.name,
            )
            if not dirty:  # read-only: nothing to validate or publish
                return self._finish(txn, COMMITTED)

            conflicts: list[str] = []
            for write_set in dirty:
                live = {
                    row.rid for row in write_set.table.version()._rows
                }
                gone = write_set.deleted - live
                if gone:
                    conflicts.append(
                        f"{write_set.table.name}: {len(gone)} row(s) already "
                        "deleted by a concurrent commit"
                    )
            if conflicts:
                self.conflicts += 1
                self._finish(txn, ABORTED)
                raise SerializationError(
                    f"transaction {txn.txn_id} lost first-committer-wins "
                    "validation (" + "; ".join(conflicts) + "); retry from BEGIN"
                )

            # The durability point: the whole commit group — begin, every
            # buffered op, then the commit record — is written here, under
            # the manager lock, and the commit record is fsynced before
            # anything publishes.  Writing the group at commit (rather
            # than op-by-op as statements ran) means a checkpoint's WAL
            # rotation, which takes this same lock, can never split one
            # group across segments.  If this raises (injected crash, disk
            # failure) the transaction stays unpublished in memory —
            # whether it survives recovery depends on whether the commit
            # record made it down, which is exactly a real crash's
            # ambiguity.
            if self.wal is not None and txn._wal_ops:
                with self._span("wal_fsync", ops=len(txn._wal_ops)):
                    self.wal.log_begin(txn.txn_id)
                    for kind, name, payload in txn._wal_ops:
                        if kind == "insert":
                            self.wal.log_insert(txn.txn_id, name, payload)
                        else:
                            self.wal.log_delete(txn.txn_id, name, payload)
                    self.wal.log_commit(txn.txn_id)

            for write_set in dirty:
                write_set.table.apply_commit(
                    write_set.deleted, write_set.staged
                )
            commit_seq = self._finish(txn, COMMITTED)
        # Outside the manager lock: invalidation takes the planner lock,
        # and holding ours across it would nest two subsystems' locks.
        if self.on_commit is not None:
            self.on_commit()
        return commit_seq

    def rollback(self, txn: Transaction) -> None:
        with self._lock:
            if txn.status != ACTIVE:
                return
            self._finish(txn, ROLLED_BACK)
            # Nothing to undo in the log: a transaction's records are only
            # written at commit, so a rolled-back one never touched it.

    def _finish(self, txn: Transaction, status: str) -> int:
        """Stamp the end of a transaction (manager lock held)."""
        self._clock += 1
        txn.end_seq = self._clock
        txn.status = status
        if status == COMMITTED:
            self.committed += 1
        elif status == ROLLED_BACK:
            self.rolled_back += 1
        self._notify("transaction_finished", txn)
        return txn.end_seq
