"""The RankSQL engine façade.

:class:`Database` wires the whole stack together: storage, SQL front end,
the staged :class:`~repro.planner.Planner` (parse → bind → optimize →
plan cache) and the execution engine.

Typical use::

    with Database() as db:
        db.create_table("hotel", [("price", DataType.FLOAT), ("stars", DataType.INT)])
        db.insert("hotel", [(120.0, 4), (80.0, 3)])
        db.register_predicate("cheap", ["hotel.price"], lambda p: max(0, 1 - p / 200))
        db.create_rank_index("hotel", "cheap")
        result = db.query("SELECT * FROM hotel ORDER BY cheap(hotel.price) LIMIT 1")

Repeated traffic should go through prepared statements or sessions, which
reuse cached plans and compiled predicate evaluators::

    top = db.prepare("SELECT * FROM hotel ORDER BY cheap(hotel.price) LIMIT 1")
    top.run()          # planned once
    top.run(k=5)       # executes only; k may exceed the prepared LIMIT

Bind variables let one cached plan serve many constants (template reuse)::

    q = db.prepare(
        "SELECT * FROM hotel WHERE hotel.price <= :max_price "
        "ORDER BY cheap(hotel.price) LIMIT 5"
    )
    q.run(params={"max_price": 150.0})   # planned here (bind peeking)
    q.run(params={"max_price": 90.0})    # same plan, new binding

Every schema, data, index or statistics change invalidates the plan cache,
so cached plans never go stale.

**Thread model.**  The storage layer is versioned (copy-on-write
publication per table) and the planner's bookkeeping is lock-guarded, so
concurrent *reads* are always safe and writers never block readers.
Cached plans are value-free templates: every SQL surface (``query``,
prepared statements, sessions, cursors) runs a template bound to its own
``params`` (the values ride on the execution, never on the shared plan),
so threads share templates freely and no run of a template waits for
another; a :class:`Session` serializes only its own statements.  Without a
``snapshot`` a statement reads the current table versions independently
(statement-level consistency only); the serving subsystem —
:meth:`Database.serve` / :mod:`repro.server` — additionally gives every
statement a consistent :meth:`snapshot` across tables captured at
admission.
"""

from __future__ import annotations

import itertools
import os
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from ..algebra.expressions import Expression
from ..algebra.operators import LogicalOperator
from ..algebra.predicates import RankingPredicate, ScoringFunction
from ..execution.iterator import EvaluatorCache, ExecutionContext, collect_plan
from ..observe import MetricsRegistry, Tracer
from ..observe import system_tables as _system_tables
from ..optimizer.enumeration import RankAwareOptimizer
from ..optimizer.plans import PlanNode
from ..optimizer.query_spec import QuerySpec
from ..planner import CachedPlan, Planner, PreparedQuery, Session
from ..planner.planner import normalize_execution
from ..storage.catalog import Catalog
from ..storage.faults import NO_FAULTS
from ..storage.index import ColumnIndex, MultiKeyIndex, RankIndex
from ..storage.row import Row
from ..storage.schema import Column, DataType, Schema
from ..storage.snapshot import DatabaseSnapshot
from ..storage.table import Table
from ..storage.transaction import (
    Transaction,
    TransactionManager,
    retry_transaction,
)
from ..storage.wal import WriteAheadLog
from .result import QueryResult

#: the durability modes ``Database(durability=...)`` accepts
DURABILITY_MODES = ("wal", "checkpoint")

ColumnSpec = "str | tuple[str, DataType] | Column"


def _from_env(name: str, default: Any, normalize: Callable[[str], Any]) -> Any:
    """An engine-wide default, overridable via the environment variable
    ``name`` so whole test suites and CI jobs can pin it without touching
    call sites.  A bad value fails loudly, naming the variable."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return normalize(raw)
    except ValueError as error:
        raise ValueError(f"{name}: {error}") from None


class Database:
    """An in-memory rank-aware relational database.

    ``persist_dir`` attaches a persistence directory: :meth:`flush` (and
    :meth:`close`, hence ``with Database(...)``) writes the catalog and all
    table data there, so scripts cannot exit with half-written state.

    ``execution`` is the one execution-regime selector (overridable per
    statement via ``query(..., execution=...)``); results, scores and tie
    order are identical in every mode:

    * ``"auto"`` (default) — **cost-governed**: the optimizer prices each
      traditional materialize-then-sort segment (a blocking sort over an
      unranked, ``P = φ``, pipeline) as row and as compiled (plan-to-code,
      :mod:`repro.execution.codegen`) in one cost model, and the cheaper
      regime wins.  Rank-aware operators always run tuple-at-a-time.
      ``explain`` shows both costs and the winner per segment.
    * ``"row"`` — pure tuple-at-a-time (Volcano) execution everywhere —
      the parity oracle, and the escape hatch for debugging or
      apples-to-apples operator benchmarking.
    * ``"compiled"`` — compile every supported segment; unsupported
      shapes run as their row plans.

    When omitted, honours the ``REPRO_EXECUTION`` environment variable
    (exactly those three names).
    """

    def __init__(
        self,
        persist_dir: "str | Path | None" = None,
        execution: "str | None" = None,
        durability: "str | None" = None,
        fsync: str = "commit",
        fault_injector: Any = None,
    ) -> None:
        if execution is None:
            execution = _from_env("REPRO_EXECUTION", "auto", normalize_execution)
        self.catalog = Catalog()
        #: the engine's observability pair: every query gets a trace in
        #: :attr:`tracer` (``REPRO_TRACE`` / ``REPRO_SLOW_QUERY_MS``
        #: knobs) and every subsystem registers into :attr:`registry` —
        #: the single source the ``stats`` wire op, ``system.*`` tables,
        #: Prometheus endpoint and CLI ``\stats`` all read.
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self.planner = Planner(
            self.catalog,
            execution=execution,
            tracer=self.tracer,
        )
        #: multi-statement transactions (BEGIN/COMMIT/ROLLBACK).  Commit is
        #: the *only* transactional path that invalidates the plan cache —
        #: buffered writes never do, rollbacks never do.
        self.transactions = TransactionManager(
            self.catalog, on_commit=self._invalidate
        )
        self.transactions.tracer = self.tracer
        self._register_metrics()
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        #: durability state — None until :meth:`attach_durability`
        self.durability: "str | None" = None
        self.fsync_mode = fsync
        self.fault_injector = NO_FAULTS if fault_injector is None else fault_injector
        self.wal: "WriteAheadLog | None" = None
        #: stats from the last WAL replay (set by ``load_database``)
        self.recovery_stats: "dict | None" = None
        self._checkpoint_id = 0
        self._closed = False
        self._session_ids = itertools.count(1)
        if durability is not None:
            if persist_dir is None:
                raise ValueError(
                    "durability requires a persist_dir to write to"
                )
            self.attach_durability(
                persist_dir,
                mode=durability,
                fsync=fsync,
                fault_injector=fault_injector,
            )

    @property
    def execution(self) -> str:
        """The engine's execution-regime selector
        (``"auto"`` | ``"row"`` | ``"compiled"``)."""
        return self.planner.execution

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, flush: bool = True) -> None:
        """Flush persistence (when attached) and drop every cached plan.

        Idempotent; using the database afterwards raises ``RuntimeError``.
        ``flush=False`` closes without writing (used when a ``with`` block
        exits via an exception, so a half-mutated state never overwrites
        the last consistent on-disk snapshot).
        """
        if self._closed:
            return
        if flush:
            self.flush()
        if self.wal is not None:
            self.wal.close()
        self.planner.invalidate()
        self._closed = True

    def flush(self) -> None:
        """Checkpoint the database to ``persist_dir`` (no-op when not
        attached).  Always atomic: a crash mid-flush leaves the previous
        complete on-disk snapshot loadable."""
        if self.persist_dir is not None:
            self.checkpoint()

    def attach_durability(
        self,
        directory: "str | Path",
        mode: str = "wal",
        fsync: str = "commit",
        fault_injector: Any = None,
        checkpoint_id: "int | None" = None,
    ) -> None:
        """Attach a durability directory to this database.

        ``mode="wal"`` opens (or continues) the write-ahead log there and
        makes every commit — transactional or autocommit — durable at its
        commit record; ``mode="checkpoint"`` skips per-commit logging and
        makes state durable only at :meth:`checkpoint`/:meth:`flush`/DDL.
        A directory with no manifest yet gets an initial checkpoint, so a
        durable database is loadable from its very first commit.
        """
        from .persistence import CATALOG_FILE, latest_checkpoint_id

        if mode not in DURABILITY_MODES:
            raise ValueError(
                f"unknown durability mode {mode!r}; expected one of "
                f"{DURABILITY_MODES} or None"
            )
        self.persist_dir = Path(directory)
        self.persist_dir.mkdir(parents=True, exist_ok=True)
        self.durability = mode
        self.fsync_mode = fsync
        if fault_injector is not None:
            self.fault_injector = fault_injector
        if checkpoint_id is None:
            checkpoint_id = latest_checkpoint_id(self.persist_dir)
        self._checkpoint_id = checkpoint_id
        if mode == "wal":
            self.wal = WriteAheadLog(
                self.persist_dir, fsync=fsync, injector=self.fault_injector
            )
            self.transactions.wal = self.wal
        if not (self.persist_dir / CATALOG_FILE).exists():
            self.checkpoint()

    def checkpoint(self) -> int:
        """Write one atomic checkpoint to ``persist_dir``; returns its id.

        With a WAL attached, the table-version capture and the WAL
        rotation happen under the transaction-manager lock, so the
        checkpoint contains exactly the commits of the pre-rotation
        segments; the manifest stamps the new epoch and old segments are
        garbage-collected once the manifest swap (the atomic commit
        point) has succeeded.
        """
        from .persistence import write_checkpoint

        if self.persist_dir is None:
            raise RuntimeError("no persist_dir attached to checkpoint into")
        state = None
        durability = None
        new_epoch = None
        if self.wal is not None:
            with self.transactions.exclusive():
                state = {
                    table.name: (table.version(), table.next_ordinal)
                    for table in self.catalog.tables()
                }
                new_epoch = self.wal.rotate()
            durability = {
                "mode": "wal",
                "fsync": self.fsync_mode,
                "wal_epoch": new_epoch,
            }
        elif self.durability == "checkpoint":
            durability = {
                "mode": "checkpoint",
                "fsync": self.fsync_mode,
                "wal_epoch": 0,
            }
        self._checkpoint_id = write_checkpoint(
            self,
            self.persist_dir,
            checkpoint_id=self._checkpoint_id + 1,
            state=state,
            durability=durability,
            injector=self.fault_injector,
        )
        if self.wal is not None and new_epoch is not None:
            self.wal.remove_segments_before(new_epoch)
        return self._checkpoint_id

    def _ddl_checkpoint(self) -> None:
        """Schema changes are not WAL-logged; a durable database persists
        them by checkpointing immediately."""
        if self.durability is not None and self.persist_dir is not None:
            self.checkpoint()

    def run_transaction(
        self,
        fn: "Callable[[Transaction], Any]",
        retries: int = 10,
        backoff: float = 0.01,
        session: "str | None" = None,
    ) -> Any:
        """Run ``fn(txn)`` in a transaction, retrying serialization
        conflicts with jittered exponential backoff.

        ``fn`` gets a fresh :class:`Transaction` per attempt; the helper
        commits after ``fn`` returns (unless ``fn`` already finished the
        transaction) and rolls back on any exception.  After ``retries``
        conflict retries the :class:`SerializationError` propagates.
        Returns ``fn``'s result.
        """
        self._check_open()
        return retry_transaction(
            fn,
            begin=lambda: self.begin(session=session),
            commit=lambda txn: txn.commit() if txn.active else None,
            rollback=lambda txn: txn.rollback(),
            retries=retries,
            backoff=backoff,
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # Only a clean exit persists; an exception keeps the previous
        # consistent snapshot instead of flushing half-mutated state.
        self.close(flush=exc_type is None)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("database is closed")

    def _invalidate(self) -> None:
        """Invalidate cached plans after a schema/data/stats change."""
        self.planner.invalidate()

    def _register_metrics(self) -> None:
        """Register every subsystem into the metrics registry.

        Counters the subsystems already keep (planner, plan cache,
        transaction manager, WAL, tracer) are bridged as
        callback gauges — one source of truth, no double bookkeeping.
        Native instruments are the per-query ones nothing kept before:
        ``query.count`` and the bounded ``query.ms`` latency histogram.
        """
        registry = self.registry
        self._queries_total = registry.counter(
            "query.count", "queries executed on any surface"
        )
        self._query_ms = registry.histogram(
            "query.ms", "end-to-end query latency in milliseconds"
        )
        planner_metrics = self.planner.metrics
        for name in ("binds", "prepares", "plans_built", "plans_compiled",
                     "invalidations", "synopses_built"):
            registry.gauge(
                f"planner.{name}", f"planner lifetime {name}",
                fn=lambda n=name, m=planner_metrics: getattr(m, n),
            )
        cache_stats = self.planner.cache.stats
        for name in ("hits", "misses", "evictions", "invalidations"):
            registry.gauge(
                f"plan_cache.{name}", f"plan cache {name}",
                fn=lambda n=name, s=cache_stats: getattr(s, n),
            )
        manager = self.transactions
        for name in ("begun", "committed", "rolled_back", "conflicts"):
            registry.gauge(
                f"txn.{name}", f"transactions {name}",
                fn=lambda n=name, m=manager: getattr(m, n),
            )
        registry.gauge(
            "wal.records_appended", "WAL records appended since open",
            fn=lambda: self.wal.records_appended if self.wal else 0,
        )
        tracer = self.tracer
        for name in ("traces_started", "traces_finished", "slow_queries"):
            registry.gauge(
                f"trace.{name}", f"tracer lifetime {name}",
                fn=lambda n=name, t=tracer: getattr(t, n),
            )

    def _record_feedback(self, entry, plan: PlanNode, root: Any) -> None:
        """Fold one execution's per-operator actuals into the entry's
        :class:`~repro.observe.feedback.PlanFeedback` (built lazily at
        first execution, with the estimates of the cost model that chose
        the plan, carried on the entry).  A bound entry folds into its
        template's store, so every binding of a template shares one."""
        from ..observe.feedback import PlanFeedback

        entry = entry.template or entry
        feedback = entry.feedback
        if feedback is None:
            feedback = PlanFeedback.build(plan, root, entry.estimates)
            # benign last-writer-wins race: concurrent first executions
            # build equivalent node lists
            entry.feedback = feedback
        feedback.record(plan, root)

    # ------------------------------------------------------------------
    # schema & data definition
    # ------------------------------------------------------------------
    def create_table(self, name: str, columns: Sequence[ColumnSpec]) -> Table:
        """Create a table from terse column specs.

        Each spec is a name (FLOAT by default), a ``(name, DataType)`` pair,
        or a full :class:`Column`.
        """
        self._check_open()
        resolved: list[Column] = []
        for spec in columns:
            if isinstance(spec, Column):
                resolved.append(spec)
            elif isinstance(spec, str):
                resolved.append(Column(spec, DataType.FLOAT))
            else:
                column_name, dtype = spec
                resolved.append(Column(column_name, dtype))
        self._invalidate()
        created = self.catalog.create_table(name, Schema(resolved))
        self._ddl_checkpoint()
        return created

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-insert value tuples; returns the number inserted.

        On a WAL-durable database, autocommit DML runs as a one-statement
        transaction so it is logged and crash-safe like any commit.
        """
        self._check_open()
        with self.tracer.trace(f"INSERT INTO {table}", surface="dml"):
            self.tracer.annotate(regime="dml")
            if self.wal is not None:
                with self.begin(session="autocommit") as txn:
                    return txn.insert(self.catalog.table(table), rows)
            self._invalidate()
            return self.catalog.table(table).insert_many(rows)

    def insert_dicts(self, table: str, rows: Iterable[dict[str, Any]]) -> int:
        """Bulk-insert ``{column: value}`` dicts."""
        self._check_open()
        if self.wal is not None:
            t = self.catalog.table(table)
            names = t.schema.column_names()
            known = set(names)
            staged: list[list[Any]] = []
            for mapping in rows:
                unknown = set(mapping) - known
                if unknown:
                    from ..storage.schema import SchemaError

                    raise SchemaError(
                        f"unknown columns for table {table!r}: {sorted(unknown)}"
                    )
                staged.append([mapping.get(n) for n in names])
            with self.begin(session="autocommit") as txn:
                return txn.insert(t, staged)
        self._invalidate()
        return self.catalog.table(table).insert_dicts(rows)

    def load_csv(self, table: str, path: Any, has_header: bool = True) -> int:
        """Load a CSV file into a table (typed per the table schema)."""
        from .csv_io import load_csv, read_csv_rows

        self._check_open()
        t = self.catalog.table(table)
        if self.wal is not None:
            staged = read_csv_rows(t.schema, path, has_header=has_header)
            with self.begin(session="autocommit") as txn:
                return txn.insert(t, staged)
        self._invalidate()
        return load_csv(t, path, has_header=has_header)

    def delete_where(
        self,
        table: str,
        condition: "Callable[[Row], bool] | None" = None,
        *,
        column: str | None = None,
        equals: Any = None,
    ) -> int:
        """Delete rows matching ``condition(row)`` — or, for the simple
        (wire-friendly) form, rows whose ``column`` equals ``equals``.

        Publishes a new table version without the matching rows; readers
        admitted on an older snapshot still see them (snapshot isolation).
        Returns the number deleted.
        """
        self._check_open()
        t = self.catalog.table(table)
        if (condition is None) == (column is None):
            raise ValueError("pass exactly one of: condition, column=/equals=")
        with self.tracer.trace(f"DELETE FROM {table}", surface="dml"):
            self.tracer.annotate(regime="dml")
            if self.wal is not None:
                with self.begin(session="autocommit") as txn:
                    if condition is not None:
                        return txn.delete_where(t, condition)
                    return txn.delete_where(t, column=column, equals=equals)
            if condition is None:
                qualified = column if "." in column else f"{table}.{column}"
                position = t.schema.index_of(qualified)
                value = equals

                def condition(row: Row, _p=position, _v=value) -> bool:
                    return row[_p] == _v

            deleted = t.delete_where(condition)
            if deleted:
                self._invalidate()
            return deleted

    def analyze(self, table: str | None = None) -> None:
        """(Re)compute statistics for one table or all tables, and redraw
        the planner's join synopses over them."""
        self._check_open()
        self._invalidate()
        self.planner.drop_synopses(table)
        if table is not None:
            self.catalog.analyze(table)
            return
        for t in self.catalog.tables():
            self.catalog.analyze(t.name)

    # ------------------------------------------------------------------
    # ranking predicates & indexes
    # ------------------------------------------------------------------
    def register_predicate(
        self,
        name: str,
        columns: Sequence[str],
        scorer: Expression | Callable[..., float],
        cost: float = 1.0,
        p_max: float = 1.0,
        spin_loops: int = 0,
    ) -> RankingPredicate:
        """Register a named ranking predicate (user-defined function).

        ``spin_loops`` adds busy-work per evaluation so the abstract
        ``cost`` also shows in wall time (benchmarking aid).
        """
        self._check_open()
        predicate = RankingPredicate(
            name, columns, scorer, cost=cost, p_max=p_max, spin_loops=spin_loops
        )
        self.catalog.register_predicate(predicate)
        self._ddl_checkpoint()
        return predicate

    def create_column_index(self, table: str, column: str) -> ColumnIndex:
        """Ordered index on a column (equality probes, interesting order)."""
        self._check_open()
        t = self.catalog.table(table)
        qualified = column if "." in column else f"{table}.{column}"
        index = ColumnIndex(f"{table}_{column.replace('.', '_')}_idx", t.schema, qualified)
        t.attach_index(index)
        self._invalidate()
        self._ddl_checkpoint()
        return index

    def create_rank_index(self, table: str, predicate_name: str) -> RankIndex:
        """Function-based index enabling rank-scans on a predicate."""
        self._check_open()
        t = self.catalog.table(table)
        predicate = self.catalog.predicate(predicate_name)
        index = RankIndex(
            f"{table}_{predicate_name}_rankidx",
            t.schema,
            predicate_name,
            predicate.compile(t.schema),
        )
        t.attach_index(index)
        self._invalidate()
        self._ddl_checkpoint()
        return index

    def create_multikey_index(
        self, table: str, bool_column: str, predicate_name: str
    ) -> MultiKeyIndex:
        """Composite (Boolean column, predicate score) index enabling
        scan-based selection (§4.2)."""
        self._check_open()
        t = self.catalog.table(table)
        predicate = self.catalog.predicate(predicate_name)
        qualified = bool_column if "." in bool_column else f"{table}.{bool_column}"
        index = MultiKeyIndex(
            f"{table}_{bool_column.replace('.', '_')}_{predicate_name}_mkidx",
            t.schema,
            qualified,
            predicate_name,
            predicate.compile(t.schema),
        )
        t.attach_index(index)
        self._invalidate()
        self._ddl_checkpoint()
        return index

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def bind(self, sql: str) -> QuerySpec:
        """Parse and bind a SQL string to a query spec."""
        self._check_open()
        return self.planner.bind(sql)

    def optimizer(self, spec: QuerySpec, **kwargs: Any) -> RankAwareOptimizer:
        """A rank-aware optimizer for a spec (join synopsis cached)."""
        self._check_open()
        return self.planner.optimizer(spec, **kwargs)

    def plan(self, query: "str | QuerySpec", **kwargs: Any) -> PlanNode:
        """Optimize a SQL string or spec into a physical plan (cached)."""
        self._check_open()
        return self.planner.plan(query, strategy="rank-aware", **kwargs)

    def plan_traditional(self, query: "str | QuerySpec", **kwargs: Any) -> PlanNode:
        """The materialize-then-sort baseline plan for a query."""
        self._check_open()
        return self.planner.plan(query, strategy="traditional", **kwargs)

    def prepare(
        self,
        query: "str | QuerySpec",
        strategy: str = "rank-aware",
        params: Any = None,
        **kwargs: Any,
    ) -> PreparedQuery:
        """Plan a query once and return a reusable :class:`PreparedQuery`.

        ``prepared.run(k=...)`` executes without re-planning (the plan cache
        and compiled evaluators are shared); catalog changes transparently
        trigger a re-plan on the next run.

        Parameterized statements (``?`` / ``:name``) are planned once per
        *template*: pass initial ``params`` to plan eagerly, or omit them
        and planning happens on the first ``run(params=...)``.
        """
        self._check_open()
        return PreparedQuery(self, query, strategy=strategy, params=params, **kwargs)

    def session(self, **settings: Any) -> Session:
        """A client session carrying per-client planner settings/metrics
        (the same :class:`Session` a server admits; its id is ``e<n>``)."""
        self._check_open()
        return Session(self, f"e{next(self._session_ids)}", **settings)

    # ------------------------------------------------------------------
    # concurrent serving
    # ------------------------------------------------------------------
    def snapshot(self) -> DatabaseSnapshot:
        """A consistent, immutable capture of every table's current version.

        O(#tables) reference copies — cheap enough to take per statement.
        Pass it to :meth:`query` / :meth:`execute` to pin what the plan
        reads; the serving subsystem does this at statement admission.

        Capture serializes with transaction commit publication (one short
        manager lock), so a snapshot always observes whole commits — never
        one table of a multi-table transaction without the other.
        """
        self._check_open()
        return self.transactions.capture()

    def begin(self, session: "str | None" = None) -> Transaction:
        """Start a multi-statement transaction (embedded surface).

        All the transaction's reads see the snapshot captured here plus
        its own buffered writes; ``txn.commit()`` publishes atomically with
        first-committer-wins conflict detection (raising
        :class:`~repro.storage.transaction.SerializationError` on loss),
        ``txn.rollback()`` discards.  Usable as a context manager
        (commit on clean exit, rollback on exception)::

            with db.begin() as txn:
                txn.insert(db.catalog.table("kv"), [(1, 42)])
        """
        self._check_open()
        return self.transactions.begin(session=session)

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int | None = None,
        workers: int = 4,
        record_history: bool = False,
        metrics_port: int | None = None,
        **session_defaults: Any,
    ) -> "QueryServer":
        """Start a concurrent multi-session server over this database.

        Returns the started :class:`~repro.server.QueryServer`.  With
        ``port=None`` only the in-process client surface is available
        (``server.session()``); pass ``port=0`` for an ephemeral TCP port
        or a concrete port for ``python -m repro``-style serving.  All
        sessions share this database's plan cache; every statement reads a
        snapshot captured at admission.  ``record_history=True`` logs
        every finished transaction for the black-box isolation checker
        (``server.history()`` harvests it; see :mod:`repro.verify`).
        ``metrics_port`` additionally starts a Prometheus-text HTTP
        endpoint (``GET /metrics``; 0 = ephemeral).
        """
        from ..server import QueryServer

        self._check_open()
        return QueryServer(
            self,
            workers=workers,
            host=host,
            port=port,
            record_history=record_history,
            metrics_port=metrics_port,
            **session_defaults,
        ).start()

    def query(
        self,
        query: "str | QuerySpec",
        params: Any = None,
        snapshot: DatabaseSnapshot | None = None,
        strategy: str = "rank-aware",
        **kwargs: Any,
    ) -> QueryResult:
        """Optimize (with plan caching) and execute a query.

        ``params`` binds ``?`` / ``:name`` placeholders: a sequence for
        positional parameters, a mapping for named ones.  All bindings of
        one template share a single cached plan, so repeated calls with
        varying constants skip optimization entirely.

        ``snapshot`` (from :meth:`snapshot`) executes against the captured
        table versions instead of the live catalog — the embedded route to
        the same snapshot-isolated reads the server gives every statement.
        """

        def statement() -> QueryResult:
            entry, hit = self.planner.prepare(
                query, strategy=strategy, params=params, **kwargs
            )
            return self._run_entry(entry, hit, snapshot=snapshot)

        return self._statement(query, "query", statement)

    def _statement(
        self,
        query: "str | QuerySpec | LogicalOperator",
        surface: str,
        run: "Callable[[], QueryResult]",
    ) -> QueryResult:
        """The prologue every statement surface (``query``, prepared runs,
        sessions, ``query_logical``) opens a statement with: reject a closed
        database, answer ``system.*`` introspection without planning or
        tracing it, and run everything else as ``run()`` inside one trace
        labelled ``surface``."""
        self._check_open()
        if isinstance(query, str):
            virtual = _system_tables.maybe_execute(
                query, self.tracer, self.registry
            )
            if virtual is not None:
                return virtual
            sql = query
        elif isinstance(query, QuerySpec):
            sql = "<QuerySpec>"
        else:
            sql = "<logical plan>"
        with self.tracer.trace(sql, surface=surface):
            return run()

    def _run_entry(
        self,
        entry: CachedPlan,
        hit: bool,
        k: int | None = None,
        snapshot: DatabaseSnapshot | None = None,
    ) -> QueryResult:
        """Run a cached plan, bound to its statement's values
        (:meth:`CachedPlan.bind <repro.planner.cache.CachedPlan.bind>`) —
        the funnel every SQL surface shares.  Picks the plan for the ``k``
        override, stamps the trace with the regime, a compact signature
        key and the cache outcome, and executes.  ``hit`` becomes
        ``QueryResult.plan_cached``."""
        plan, wanted = entry.executable_for(k)
        self.tracer.annotate(
            regime=entry.regime(),
            signature=f"sig:{abs(hash(entry.signature)):012x}",
            cache="hit" if hit else "miss",
        )
        return self.execute(
            plan,
            entry.scoring,
            k=wanted,
            evaluators=entry.evaluators,
            plan_cached=hit,
            snapshot=snapshot,
            entry=entry,
        )

    def open_cursor(
        self, query: "str | QuerySpec", params: Any = None, **kwargs: Any
    ) -> "Cursor":
        """Optimize a query and return an incremental :class:`Cursor`.

        The cursor is not bounded by the query's LIMIT — it keeps producing
        ranked results on demand (the paper's "k ... not even specified
        beforehand" scenario) until the plan is exhausted or the cursor is
        closed.
        """
        return self.prepare(query, **kwargs).cursor(params=params)

    def execute(
        self,
        plan: PlanNode,
        scoring: ScoringFunction,
        k: int | None = None,
        evaluators: EvaluatorCache | None = None,
        plan_cached: bool = False,
        snapshot: DatabaseSnapshot | None = None,
        entry: Any = None,
    ) -> QueryResult:
        """Execute a physical plan, pulling at most ``k`` results.

        ``evaluators`` shares compiled predicate evaluators across
        executions (the prepared/cached warm path).  ``snapshot`` pins the
        table versions every scan reads (snapshot-isolated execution);
        ``None`` reads the live catalog.  ``entry`` (the
        :class:`~repro.planner.cache.CachedPlan` this plan came from, when
        known) supplies the execution's bind-variable values
        (``entry.params``, set when the planner bound it) and receives
        per-operator estimated-vs-actual feedback.

        This is the single execution funnel — every surface (embedded
        ``query``, prepared statements, server sessions) lands here, so
        the execute span, the latency histogram and the feedback fold
        cover all of them.
        """
        self._check_open()
        context = ExecutionContext(
            snapshot if snapshot is not None else self.catalog,
            scoring,
            evaluators=evaluators,
            params=entry.params if entry is not None else None,
        )
        context.tracer = self.tracer
        start = time.perf_counter()
        root = plan.build()
        with self.tracer.span("execute"):
            schema, out = collect_plan(root, context, k)
        self._queries_total.inc()
        self._query_ms.observe((time.perf_counter() - start) * 1000.0)
        if entry is not None:
            self._record_feedback(entry, plan, root)
        return QueryResult(
            schema, out, scoring, plan, context.metrics, plan_cached=plan_cached
        )

    def explain(
        self,
        query: "str | QuerySpec",
        strategy: str = "rank-aware",
        **kwargs: Any,
    ) -> str:
        """The optimizer's chosen plan for a query, pretty-printed.

        Unless ``execution="row"`` the tree marks every compiled segment
        (``compiled segment (row cost=… vs compiled cost=… -> compiled)``)
        and a footer lists the pricing of every sort-topped segment,
        including those that stayed row-mode — both regimes' costs and
        which won.
        """
        self._check_open()
        entry, __ = self.planner.prepare(query, strategy=strategy, **kwargs)
        text = entry.plan.explain()
        if entry.decisions:
            from ..optimizer.hybrid import render_decisions

            text += "\n" + render_decisions(entry.decisions)
        return text

    def explain_analyze(
        self,
        query: "str | QuerySpec",
        params: Any = None,
        strategy: str = "rank-aware",
        **kwargs: Any,
    ) -> str:
        """Optimize, execute and annotate the plan with estimated vs actual
        per-operator statistics (the engine's EXPLAIN ANALYZE).

        Compiled segments report as a single fused node (the whole
        segment's wall time on one ``compiled[...]`` line)."""
        from ..optimizer.explain import explain_analyze

        self._check_open()
        entry, __ = self.planner.prepare(
            query, strategy=strategy, params=params, **kwargs
        )
        report = explain_analyze(
            self.catalog,
            entry.spec,
            entry.plan,
            estimates=entry.estimates,
            decisions=entry.decisions,
            params=entry.params,
        )
        return report.render()

    def query_logical(
        self,
        logical: LogicalOperator,
        spec: QuerySpec,
        k: int | None = None,
    ) -> QueryResult:
        """Implement and execute a hand-built *logical* plan.

        The implementation rules
        (:class:`~repro.optimizer.rule_based.RuleBasedOptimizer`) cover the
        full algebra including the rank-aware set operations ∪, ∩, − —
        use this for queries the SQL dialect cannot express, e.g. the
        union of two ranked relations.  The tree is implemented as given,
        cheapest physical operator per node; nothing rewrites it.
        ``spec`` supplies the scoring function, ``k`` and the statistics
        context (its table list should cover the plan's tables).  The
        statement is traced under the ``logical`` surface.
        """

        def statement() -> QueryResult:
            physical = self.planner.plan_logical(logical, spec)
            return self.execute(
                physical, spec.scoring, k=k if k is not None else spec.k
            )

        return self._statement(logical, "logical", statement)
