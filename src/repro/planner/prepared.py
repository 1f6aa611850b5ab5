"""Prepared statements and sessions: the client-facing reuse API.

A :class:`PreparedQuery` pins the output of the planner pipeline — spec,
physical plan, compiled evaluators — so each :meth:`PreparedQuery.run` pays
only execution.  Prepared queries survive catalog changes: every run checks
the planner generation and transparently re-plans when tables, indexes or
statistics have moved underneath it (stale plans are never executed).

Parameterized statements (``?`` / ``:name`` placeholders) are prepared
*once per template*: ``run(params=...)`` runs the cached, value-free plan
bound to that run's values (:meth:`CachedPlan.bind
<repro.planner.cache.CachedPlan.bind>`), so every constant reuses the same
plan and compiled evaluators, and runs of one template never wait for
each other.  The optimizer evaluates the selections on the join
synopsis's rows — the walks and the uniform rows its selectivities come
from — so it needs concrete values: a parameterized statement prepared
without initial bindings defers planning to its first ``run(params=...)``
(bind peeking).

A :class:`Session` is one client's execution context — the same class for
an embedded ``db.session()`` and for every session a
:class:`~repro.server.QueryServer` admits.  It carries per-client planning
settings (strategy, execution regime, heuristic knobs), at most one open
transaction and the client's counters, and plans every statement against
the shared plan cache.

Every SQL surface — ``Database.query``, :meth:`PreparedQuery.run`,
:meth:`Session.execute` — runs a statement through the same two steps on
the database (the statement prologue, then the cached-plan funnel), so the
``system.*`` interception, the trace annotations and the per-execution
binding of a parameterized template hold identically on all of them.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from ..algebra.parameters import ParameterError
from ..execution.iterator import ExecutionContext
from ..optimizer.query_spec import QuerySpec
from ..storage.transaction import TransactionError
from .cache import CachedPlan, strip_limit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.database import Database
    from ..engine.result import Cursor, QueryResult
    from ..storage.snapshot import DatabaseSnapshot
    from ..storage.transaction import Transaction

__all__ = ["PreparedQuery", "Session", "SessionError", "strip_limit"]


class SessionError(RuntimeError):
    """Raised for unknown or closed sessions."""


class PreparedQuery:
    """A query planned once (per template), executable many times.

    Created via :meth:`Database.prepare <repro.engine.database.Database.prepare>`
    or :meth:`Session.prepare`.  ``run(k=...)`` may override the query's
    LIMIT in either direction — a larger ``k`` executes the limit-stripped
    plan, so preparation does not fix the result size.

    For a parameterized statement, every ``run`` must supply one complete
    set of bindings (``run(params=...)``); bindings are per-run, never
    remembered between runs.  Planning happens on the first run (or at
    construction when initial ``params`` are given) using those first
    bindings as peeked values for the cost estimates; all
    later bindings execute the same cached template plan.
    """

    def __init__(
        self,
        database: "Database",
        query: "str | QuerySpec",
        strategy: str = "rank-aware",
        params: Any = None,
        **knobs: Any,
    ):
        self._db = database
        self._query = query
        self._strategy = strategy
        self._knobs = dict(knobs)
        spec = database.planner.bind(query) if isinstance(query, str) else query
        self._parameterized = bool(spec.parameters)
        #: the cached template (never a bound copy), once planned
        self._entry: CachedPlan | None = None
        self._hit = False
        #: the bound spec, until the first planning consumes it
        self._pending_spec: QuerySpec | None = spec
        #: whether the current entry has been executed before (its first
        #: run after a cold build must not report plan_cached=True)
        self._ran = False
        # A parameterized statement without params defers planning to the
        # first run(params=...): optimizing needs concrete values for the
        # estimates (bind peeking).
        if not self._parameterized or params is not None:
            self._refresh(params)

    # -- introspection -----------------------------------------------------
    @property
    def parameterized(self) -> bool:
        """Whether this statement has bind-variable placeholders."""
        return self._parameterized

    @property
    def parameter_keys(self) -> tuple[str, ...]:
        """Slot keys of the statement's placeholders, in order."""
        spec = self.spec
        return spec.parameters.keys if spec.parameters is not None else ()

    @property
    def spec(self) -> QuerySpec:
        if self._entry is not None:
            return self._entry.spec
        assert self._pending_spec is not None
        return self._pending_spec

    @property
    def plan(self) -> PlanNode:
        if self._entry is None:
            raise ParameterError(
                "parameterized statement is not planned yet; "
                "call run(params=...) or explain(params=...) first"
            )
        return self._entry.plan

    @property
    def strategy(self) -> str:
        return self._strategy

    @property
    def compiled_segments(self) -> int:
        """How many of the plan's segments run as compiled fused functions
        (0 = pure row execution, or planning still deferred)."""
        return self._entry.compiled_segments if self._entry is not None else 0

    @property
    def from_cache(self) -> bool:
        """Whether the most recent (re-)preparation was a plan-cache hit.

        False while a parameterized statement's planning is still deferred.
        """
        return self._hit

    def explain(self, params: Any = None) -> str:
        """The chosen plan, pretty-printed.

        ``params`` are required whenever (re-)planning has to happen —
        while planning is still deferred, and after a catalog change
        orphaned the cached template (re-optimization peeks the values,
        exactly like ``run``).  When supplied they are always validated,
        so a warm ``explain`` gives the same feedback on misnamed or
        mistyped bindings as ``run`` would; a warm ``explain`` without
        ``params`` just prints the current template plan.
        """
        entry = self._refresh(params)
        if params is not None:
            entry.bind(params)  # validates exactly as run() would
        return entry.plan.explain()

    # -- execution ---------------------------------------------------------
    def _refresh(self, params: Any = None) -> CachedPlan:
        """The current entry, (re-)planning if deferred or the catalog
        moved on; ``params`` supply peek values for a cold build."""
        planner = self._db.planner
        if self._entry is None or self._entry.generation != planner.generation:
            query = self._query if self._pending_spec is None else self._pending_spec
            entry, self._hit = planner.prepare(
                query, strategy=self._strategy, params=params, **self._knobs
            )
            self._entry = entry.template or entry
            self._pending_spec = None
            self._ran = False
        return self._entry

    def run(
        self,
        k: int | None = None,
        params: Any = None,
        snapshot: Any = None,
    ) -> "QueryResult":
        """Execute the prepared plan, returning its top ``k`` results.

        ``params`` binds the statement's placeholders for this run (and is
        required, in full, on every run of a parameterized statement).

        ``snapshot`` pins the table versions the plan reads (a
        :class:`~repro.storage.snapshot.DatabaseSnapshot` or a
        transaction's read view); ``None`` reads the live catalog.

        ``QueryResult.plan_cached`` is faithful to the optimizer work this
        statement actually skipped — including for parameterized runs: it is
        False exactly when the template was freshly optimized (at
        construction, on the deferred first ``run(params=...)``, or after an
        invalidation) and this is its first execution.  A cold template
        build never reports ``plan_cached=True``, no matter how many
        bindings follow; a first run that *hits* a template another
        statement already planned does report True.
        """

        def statement() -> "QueryResult":
            entry = self._refresh(params).bind(params)
            hit = self._hit or self._ran
            self._ran = True
            return self._db._run_entry(entry, hit, k, snapshot)

        return self._db._statement(self._query, "prepared", statement)

    def cursor(self, params: Any = None) -> "Cursor":
        """An incremental cursor over the prepared plan (limit stripped).

        The cursor's execution carries its own validated ``params``: its
        operators compile them in at open, so other executions of the same
        template — other ``run``/``cursor`` calls with different
        ``params``, on any thread or surface that shares the cached plan —
        neither change an open cursor's predicates nor wait for it.
        """
        from ..engine.result import Cursor

        entry = self._refresh(params).bind(params)
        # Stripping the λ also strips its top-k hint, so a sort or compiled
        # segment below delivers the full ordering the cursor needs.
        unlimited = strip_limit(entry.executable)
        context = ExecutionContext(
            self._db.catalog,
            entry.scoring,
            evaluators=entry.evaluators,
            params=entry.params,
        )
        context.begin_run()
        return Cursor(unlimited.build(), context, entry.scoring, unlimited)


class Session:
    """One client's execution context: settings, a transaction, counters.

    ``settings`` are planner knobs applied to every statement the session
    plans (``strategy``, ``execution``, heuristic flags …).
    Statements plan against the database's shared plan cache, so every
    session reuses plans any other session (or ``db.query``) built; the
    per-session hit/miss counters record how much of that shared work this
    client reused.  ``surface`` labels the session's statement traces.

    Concurrency contract:

    * Statements of one session serialize on its statement lock, so a
      session may be shared between threads (and a server client that
      pipelines requests gets in-order, one-at-a-time execution).
    * Nothing else serializes: a parameterized statement runs the shared
      cached template bound to its own values (see :meth:`CachedPlan.bind
      <repro.planner.cache.CachedPlan.bind>`), so runs of one template on
      other sessions neither read its constants nor wait for it.
    * A session holds at most one open **transaction** (:meth:`begin` /
      :meth:`commit` / :meth:`rollback`).  While it is open, every
      ``execute`` reads the BEGIN-time snapshot plus the transaction's own
      buffered writes (overriding any ``snapshot`` argument), and
      :meth:`insert` / :meth:`delete_where` buffer instead of publishing;
      executed queries are logged into the transaction's event stream for
      the history recorder.  Closing a session rolls its transaction back.
    * Any use after :meth:`close` raises :class:`SessionError`.
    """

    #: the per-session counters :meth:`summary` reports (and
    #: :class:`~repro.server.session.SessionManager` banks on close)
    COUNTERS = (
        "queries_executed",
        "rows_returned",
        "simulated_cost",
        "plan_cache_hits",
        "plan_cache_misses",
        "compiled_executions",
        "interpreted_executions",
    )

    def __init__(
        self,
        database: "Database",
        session_id: str,
        surface: str = "prepared",
        strategy: str = "rank-aware",
        **settings: Any,
    ):
        self._db = database
        self.session_id = session_id
        self.surface = surface
        self.strategy = strategy
        self.settings = settings
        self._closed = False
        #: serializes this session's statements (see the class contract)
        self._statement_lock = threading.Lock()
        #: the session's open transaction, if any (at most one)
        self.transaction: "Transaction | None" = None
        #: client-side totals across every statement this session executed;
        #: ``compiled_executions`` / ``interpreted_executions`` split them
        #: by whether the plan carried at least one compiled fused segment
        for name in self.COUNTERS:
            setattr(self, name, 0)

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        # An open transaction dies with its session — buffered writes are
        # private, so this is a pure discard.
        with self._statement_lock:
            transaction, self.transaction = self.transaction, None
            if transaction is not None:
                transaction.rollback()
            self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise SessionError(f"session {self.session_id!r} is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- statements ----------------------------------------------------------
    def execute(
        self,
        query: "str | QuerySpec",
        k: int | None = None,
        params: Any = None,
        snapshot: "DatabaseSnapshot | None" = None,
    ) -> "QueryResult":
        """Plan (against the shared cache) and execute one statement.

        ``params`` binds ``?`` / ``:name`` placeholders for this execution.
        ``snapshot`` pins the table versions the plan reads (the server
        captures one at admission); ``None`` reads the live catalog.  While
        the session has an open transaction, its read view overrides either.
        """
        with self._statement_lock:
            self._check_open()
            return self._db._statement(
                query,
                self.surface,
                lambda: self._run(query, k, params, snapshot),
            )

    def _run(self, query, k, params, snapshot) -> "QueryResult":
        transaction = self.transaction if self.in_transaction else None
        if transaction is not None:
            snapshot = transaction.read_view()
        entry, hit = self._db.planner.prepare(
            query, strategy=self.strategy, params=params, **self.settings
        )
        result = self._db._run_entry(entry, hit, k, snapshot)
        self.queries_executed += 1
        self.rows_returned += len(result)
        self.simulated_cost += result.metrics.simulated_cost
        if hit:
            self.plan_cache_hits += 1
        else:
            self.plan_cache_misses += 1
        if entry.compiled_segments:
            self.compiled_executions += 1
        else:
            self.interpreted_executions += 1
        if transaction is not None and transaction.active:
            transaction.record_query(
                query if isinstance(query, str) else repr(query),
                params,
                [tuple(values) for values in result.rows],
            )
        return result

    def prepare(self, query: "str | QuerySpec") -> PreparedQuery:
        """Prepare a statement under the session's settings."""
        self._check_open()
        return self._db.prepare(query, strategy=self.strategy, **self.settings)

    def cursor(self, query: "str | QuerySpec", params: Any = None) -> "Cursor":
        """An incremental cursor under the session's settings."""
        return self.prepare(query).cursor(params=params)

    def explain(self, query: "str | QuerySpec", params: Any = None) -> str:
        """The chosen plan for a statement under the session's settings."""
        return self.prepare(query).explain(params=params)

    # -- transactions ------------------------------------------------------
    @property
    def in_transaction(self) -> bool:
        return self.transaction is not None and self.transaction.active

    def begin(self) -> "Transaction":
        """Open a transaction on this session (at most one at a time),
        attributed to this session in the transaction history."""
        with self._statement_lock:
            self._check_open()
            if self.in_transaction:
                raise TransactionError(
                    f"session {self.session_id!r} already has an open "
                    "transaction; COMMIT or ROLLBACK it first"
                )
            self.transaction = self._db.begin(session=self.session_id)
            return self.transaction

    def commit(self) -> int:
        """Commit the open transaction; returns the commit sequence.
        Raises :class:`~repro.storage.transaction.SerializationError` on a
        first-committer-wins conflict (the transaction is gone either way
        — retry means a fresh :meth:`begin`)."""
        with self._statement_lock:
            self._check_open()
            transaction = self.transaction
            if transaction is None or not transaction.active:
                raise TransactionError(
                    f"session {self.session_id!r} has no open transaction"
                )
            self.transaction = None
            return transaction.commit()

    def rollback(self) -> None:
        """Discard the open transaction's buffered writes.  A no-op when
        none is open, so cleanup paths may call it unconditionally."""
        with self._statement_lock:
            self._check_open()
            transaction, self.transaction = self.transaction, None
            if transaction is not None:
                transaction.rollback()

    # -- DML (transactional when a transaction is open) --------------------
    def insert(self, table: str, rows: Any) -> int:
        """Insert value tuples — buffered in the open transaction, applied
        immediately (autocommit) otherwise."""
        with self._statement_lock:
            self._check_open()
            if self.in_transaction:
                return self.transaction.insert(self._db.catalog.table(table), rows)
            return self._db.insert(table, rows)

    def delete_where(
        self,
        table: str,
        condition: Any = None,
        *,
        column: "str | None" = None,
        equals: Any = None,
    ) -> int:
        """Delete rows — buffered in the open transaction (matched against
        its own read view), applied immediately (autocommit) otherwise."""
        with self._statement_lock:
            self._check_open()
            if self.in_transaction:
                return self.transaction.delete_where(
                    self._db.catalog.table(table),
                    condition,
                    column=column,
                    equals=equals,
                )
            return self._db.delete_where(
                table, condition, column=column, equals=equals
            )

    # -- metrics -----------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """This session's shared-plan-cache hit rate."""
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0

    def summary(self) -> dict[str, Any]:
        """The session id, its counters and its plan-cache hit rate."""
        out: dict[str, Any] = {"session_id": self.session_id}
        out.update((name, getattr(self, name)) for name in self.COUNTERS)
        out["plan_cache_hit_rate"] = self.hit_rate
        return out
