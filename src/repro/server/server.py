"""The concurrent query server: admission, worker pool, wire front end.

:class:`QueryServer` turns an embedded :class:`~repro.engine.database.Database`
into a multi-session engine.  The flow of one statement:

1. **Admission** — :meth:`QueryServer.submit` resolves the session and
   captures a :class:`~repro.storage.snapshot.DatabaseSnapshot` *now*:
   whatever versions the tables are at when the statement is accepted are
   the versions the whole plan will read.  The statement then joins the
   server queue.
2. **Queueing** — a bounded set of worker threads drains the queue; the
   queue length is observable (:meth:`QueryServer.summary`), which is the
   hook a future admission-control policy needs.
3. **Execution** — the worker runs the statement through its
   :class:`~repro.planner.Session` (the same class and code path as an
   embedded session), which plans against the process-wide shared plan
   cache and executes against the admission snapshot.  The result (or
   exception) resolves the caller's future.

Two client surfaces share that path:

* **in-process** — :meth:`QueryServer.session` returns an
  :class:`InProcessClient` whose ``execute`` goes admission → queue →
  worker exactly like remote traffic (tests and embedding servers use
  this; no sockets involved);
* **TCP** — :meth:`QueryServer.start` (with a port) listens for
  connections speaking the line-delimited JSON protocol
  (:mod:`repro.server.protocol`); each connection gets a session on
  ``hello`` and a reader thread that forwards its statements.

Thread model: workers execute statements concurrently; per-session
statements serialize on the session lock; writers (``insert`` / ``delete``
ops and the embedded write API) serialize per table on the storage write
lock and publish new versions readers never block on.  DML routes through
the session, so inside an open transaction (``begin``/``commit``/
``rollback`` ops) it buffers privately instead of publishing, and queries
read the BEGIN-time snapshot plus those buffered writes.  Wire DML
deliberately bypasses the read queue — it needs no admission snapshot and
must not wait behind queued reads — running on the connection thread; it
is surfaced separately as ``writes_executed`` in :meth:`QueryServer.summary`
(a future admission-control policy that should govern writes would route
these through :meth:`QueryServer.submit`).  The GIL bounds CPU
parallelism, so the worker pool's win is *overlap* — queue wait, client
think time and socket I/O — exactly the shape of multi-user serving.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..storage.snapshot import DatabaseSnapshot
from ..storage.transaction import retry_transaction
from . import protocol
from .protocol import ProtocolError
from .session import Session, SessionError, SessionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.database import Database
    from ..engine.result import QueryResult
    from ..storage.transaction import Transaction
    from ..verify.history import History
    from .history import HistoryRecorder


@dataclass
class _Request:
    """One admitted statement waiting for a worker."""

    session: Session
    sql: str
    params: Any
    k: int | None
    snapshot: DatabaseSnapshot
    future: "Future[QueryResult]" = field(default_factory=Future)


class QueryServer:
    """A threaded, multi-session front end over one database.

    ``workers`` sizes the execution pool; ``port`` (not None) additionally
    opens the TCP listener on :meth:`start` (``port=0`` picks an ephemeral
    port — see :attr:`address`).  Use as a context manager for clean
    shutdown::

        with db.serve(workers=4) as server:
            with server.session() as client:
                client.execute("SELECT ... LIMIT 5")
    """

    def __init__(
        self,
        database: "Database",
        workers: int = 4,
        host: str = "127.0.0.1",
        port: int | None = None,
        record_history: bool = False,
        idle_timeout: "float | None" = None,
        metrics_port: int | None = None,
        **session_defaults: Any,
    ):
        if workers < 1:
            raise ValueError("worker pool needs at least one thread")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive (or None)")
        self.database = database
        self.workers = workers
        self.host = host
        self.port = port
        #: seconds of client silence before a connection is reaped (None =
        #: never); every connection polls its socket with a short timeout,
        #: so a dead client cannot pin its thread forever either way
        self.idle_timeout = idle_timeout
        self.sessions = SessionManager(database, **session_defaults)
        #: transaction-history recording for the black-box isolation
        #: checker (repro.verify); opt-in — it retains every finished
        #: transaction's event log until harvested
        self.recorder: "HistoryRecorder | None" = None
        if record_history:
            from .history import HistoryRecorder

            self.recorder = HistoryRecorder()
            database.transactions.add_listener(self.recorder)
        #: port for the optional Prometheus-text ``GET /metrics`` endpoint
        #: (None = no HTTP scrape surface; 0 picks an ephemeral port)
        self.metrics_port = metrics_port
        self._metrics_httpd: Any = None
        self._queue: "queue.Queue[_Request | None]" = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._listener: socket.socket | None = None
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._running = False
        #: set by :meth:`shutdown`: stop admitting, let in-flight finish
        self._draining = False
        self._lock = threading.Lock()
        #: signalled whenever a statement resolves (drain waits on it)
        self._idle = threading.Condition(self._lock)
        #: admission/queue metrics
        self.statements_admitted = 0
        self.statements_completed = 0
        self.statements_failed = 0
        self.max_queue_depth = 0
        #: idle connections closed by the reaper
        self.connections_reaped = 0
        #: wire DML ops (insert/delete), which bypass the read queue: they
        #: run on the connection thread and serialize on the storage write
        #: locks, so they are counted separately from queued statements
        self.writes_executed = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "QueryServer":
        """Spin up the worker pool (and the TCP listener when a port is
        configured); idempotent."""
        with self._lock:
            if self._running:
                return self
            self._running = True
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        if self.port is not None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen()
            listener.settimeout(0.2)
            self._listener = listener
            self.port = listener.getsockname()[1]
            accept = threading.Thread(
                target=self._accept_loop, name="repro-accept", daemon=True
            )
            accept.start()
            self._threads.append(accept)
        if self.metrics_port is not None:
            self._start_metrics_endpoint()
        return self

    @property
    def address(self) -> tuple[str, int]:
        """The listening ``(host, port)`` (port resolved after start)."""
        if self.port is None:
            raise RuntimeError("server has no TCP listener configured")
        return (self.host, self.port)

    @property
    def running(self) -> bool:
        return self._running

    def stop(self) -> None:
        """Drain and stop: close connections, stop workers, close sessions."""
        with self._lock:
            if not self._running:
                return
            self._running = False
        if self._metrics_httpd is not None:
            self._metrics_httpd.shutdown()
            self._metrics_httpd.server_close()
            self._metrics_httpd = None
        if self._listener is not None:
            self._listener.close()
        with self._connections_lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        with self._lock:
            # Sentinels go in under the lock, after _running is False: no
            # request can be enqueued behind them (see submit()).
            for __ in range(self.workers):
                self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads.clear()
        # Belt and braces: fail anything still queued (e.g. a worker died
        # on join timeout) so no caller blocks on an unresolvable future.
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            if request is not None:
                request.future.set_exception(
                    RuntimeError("server stopped before executing the statement")
                )
        self.sessions.close_all()
        if self.recorder is not None:
            self.database.transactions.remove_listener(self.recorder)

    def shutdown(self, drain_timeout: float = 10.0) -> None:
        """Graceful stop: refuse new statements, drain in-flight ones,
        roll back every session's open transaction, and checkpoint
        durable state.

        Admission stops immediately (:meth:`submit` raises); statements
        already queued or executing get up to ``drain_timeout`` seconds to
        finish, then :meth:`stop` tears down connections and workers
        (``sessions.close_all`` rolls back open transactions there).  If
        the database has durability attached, a final checkpoint persists
        everything the WAL holds — a restart recovers with an empty log.
        """
        with self._idle:
            if not self._running:
                return
            self._draining = True
            deadline = time.monotonic() + drain_timeout
            while (
                self.statements_admitted
                != self.statements_completed + self.statements_failed
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break  # stop() fails whatever is still queued
                self._idle.wait(remaining)
        self.stop()
        database = self.database
        if database.durability is not None and database.persist_dir is not None:
            database.checkpoint()

    @property
    def draining(self) -> bool:
        return self._draining

    def history(self, initial: "dict | None" = None) -> "History":
        """The recorded transaction history (requires
        ``record_history=True``); feed it to
        :func:`repro.verify.check_snapshot_isolation`."""
        if self.recorder is None:
            raise RuntimeError(
                "history recording is off; serve with record_history=True"
            )
        return self.recorder.history(initial=initial)

    def __enter__(self) -> "QueryServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # admission + execution (shared by in-process and TCP clients)
    # ------------------------------------------------------------------
    def submit(
        self,
        session: "Session | str",
        sql: str,
        params: Any = None,
        k: int | None = None,
    ) -> "Future[QueryResult]":
        """Admit one statement; returns a future resolved by a worker.

        Admission is where the snapshot is captured: the statement will
        execute against the table versions current *now*, regardless of
        how long it queues or what writers do meanwhile.
        """
        if isinstance(session, str):
            session = self.sessions.get(session)
        request = _Request(
            session=session,
            sql=sql,
            params=params,
            k=k,
            snapshot=self.database.snapshot(),
        )
        # Admission check + enqueue are atomic with stop(): either this
        # request precedes the workers' shutdown sentinels in the FIFO
        # (and will be served), or the server is already stopping and the
        # caller fails fast instead of waiting on a future nobody resolves.
        with self._lock:
            if not self._running:
                raise RuntimeError("server is not running (call start())")
            if self._draining:
                raise RuntimeError(
                    "server is draining for shutdown; no new statements"
                )
            self.statements_admitted += 1
            depth = self._queue.qsize() + 1
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth
            self._queue.put(request)
        return request.future

    def execute(
        self,
        session: "Session | str",
        sql: str,
        params: Any = None,
        k: int | None = None,
    ) -> "QueryResult":
        """:meth:`submit` and wait — the synchronous client call."""
        return self.submit(session, sql, params=params, k=k).result()

    def session(self, **settings: Any) -> "InProcessClient":
        """Open a session and return its in-process client handle."""
        return InProcessClient(self, self.sessions.open(**settings))

    def _worker_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:
                return
            try:
                result = request.session.execute(
                    request.sql,
                    params=request.params,
                    k=request.k,
                    snapshot=request.snapshot,
                )
            except BaseException as error:  # resolve, never kill the worker
                with self._idle:
                    self.statements_failed += 1
                    self._idle.notify_all()
                request.future.set_exception(error)
            else:
                with self._idle:
                    self.statements_completed += 1
                    self._idle.notify_all()
                request.future.set_result(result)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """Server, session and shared-cache counters in one dict."""
        cache = self.database.planner.cache
        out = {
            "workers": self.workers,
            "statements_admitted": self.statements_admitted,
            "statements_completed": self.statements_completed,
            "statements_failed": self.statements_failed,
            "queue_depth": self._queue.qsize(),
            "max_queue_depth": self.max_queue_depth,
            "writes_executed": self.writes_executed,
            "connections_reaped": self.connections_reaped,
            "draining": self._draining,
        }
        for key, value in self.sessions.summary().items():
            out[key if key.startswith("sessions_") else f"sessions_{key}"] = value
        out.update(
            (f"shared_cache_{key}", value)
            for key, value in cache.stats.summary().items()
        )
        out["shared_cache_entries"] = len(cache)
        # Plan-to-code compilation counters: how many cached plans carry
        # fused functions and what their one-time compilation cost was.
        out.update(
            (f"planner_{key}", value)
            for key, value in self.database.planner.metrics.summary().items()
            if key in ("plans_compiled", "compile_seconds")
        )
        return out

    def stats(self, traces: int = 10) -> dict[str, Any]:
        """The observability snapshot behind the ``stats`` wire op: every
        registered metric (counters, gauges, histogram quantiles) plus the
        most recent finished traces, newest first."""
        database = self.database
        recent = list(database.tracer.recent(traces))
        recent.reverse()
        return {
            "metrics": database.registry.collect(),
            "traces": [trace.to_dict() for trace in recent],
            "tracer": database.tracer.summary(),
        }

    def _start_metrics_endpoint(self) -> None:
        """Expose ``GET /metrics`` (Prometheus text format) on
        :attr:`metrics_port`.  Stdlib-only: a daemonized
        :class:`~http.server.ThreadingHTTPServer` whose handler renders the
        database's registry on every scrape."""
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        registry = self.database.registry

        class _MetricsHandler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - stdlib naming
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404, "only /metrics is served")
                    return
                body = registry.render_prometheus().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: Any) -> None:  # silence stderr
                pass

        httpd = ThreadingHTTPServer((self.host, self.metrics_port), _MetricsHandler)
        httpd.daemon_threads = True
        self.metrics_port = httpd.server_address[1]
        self._metrics_httpd = httpd
        thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-metrics-http",
            daemon=True,
        )
        thread.start()

    # ------------------------------------------------------------------
    # TCP front end
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running:
            try:
                conn, __ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed during stop()
            with self._connections_lock:
                self._connections.add(conn)
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """One connection's read loop: a hand-buffered ``recv`` with a
        short socket timeout, so the thread regularly wakes to notice a
        stopping server or an idle client (``idle_timeout``) instead of
        blocking in a read forever — a dead client can never pin its
        thread.  Bytes are split on newlines into protocol messages."""
        session: Session | None = None
        poll = 0.5
        if self.idle_timeout is not None:
            poll = min(poll, max(self.idle_timeout / 4, 0.05))
        last_activity = time.monotonic()
        buffer = b""
        try:
            conn.settimeout(poll)
            while True:
                newline = buffer.find(b"\n")
                if newline >= 0:
                    line = buffer[: newline + 1]
                    buffer = buffer[newline + 1 :]
                    if not line.strip():
                        continue
                    last_activity = time.monotonic()
                    try:
                        response, session, done = self._handle_message(
                            line, session
                        )
                    except (
                        ProtocolError,
                        SessionError,
                    ) as error:
                        response, done = protocol.error_payload(error), False
                    except Exception as error:
                        response, done = protocol.error_payload(error), False
                    try:
                        conn.sendall(protocol.encode(response))
                    except OSError:
                        return
                    if done:
                        return
                    continue
                if not self._running:
                    return
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    if (
                        self.idle_timeout is not None
                        and time.monotonic() - last_activity
                        > self.idle_timeout
                    ):
                        with self._lock:
                            self.connections_reaped += 1
                        return
                    continue
                except OSError:
                    return
                if not chunk:
                    return  # client closed its end
                buffer += chunk
        except OSError:
            pass  # connection torn down mid-read (client or stop())
        finally:
            if session is not None and not session.closed:
                try:
                    self.sessions.close(session.session_id)
                except SessionError:
                    pass
            with self._connections_lock:
                self._connections.discard(conn)
            conn.close()

    def _handle_message(
        self, line: bytes, session: Session | None
    ) -> tuple[dict[str, Any], Session | None, bool]:
        """Dispatch one wire message; returns (response, session, done)."""
        message = protocol.decode(line)
        op = protocol.request_op(message)
        if op == "hello":
            if session is not None:
                raise ProtocolError("session already open on this connection")
            settings = message.get("settings") or {}
            if not isinstance(settings, dict):
                raise ProtocolError("'settings' must be an object")
            session = self.sessions.open(**settings)
            return {"ok": True, "session": session.session_id}, session, False
        if session is None:
            raise ProtocolError(f"op {op!r} requires a session; send 'hello' first")
        if op == "query":
            result = self.execute(
                session,
                self._sql_of(message),
                params=message.get("params"),
                k=message.get("k"),
            )
            return protocol.result_payload(result), session, False
        if op == "explain":
            text = session.explain(self._sql_of(message), params=message.get("params"))
            return {"ok": True, "text": text}, session, False
        if op == "insert":
            table = message.get("table")
            rows = message.get("rows")
            if not isinstance(table, str) or not isinstance(rows, list):
                raise ProtocolError("'insert' needs a table name and a row list")
            inserted = session.insert(table, [tuple(r) for r in rows])
            with self._lock:
                self.writes_executed += 1
            return {"ok": True, "inserted": inserted}, session, False
        if op == "delete":
            table = message.get("table")
            column = message.get("column")
            if not isinstance(table, str) or not isinstance(column, str):
                raise ProtocolError("'delete' needs a table and a column")
            equals = message.get("equals")
            deleted = session.delete_where(table, column=column, equals=equals)
            with self._lock:
                self.writes_executed += 1
            return {"ok": True, "deleted": deleted}, session, False
        if op == "begin":
            txn = session.begin()
            return (
                {"ok": True, "txn": txn.txn_id, "begin_seq": txn.begin_seq},
                session,
                False,
            )
        if op == "commit":
            # A first-committer-wins loss raises SerializationError here;
            # the generic error envelope carries its type name, which the
            # remote client maps back to the same exception for retries.
            commit_seq = session.commit()
            return {"ok": True, "commit_seq": commit_seq}, session, False
        if op == "rollback":
            session.rollback()
            return {"ok": True, "rolled_back": True}, session, False
        if op == "metrics":
            payload = {
                "ok": True,
                "session": session.summary(),
                "server": self.summary(),
            }
            return payload, session, False
        if op == "stats":
            payload = {"ok": True}
            payload.update(self.stats(traces=message.get("traces", 10)))
            return payload, session, False
        assert op == "close"
        self.sessions.close(session.session_id)
        return {"ok": True, "closed": session.session_id}, None, True

    @staticmethod
    def _sql_of(message: dict[str, Any]) -> str:
        sql = message.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("request is missing its 'sql' text")
        return sql


class InProcessClient:
    """A session handle whose statements go through the server's
    admission → queue → worker path, without sockets (the test surface,
    and the natural embedding API)."""

    def __init__(self, server: QueryServer, session: Session):
        self._server = server
        self.session = session

    @property
    def session_id(self) -> str:
        return self.session.session_id

    def execute(
        self, sql: str, params: Any = None, k: int | None = None
    ) -> "QueryResult":
        return self._server.execute(self.session, sql, params=params, k=k)

    def submit(
        self, sql: str, params: Any = None, k: int | None = None
    ) -> "Future[QueryResult]":
        return self._server.submit(self.session, sql, params=params, k=k)

    def explain(self, sql: str, params: Any = None) -> str:
        return self.session.explain(sql, params=params)

    # Transactions and DML run on the caller's thread (like wire DML on
    # its connection thread): begin/commit are short critical sections and
    # buffered writes touch only session-private state, so they never
    # queue behind reads.
    def begin(self) -> "Transaction":
        return self.session.begin()

    def commit(self) -> int:
        return self.session.commit()

    def rollback(self) -> None:
        self.session.rollback()

    def insert(self, table: str, rows: list) -> int:
        return self.session.insert(table, rows)

    def delete(self, table: str, column: str, equals: Any) -> int:
        return self.session.delete_where(table, column=column, equals=equals)

    def run_transaction(
        self,
        fn: "Callable[[InProcessClient], Any]",
        retries: int = 10,
        backoff: float = 0.01,
    ) -> Any:
        """Run ``fn(client)`` in a transaction on this session, retrying
        serialization conflicts with jittered exponential backoff — the
        served twin of :meth:`Database.run_transaction`.  The helper
        begins before and commits after ``fn`` (unless ``fn`` already
        finished the transaction); any exception rolls back."""
        session = self.session
        return retry_transaction(
            lambda __: fn(self),
            begin=session.begin,
            commit=lambda __: session.commit() if session.in_transaction else None,
            rollback=lambda __: session.rollback(),
            retries=retries,
            backoff=backoff,
        )

    def summary(self) -> dict[str, float]:
        return self.session.summary()

    def close(self) -> None:
        if not self.session.closed:
            self._server.sessions.close(self.session.session_id)

    def __enter__(self) -> "InProcessClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
