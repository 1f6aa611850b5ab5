"""TCP client for the serving protocol (the ``\\connect`` backend).

:func:`connect` opens a socket, says ``hello`` and returns a
:class:`RemoteSession` whose surface mirrors the in-process client:
``execute`` returns a :class:`RemoteResult` carrying columns, rows, scores
and the server-side execution metrics.  One connection carries one session;
requests are answered in order (the protocol has no statement ids), which
matches the per-session serialization the server enforces anyway.
"""

from __future__ import annotations

import socket
from typing import Any, Callable

from ..storage.transaction import SerializationError, retry_transaction
from . import protocol
from .protocol import ProtocolError, ServerError

__all__ = ["connect", "RemoteSession", "RemoteResult", "ServerError"]


class RemoteResult:
    """A query result materialized from the wire.

    Mirrors the read surface of :class:`~repro.engine.result.QueryResult`
    that clients render: ``columns``, ``rows`` (value tuples, best first),
    ``scores``, ``plan_cached`` and the execution-metrics summary dict.
    """

    __slots__ = ("columns", "rows", "scores", "plan_cached", "metrics")

    def __init__(self, payload: dict[str, Any]):
        self.columns: list[str] = list(payload.get("columns", ()))
        self.rows: list[tuple] = [tuple(r) for r in payload.get("rows", ())]
        self.scores: list[float] = list(payload.get("scores", ()))
        self.plan_cached: bool = bool(payload.get("plan_cached", False))
        self.metrics: dict[str, float] = dict(payload.get("metrics", {}))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> list[dict[str, Any]]:
        out = []
        for row, score in zip(self.rows, self.scores):
            record = dict(zip(self.columns, row))
            record["score"] = score
            out.append(record)
        return out

    def __repr__(self) -> str:
        return f"RemoteResult(rows={len(self.rows)}, cached={self.plan_cached})"


class RemoteSession:
    """One session over one TCP connection to a query server."""

    def __init__(self, sock: socket.socket, session_id: str):
        self._sock = sock
        self._reader = sock.makefile("rb")
        self.session_id = session_id
        self._closed = False
        #: client-side view of whether a transaction is open (begin sets,
        #: commit/rollback clear — commit clears even on a conflict, since
        #: the server aborted the transaction either way)
        self.in_transaction = False

    # -- plumbing ----------------------------------------------------------
    def _roundtrip(self, message: dict[str, Any]) -> dict[str, Any]:
        if self._closed:
            raise RuntimeError("remote session is closed")
        self._sock.sendall(protocol.encode(message))
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.check_response(protocol.decode(line))

    # -- the client surface ------------------------------------------------
    def execute(
        self, sql: str, params: Any = None, k: int | None = None
    ) -> RemoteResult:
        message: dict[str, Any] = {"op": "query", "sql": sql}
        if params is not None:
            message["params"] = params
        if k is not None:
            message["k"] = k
        return RemoteResult(self._roundtrip(message))

    def explain(self, sql: str, params: Any = None) -> str:
        message: dict[str, Any] = {"op": "explain", "sql": sql}
        if params is not None:
            message["params"] = params
        return self._roundtrip(message)["text"]

    def insert(self, table: str, rows: list) -> int:
        return self._roundtrip(
            {"op": "insert", "table": table, "rows": [list(r) for r in rows]}
        )["inserted"]

    def delete(self, table: str, column: str, equals: Any) -> int:
        return self._roundtrip(
            {"op": "delete", "table": table, "column": column, "equals": equals}
        )["deleted"]

    # -- transactions ------------------------------------------------------
    def begin(self) -> int:
        """Open a transaction on this session; returns its id.  Until
        commit/rollback, queries read the BEGIN-time snapshot (plus this
        session's own buffered writes) and insert/delete buffer."""
        txn = self._roundtrip({"op": "begin"})["txn"]
        self.in_transaction = True
        return txn

    def commit(self) -> int:
        """Commit; returns the commit sequence number.  A first-committer-
        wins conflict raises the same
        :class:`~repro.storage.transaction.SerializationError` embedded
        callers see (the transaction is already aborted server-side), so
        one retry loop serves both surfaces."""
        self.in_transaction = False
        try:
            return self._roundtrip({"op": "commit"})["commit_seq"]
        except ServerError as error:
            if error.remote_type == "SerializationError":
                raise SerializationError(str(error)) from None
            raise

    def rollback(self) -> None:
        """Discard the open transaction (no-op when none is open)."""
        self.in_transaction = False
        self._roundtrip({"op": "rollback"})

    def run_transaction(
        self,
        fn: "Callable[[RemoteSession], Any]",
        retries: int = 10,
        backoff: float = 0.01,
    ) -> Any:
        """Run ``fn(session)`` in a transaction, retrying serialization
        conflicts with jittered exponential backoff — the remote twin of
        :meth:`Database.run_transaction`.  The helper begins before and
        commits after ``fn`` (unless ``fn`` already finished the
        transaction itself); any exception rolls back."""
        return retry_transaction(
            lambda __: fn(self),
            begin=self.begin,
            commit=lambda __: self.commit() if self.in_transaction else None,
            rollback=lambda __: self._abandon(),
            retries=retries,
            backoff=backoff,
        )

    def _abandon(self) -> None:
        """Roll back a failed attempt's transaction if it is still open,
        tolerating a dead connection (it may be why the attempt failed)."""
        if self.in_transaction:
            try:
                self.rollback()
            except (OSError, ConnectionError, ServerError):
                pass

    def metrics(self) -> dict[str, Any]:
        return self._roundtrip({"op": "metrics"})

    def stats(self, traces: int = 10) -> dict[str, Any]:
        """The server's observability snapshot: metrics registry contents
        plus its most recent finished traces (newest first)."""
        return self._roundtrip({"op": "stats", "traces": traces})

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._roundtrip({"op": "close"})
        except (OSError, ConnectionError, ServerError, ProtocolError):
            pass  # best-effort goodbye; the socket closes either way
        finally:
            self._closed = True
            self._reader.close()
            self._sock.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(
    host: str = "127.0.0.1",
    port: int = 5433,
    timeout: float | None = 10.0,
    **settings: Any,
) -> RemoteSession:
    """Open a session on a serving database; ``settings`` become the
    session's planner settings (strategy, heuristic flags, …)."""
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        message: dict[str, Any] = {"op": "hello"}
        if settings:
            message["settings"] = settings
        sock.sendall(protocol.encode(message))
        reader = sock.makefile("rb")
        try:
            line = reader.readline()
        finally:
            reader.close()
        if not line:
            raise ConnectionError("server closed the connection during hello")
        response = protocol.check_response(protocol.decode(line))
        return RemoteSession(sock, response["session"])
    except BaseException:
        sock.close()
        raise
