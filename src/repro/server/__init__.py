"""The concurrent serving subsystem: multi-session server over one engine.

Turns the embedded :class:`~repro.engine.database.Database` into a
multi-session engine:

* :class:`QueryServer` — admission, worker-pool execution, and a
  line-delimited JSON wire protocol over TCP
  (:mod:`repro.server.protocol`);
* :class:`SessionManager` — the registry of admitted sessions, each a
  :class:`~repro.planner.Session` (the class embedded callers get from
  ``db.session()``) with per-client settings and metrics over the
  **process-wide shared plan cache**;
* snapshot-isolated reads — every statement executes against the
  :class:`~repro.storage.snapshot.DatabaseSnapshot` captured at admission,
  so readers never block writers and never observe half-applied DML;
* :func:`connect` / :class:`RemoteSession` — the TCP client (what the CLI's
  ``\\connect`` uses), plus :class:`InProcessClient` for tests and
  embedding;
* multi-statement transactions — ``begin``/``commit``/``rollback`` on
  every client surface (sessions hold at most one open transaction; see
  :mod:`repro.storage.transaction`), with :class:`HistoryRecorder`
  (``record_history=True``) logging finished transactions for the
  black-box isolation checker in :mod:`repro.verify`.

Start serving with :meth:`Database.serve <repro.engine.database.Database.serve>`
or ``python -m repro serve``.
"""

from .client import RemoteResult, RemoteSession, connect
from .history import HistoryRecorder
from .protocol import ProtocolError, ServerError
from .server import InProcessClient, QueryServer
from .session import SessionError, SessionManager

__all__ = [
    "HistoryRecorder",
    "InProcessClient",
    "ProtocolError",
    "QueryServer",
    "RemoteResult",
    "RemoteSession",
    "ServerError",
    "SessionError",
    "SessionManager",
    "connect",
]
