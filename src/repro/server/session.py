"""Server sessions: the registry of a served database's clients.

Every client a :class:`~repro.server.QueryServer` admits gets a
:class:`~repro.planner.Session` — the same class as an embedded
``db.session()``, so served and embedded statements take one code path
(statement lock, shared plan cache, atomic bind + execute of a
parameterized template, one open transaction per session; see its class
contract).  A served session's statements are traced on the
``server:<id>`` surface and read the snapshot the server captured at
admission unless a transaction's read view overrides it.

The :class:`SessionManager` owns the id → session registry (thread-safe),
hands out monotonically-numbered session ids, and aggregates summaries —
including the banked counters of sessions that have already closed.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from ..planner.prepared import Session, SessionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.database import Database

__all__ = ["Session", "SessionError", "SessionManager"]


class SessionManager:
    """Thread-safe registry of a served database's sessions."""

    def __init__(self, database: "Database", **defaults: Any):
        self._db = database
        self._defaults = defaults
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}
        self._counter = 0
        #: sessions ever admitted (open + closed), for capacity metrics
        self.sessions_opened = 0
        #: lifetime totals folded in from closed sessions, so
        #: :meth:`summary` keeps counting work a departed client did
        self.sessions_closed = 0
        self._closed_totals = dict.fromkeys(Session.COUNTERS, 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def open(self, **settings: Any) -> Session:
        """Admit a new session (``settings`` override the server defaults)."""
        with self._lock:
            self._counter += 1
            self.sessions_opened += 1
            session_id = f"s{self._counter}"
            merged = dict(self._defaults)
            merged.update(settings)
            session = Session(
                self._db, session_id, surface=f"server:{session_id}", **merged
            )
            self._sessions[session_id] = session
            return session

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"unknown session {session_id!r}")
        return session

    def close(self, session_id: str) -> None:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise SessionError(f"unknown session {session_id!r}")
        session.close()
        self._fold(session)

    def close_all(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()
            self._fold(session)

    def _fold(self, session: Session) -> None:
        """Bank a closed session's counters into the lifetime totals."""
        with self._lock:
            self.sessions_closed += 1
            for name in Session.COUNTERS:
                self._closed_totals[name] += getattr(session, name)

    def sessions(self) -> list[Session]:
        with self._lock:
            return list(self._sessions.values())

    def summary(self) -> dict[str, float]:
        """Aggregate client-side totals: open sessions plus the banked
        totals of every session that has closed (lifetime view)."""
        sessions = self.sessions()
        with self._lock:
            closed = dict(self._closed_totals)
            sessions_closed = self.sessions_closed
        out = {
            "sessions_open": len(sessions),
            "sessions_opened": self.sessions_opened,
            "sessions_closed": sessions_closed,
        }
        for name in Session.COUNTERS:
            out[name] = closed[name] + sum(getattr(s, name) for s in sessions)
        return out
