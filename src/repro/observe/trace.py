"""Structured per-query tracing.

Every query admitted on any surface — ``Database.query``, a prepared
:class:`~repro.planner.prepared.Session`, a server session, the CLI —
gets one :class:`Trace`: a process-unique id plus a tree of
:class:`Span` records covering parse → bind → optimize → cache hit/miss
→ compile → execute (per fused function call) → commit/WAL fsync.  The
tracer keeps the *current* span on a thread-local stack, so deeply nested
subsystems (the WAL under the transaction manager under the engine) attach
their spans to whatever query is running on that thread without any of
them threading a handle through their signatures.

Cost model: tracing is always-on-capable.  A span is one small object
created per *phase*, never per tuple, so a traced query allocates on
the order of ten objects regardless of row count; the CI overhead gate
(``benchmarks/bench_observability.py``) holds the warm-path tax under
5%.  When the tracer is disabled every hook degenerates to a single
attribute check.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import deque
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "Trace",
    "Tracer",
]


def env_flag(name: str, default: bool) -> bool:
    """Shared boolean-knob parser (``1/true/yes/on`` vs ``0/false/...``)."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    return raw.strip().lower() not in ("0", "false", "no", "off")


def env_float(name: str, default: "float | None") -> "float | None":
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return default
    try:
        return float(raw)
    except ValueError:
        return default


class Span:
    """One timed phase of a query.  Spans nest: children are whatever
    phases ran while this one was open on the same thread."""

    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str):
        self.name = name
        self.start = time.perf_counter()
        self.end: "float | None" = None
        self.attrs: dict[str, Any] = {}
        self.children: list["Span"] = []

    def set(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def finish(self) -> "Span":
        if self.end is None:
            self.end = time.perf_counter()
        return self

    @property
    def duration_ms(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return (end - self.start) * 1000.0

    def walk(self, depth: int = 0) -> "Iterator[tuple[Span, int]]":
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "name": self.name,
            "ms": round(self.duration_ms, 3),
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload


class Trace:
    """The span tree for one query, addressable by ``trace_id``."""

    __slots__ = (
        "trace_id",
        "sql",
        "surface",
        "root",
        "regime",
        "status",
        "signature",
        "started_at",
    )

    def __init__(self, trace_id: str, sql: str, surface: str):
        self.trace_id = trace_id
        self.sql = sql
        self.surface = surface
        self.root = Span("query")
        #: execution regime of the statement: row | compiled for queries
        #: (the planner's choice), dml for writes — stamped by the surface
        #: that knows.
        self.regime: "str | None" = None
        self.status = "ok"
        #: normalized plan signature (cache key), when the statement
        #: reached the planner.
        self.signature: "str | None" = None
        self.started_at = time.time()

    @property
    def duration_ms(self) -> float:
        return self.root.duration_ms

    def finish(self, status: "str | None" = None) -> "Trace":
        if status is not None:
            self.status = status
        self.root.finish()
        return self

    def spans(self) -> "Iterator[tuple[Span, int]]":
        return self.root.walk()

    def top_spans(self, n: int = 3) -> list[dict[str, Any]]:
        """The ``n`` slowest non-root spans — what the slow-query log
        prints so one line says where the time went."""
        ranked = sorted(
            (span for span, depth in self.root.walk() if depth > 0),
            key=lambda span: span.duration_ms,
            reverse=True,
        )
        return [
            {"name": span.name, "ms": round(span.duration_ms, 3)}
            for span in ranked[:n]
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "sql": self.sql,
            "surface": self.surface,
            "regime": self.regime,
            "status": self.status,
            "signature": self.signature,
            "started_at": self.started_at,
            "ms": round(self.duration_ms, 3),
            "spans": self.root.to_dict(),
        }

    def render(self) -> str:
        """Human-readable tree for the CLI's ``\\trace`` output."""
        lines = [
            f"trace {self.trace_id}  [{self.status}] "
            f"{self.duration_ms:.2f}ms  regime={self.regime or '-'}",
            f"  sql: {self.sql}",
        ]
        for span, depth in self.root.walk():
            attrs = ""
            if span.attrs:
                rendered = " ".join(
                    f"{key}={value}" for key, value in sorted(span.attrs.items())
                )
                attrs = f"  ({rendered})"
            lines.append(
                f"  {'  ' * depth}- {span.name}: {span.duration_ms:.3f}ms{attrs}"
            )
        return "\n".join(lines)


class _NullContext:
    """Returned by the span/trace hooks when tracing is off — a shared
    no-op context manager so the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_CONTEXT = _NullContext()


class _SpanContext:
    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb):
        self._tracer._pop_span(self._span)
        return False


class _TraceContext:
    __slots__ = ("_tracer", "_trace")

    def __init__(self, tracer: "Tracer", trace: Trace):
        self._tracer = tracer
        self._trace = trace

    def __enter__(self) -> Trace:
        return self._trace

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self._trace.status = "error"
            self._trace.root.set("error", repr(exc))
        self._tracer._end_trace(self._trace)
        return False


class Tracer:
    """Factory and registry for traces.

    One tracer serves a whole :class:`~repro.engine.database.Database`
    (and therefore every server session on it).  Finished traces land in
    a bounded ring buffer that ``system.queries``, the ``stats`` wire
    op, and the CLI's ``\\trace`` command all read; queries slower than
    ``slow_query_ms`` additionally emit a single-line JSON record.

    Env knobs: ``REPRO_TRACE`` (on by default), ``REPRO_SLOW_QUERY_MS``
    (unset = slow-query log off), ``REPRO_TRACE_CAPACITY``.
    """

    def __init__(
        self,
        enabled: "bool | None" = None,
        capacity: "int | None" = None,
        slow_query_ms: "float | None" = None,
        slow_query_sink: "Callable[[str], None] | None" = None,
    ):
        if enabled is None:
            enabled = env_flag("REPRO_TRACE", True)
        if capacity is None:
            capacity = int(env_float("REPRO_TRACE_CAPACITY", 128) or 128)
        if slow_query_ms is None:
            slow_query_ms = env_float("REPRO_SLOW_QUERY_MS", None)
        self.enabled = enabled
        self.slow_query_ms = slow_query_ms
        self.slow_query_sink = slow_query_sink
        self._recent: "deque[Trace]" = deque(maxlen=max(1, capacity))
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: lifetime counters, readable without the lock (monotonic ints)
        self.traces_started = 0
        self.traces_finished = 0
        self.slow_queries = 0

    # ------------------------------------------------------------------
    # thread-local stack plumbing
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_trace(self) -> "Trace | None":
        return getattr(self._local, "trace", None)

    def current_trace_id(self) -> "str | None":
        trace = self.current_trace()
        return trace.trace_id if trace is not None else None

    # ------------------------------------------------------------------
    # root traces
    # ------------------------------------------------------------------
    def trace(self, sql: str, surface: str = "query") -> Any:
        """Open a root trace for one statement.  Returns a context
        manager yielding the :class:`Trace` (or None when disabled).
        Nested calls on the same thread (e.g. a transaction surface
        re-entering the engine) reuse the active trace via a plain span
        instead of starting a second tree."""
        if not self.enabled:
            return _NULL_CONTEXT
        if self.current_trace() is not None:
            return self.span(surface, sql=sql)
        trace = Trace(f"t{next(self._ids):06x}", sql, surface)
        self._local.trace = trace
        self._local.stack = [trace.root]
        self.traces_started += 1
        return _TraceContext(self, trace)

    def _end_trace(self, trace: Trace) -> None:
        trace.finish()
        self._local.trace = None
        self._local.stack = []
        self.traces_finished += 1
        with self._lock:
            self._recent.append(trace)
        threshold = self.slow_query_ms
        if threshold is not None and trace.duration_ms >= threshold:
            self.slow_queries += 1
            self._emit_slow(trace)

    # ------------------------------------------------------------------
    # child spans
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Any:
        """Open a child span under the thread's current span.  No-op
        (yields None) when tracing is off or no trace is active — safe
        to call from any subsystem unconditionally."""
        if not self.enabled or self.current_trace() is None:
            return _NULL_CONTEXT
        span = Span(name)
        if attrs:
            span.attrs.update(attrs)
        stack = self._stack()
        stack[-1].children.append(span)
        stack.append(span)
        return _SpanContext(self, span)

    def _pop_span(self, span: Span) -> None:
        span.finish()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # defensive: unwind past a leaked child
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()

    def annotate(self, **attrs: Any) -> None:
        """Stamp fields onto the thread's active trace (no-op when none
        is active).  ``regime``/``signature``/``status`` land on the
        trace itself; anything else becomes a root-span attribute.
        Surfaces use this instead of holding the Trace object so nested
        entry (a txn surface re-entering the engine) stamps the one
        real trace."""
        trace = self.current_trace()
        if trace is None:
            return
        for key, value in attrs.items():
            if key in ("regime", "signature", "status"):
                setattr(trace, key, value)
            else:
                trace.root.set(key, value)

    # ------------------------------------------------------------------
    # the slow-query log
    # ------------------------------------------------------------------
    def _emit_slow(self, trace: Trace) -> None:
        record = {
            "event": "slow_query",
            "trace_id": trace.trace_id,
            "ms": round(trace.duration_ms, 3),
            "threshold_ms": self.slow_query_ms,
            "signature": trace.signature,
            "regime": trace.regime,
            "surface": trace.surface,
            "status": trace.status,
            "sql": trace.sql,
            "top_spans": trace.top_spans(3),
        }
        line = json.dumps(record, separators=(",", ":"), default=str)
        sink = self.slow_query_sink
        if sink is not None:
            sink(line)
        else:
            print(line, file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def recent(self, limit: "int | None" = None) -> list[Trace]:
        """Finished traces, most recent last."""
        with self._lock:
            traces = list(self._recent)
        if limit is not None:
            traces = traces[-limit:]
        return traces

    def last(self) -> "Trace | None":
        with self._lock:
            return self._recent[-1] if self._recent else None

    def summary(self) -> dict[str, Any]:
        return {
            "trace_enabled": self.enabled,
            "traces_started": self.traces_started,
            "traces_finished": self.traces_finished,
            "traces_buffered": len(self._recent),
            "slow_queries": self.slow_queries,
            "slow_query_ms": self.slow_query_ms,
        }
