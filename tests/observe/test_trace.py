"""Tests for the structured tracer: span trees, the disabled fast path and
the slow-query log."""

import json

import pytest

from repro.observe import Tracer
from repro.observe.trace import _NULL_CONTEXT


class TestSpanTree:
    def test_nested_spans_build_a_tree(self):
        tracer = Tracer(enabled=True)
        with tracer.trace("SELECT 1", surface="test"):
            with tracer.span("parse"):
                pass
            with tracer.span("execute"):
                with tracer.span("compiled_call", fn="compiled[seqScan(T)]"):
                    pass
        trace = tracer.last()
        names = [span.name for span, __ in trace.spans()]
        assert names == ["query", "parse", "execute", "compiled_call"]
        depths = {span.name: depth for span, depth in trace.spans()}
        assert depths["compiled_call"] == 2
        assert trace.status == "ok"
        assert trace.duration_ms >= 0

    def test_annotate_stamps_trace_fields(self):
        tracer = Tracer(enabled=True)
        with tracer.trace("SELECT 1"):
            tracer.annotate(regime="compiled", signature="sig:abc", cache="hit")
        trace = tracer.last()
        assert trace.regime == "compiled"
        assert trace.signature == "sig:abc"
        assert trace.root.attrs["cache"] == "hit"

    def test_nested_trace_degrades_to_span(self):
        # A surface re-entering the engine (txn commit inside a session)
        # must not open a second root tree.
        tracer = Tracer(enabled=True)
        with tracer.trace("outer"):
            with tracer.trace("inner", surface="txn"):
                pass
        assert tracer.traces_finished == 1
        names = [span.name for span, __ in tracer.last().spans()]
        assert names == ["query", "txn"]

    def test_exception_marks_trace_error(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.trace("SELECT boom"):
                raise RuntimeError("boom")
        assert tracer.last().status == "error"

    def test_capacity_bounds_the_ring(self):
        tracer = Tracer(enabled=True, capacity=4)
        for i in range(10):
            with tracer.trace(f"q{i}"):
                pass
        recent = tracer.recent()
        assert len(recent) == 4
        assert recent[-1].sql == "q9"
        assert tracer.traces_finished == 10

    def test_render_is_human_readable(self):
        tracer = Tracer(enabled=True)
        with tracer.trace("SELECT 1"):
            tracer.annotate(regime="row")
            with tracer.span("execute"):
                pass
        text = tracer.last().render()
        assert "regime=row" in text
        assert "- execute:" in text


class TestDisabledPath:
    def test_disabled_tracer_is_nullary(self):
        tracer = Tracer(enabled=False)
        assert tracer.trace("SELECT 1") is _NULL_CONTEXT
        assert tracer.span("anything") is _NULL_CONTEXT
        with tracer.trace("SELECT 1") as trace:
            assert trace is None
        assert tracer.recent() == []

    def test_span_without_active_trace_is_noop(self):
        tracer = Tracer(enabled=True)
        assert tracer.span("orphan") is _NULL_CONTEXT

    def test_env_knob_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert Tracer().enabled is False
        monkeypatch.setenv("REPRO_TRACE", "on")
        assert Tracer().enabled is True


class TestSlowQueryLog:
    def test_slow_queries_emit_one_json_line(self):
        lines = []
        tracer = Tracer(
            enabled=True, slow_query_ms=0.0, slow_query_sink=lines.append
        )
        with tracer.trace("SELECT slow", surface="query"):
            tracer.annotate(regime="compiled", signature="sig:123")
            with tracer.span("execute"):
                pass
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["event"] == "slow_query"
        assert record["trace_id"] == tracer.last().trace_id
        assert record["signature"] == "sig:123"
        assert record["regime"] == "compiled"
        assert record["sql"] == "SELECT slow"
        assert [span["name"] for span in record["top_spans"]] == ["execute"]
        assert tracer.slow_queries == 1

    def test_fast_queries_stay_silent(self):
        lines = []
        tracer = Tracer(
            enabled=True, slow_query_ms=60_000.0, slow_query_sink=lines.append
        )
        with tracer.trace("SELECT fast"):
            pass
        assert lines == []

    def test_env_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_MS", "25")
        assert Tracer().slow_query_ms == 25.0
