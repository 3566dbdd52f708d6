"""The JSONL tracer: span nesting, back-dating, and the file round trip."""

from __future__ import annotations

import json
import re

import pytest

from repro.telemetry.summarize import read_trace
from repro.telemetry.trace import TRACE_SCHEMA_VERSION, Tracer
from repro.util.validation import ValidationError


class FakeClock:
    """A controllable monotonic clock for deterministic trace tests."""

    def __init__(self):
        self.now = 100.0

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def test_header_written_on_construction():
    sink = []
    Tracer(sink, clock=FakeClock())
    assert sink[0] == {
        "kind": "begin",
        "schema": TRACE_SCHEMA_VERSION,
        "clock": "perf_counter",
    }


def test_span_nesting_depth_and_timing():
    sink = []
    clock = FakeClock()
    tracer = Tracer(sink, clock=clock)
    with tracer.span("outer", epoch=3):
        clock.advance(1.0)
        with tracer.span("inner"):
            clock.advance(0.25)
        clock.advance(0.5)
    spans = [r for r in sink if r["kind"] == "span"]
    # Written at exit: inner completes first.
    inner, outer = spans
    assert inner["name"] == "inner" and inner["depth"] == 1
    assert inner["ts"] == pytest.approx(1.0) and inner["dur"] == pytest.approx(0.25)
    assert outer["name"] == "outer" and outer["depth"] == 0
    assert outer["ts"] == pytest.approx(0.0) and outer["dur"] == pytest.approx(1.75)
    assert outer["attrs"] == {"epoch": 3}
    assert inner["seq"] < outer["seq"]


def test_record_span_backdates_to_end_now():
    sink = []
    clock = FakeClock()
    tracer = Tracer(sink, clock=clock)
    clock.advance(5.0)
    tracer.record_span("sweep.cell", 2.0, key="n=10", reclaimed=False)
    span = sink[-1]
    assert span["ts"] == pytest.approx(3.0)  # ends "now" at ts=5
    assert span["dur"] == pytest.approx(2.0)
    assert span["depth"] == 0
    assert span["attrs"]["key"] == "n=10"
    # Negative durations (clock skew in an outcome) clamp to zero.
    tracer.record_span("sweep.cell", -1.0)
    assert sink[-1]["dur"] == 0.0


def test_events_and_close_footer():
    sink = []
    tracer = Tracer(sink, clock=FakeClock())
    tracer.event("cell.failed", key="n=10")
    with tracer.span("s"):
        pass
    summary = tracer.close()
    assert summary == {"spans": 1, "events": 1}
    assert sink[-1] == {"kind": "end", "spans": 1, "events": 1}
    # Idempotent: a second close neither re-emits nor recounts.
    assert tracer.close() == summary
    assert sum(1 for r in sink if r["kind"] == "end") == 1
    # Writes after close are dropped.
    tracer.event("late")
    assert sink[-1]["kind"] == "end"


class TestFileRoundTrip:
    def test_file_sink_reads_back_through_read_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        clock = FakeClock()
        with open(path, "w", encoding="utf-8") as handle:
            tracer = Tracer(handle, clock=clock)
            with tracer.span("run", experiment="fig3"):
                clock.advance(1.0)
                tracer.event("mark")
            tracer.close()
        trace = read_trace(str(path))
        assert trace["header"]["schema"] == TRACE_SCHEMA_VERSION
        assert [s["name"] for s in trace["spans"]] == ["run"]
        assert [e["name"] for e in trace["events"]] == ["mark"]
        assert trace["end"] == {"kind": "end", "spans": 1, "events": 1}

    def test_missing_footer_tolerated(self):
        sink = []
        tracer = Tracer(sink, clock=FakeClock())
        with tracer.span("s"):
            pass
        lines = [json.dumps(record) for record in sink]  # no close()
        trace = read_trace(lines)
        assert trace["end"] is None
        assert len(trace["spans"]) == 1

    def test_footer_body_disagreement_rejected(self):
        sink = []
        tracer = Tracer(sink, clock=FakeClock())
        with tracer.span("s"):
            pass
        tracer.close()
        lines = [json.dumps(r) for r in sink if r["kind"] != "span"]
        with pytest.raises(ValidationError, match="footer disagrees"):
            read_trace(lines)

    def test_unknown_schema_rejected(self):
        lines = [json.dumps({"kind": "begin", "schema": 99, "clock": "perf_counter"})]
        with pytest.raises(ValidationError, match="schema"):
            read_trace(lines)

    def test_not_a_trace_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown kind"):
            read_trace(["{}"])
        with pytest.raises(ValidationError, match="no begin record"):
            read_trace([])
        with pytest.raises(ValidationError, match="not valid JSON"):
            read_trace(["nope"])
        missing = str(tmp_path / "missing.jsonl")
        with pytest.raises(ValidationError, match=re.escape(f"cannot read trace {missing!r}")):
            read_trace(missing)
