"""Recorder behaviour: span parenting, clocks, scoping."""

from __future__ import annotations

import threading

from repro.hls.clock import ACT_HLS_COMPILE, SimulatedClock
from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    get_recorder,
    install_recorder,
    reset_recorder,
    scoped_recorder,
)


# ---------------------------------------------------------------------------
# Null recorder (the default, overhead-critical path)
# ---------------------------------------------------------------------------


def test_null_recorder_is_inert():
    rec = NullRecorder()
    assert rec.enabled is False
    with rec.span("anything", clock=object()) as span:
        rec.event("boom", level="error", detail="x")
        rec.metrics.inc("whatever", tier="memory")
        rec.metrics.observe("whatever", 1.0)
        rec.metrics.set_gauge("whatever", 1.0)
    assert span is rec.span("other")  # one shared no-op span instance
    assert rec.metrics.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {}
    }


def test_default_recorder_is_the_null_singleton(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    reset_recorder()
    try:
        assert get_recorder() is NULL_RECORDER
    finally:
        reset_recorder()


def test_env_value_activates_a_trace_recorder(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    reset_recorder()
    try:
        assert isinstance(get_recorder(), TraceRecorder)
    finally:
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        reset_recorder()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_span_nesting_records_parent_links():
    rec = TraceRecorder()
    with rec.span("outer"):
        with rec.span("inner"):
            rec.event("note", hint="deep")
    spans = {s.name: s for s in rec.spans()}
    assert spans["outer"].parent == 0
    assert spans["inner"].parent == spans["outer"].sid
    (event,) = rec.events()
    assert event.parent == spans["inner"].sid
    assert event.args == {"hint": "deep"}
    # Children close (and append) before parents; exports sort by start.
    assert [s.name for s in rec.spans()] == ["inner", "outer"]


def test_span_samples_simulated_clock():
    rec = TraceRecorder()
    clock = SimulatedClock.recording()
    clock.charge(ACT_HLS_COMPILE, 5.0)
    with rec.span("compile", clock=clock):
        clock.charge(ACT_HLS_COMPILE, 37.5)
    (span,) = rec.spans()
    assert span.sim_ts == 5.0
    assert span.sim_dur == 37.5
    assert span.dur_us >= 0.0


def test_span_without_clock_has_null_sim_fields():
    rec = TraceRecorder()
    with rec.span("plain"):
        pass
    (span,) = rec.spans()
    assert span.sim_ts is None and span.sim_dur is None


def test_sibling_spans_share_a_parent():
    rec = TraceRecorder()
    with rec.span("root"):
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
    spans = {s.name: s for s in rec.spans()}
    assert spans["a"].parent == spans["root"].sid
    assert spans["b"].parent == spans["root"].sid


def test_record_cap_drops_and_counts():
    rec = TraceRecorder(max_records=2)
    for i in range(5):
        rec.event(f"e{i}")
    assert len(rec.records()) == 2
    assert rec.dropped == 3
    rec.clear()
    assert rec.records() == [] and rec.dropped == 0


def test_threads_parent_independently():
    rec = TraceRecorder()
    with rec.span("main-root"):
        done = threading.Event()

        def worker():
            with rec.span("thread-span"):
                pass
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert done.wait(1)
    spans = {s.name: s for s in rec.spans()}
    # The other thread has its own stack: no cross-thread parenting.
    assert spans["thread-span"].parent == 0
    assert spans["thread-span"].tid != spans["main-root"].tid


# ---------------------------------------------------------------------------
# Recorder scoping
# ---------------------------------------------------------------------------


def test_scoped_recorder_overrides_and_restores():
    outer = TraceRecorder()
    inner = TraceRecorder()
    previous = install_recorder(outer)
    try:
        assert get_recorder() is outer
        with scoped_recorder(inner):
            assert get_recorder() is inner
        assert get_recorder() is outer
        # The previous recorder comes back even when the block raises.
        try:
            with scoped_recorder(inner):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert get_recorder() is outer
    finally:
        install_recorder(previous)
