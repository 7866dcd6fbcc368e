"""Streaming sinks: the subscriber API and the progress renderer."""

from __future__ import annotations

import io

from repro.hls.clock import ACT_HLS_COMPILE, SimulatedClock
from repro.obs import NULL_RECORDER, TraceRecorder
from repro.obs.recorder import EventRecord, SpanRecord
from repro.obs.stream import ProgressSink, TraceSubscriber, attach_cli_sinks


class _CollectingSink(TraceSubscriber):
    def __init__(self):
        self.spans = []
        self.events = []
        self.all = []
        self.closed = False

    def on_span(self, record):
        self.spans.append(record)
        self.all.append(record)

    def on_event(self, record):
        self.events.append(record)
        self.all.append(record)

    def close(self):
        self.closed = True


class _ExplodingSink(TraceSubscriber):
    def on_span(self, record):
        raise RuntimeError("sink bug")

    def on_event(self, record):
        raise RuntimeError("sink bug")


# ---------------------------------------------------------------------------
# Subscriber plumbing on the recorder
# ---------------------------------------------------------------------------


class TestSubscriberApi:
    def test_sinks_see_records_in_completion_order(self):
        rec = TraceRecorder()
        sink = _CollectingSink()
        rec.add_subscriber(sink)
        with rec.span("transpile"):
            with rec.span("fuzz"):
                rec.event("cache_hit", tier="memory")
        # Children close before parents; the event fired first of all.
        assert [s.name for s in sink.spans] == ["fuzz", "transpile"]
        assert [e.name for e in sink.events] == ["cache_hit"]
        assert isinstance(sink.spans[0], SpanRecord)
        assert isinstance(sink.events[0], EventRecord)

    def test_notification_matches_the_buffered_records(self):
        rec = TraceRecorder()
        sink = _CollectingSink()
        rec.add_subscriber(sink)
        with rec.span("transpile"):
            rec.event("warn")
        assert sink.all == list(rec.records())

    def test_sinks_still_notified_after_buffer_overflow(self):
        rec = TraceRecorder(max_records=1)
        sink = _CollectingSink()
        rec.add_subscriber(sink)
        with rec.span("a"):
            pass
        with rec.span("b"):
            pass
        assert rec.dropped == 1
        assert len(rec.records()) == 1
        # The stream is not bounded by the buffer: both spans streamed.
        assert [s.name for s in sink.spans] == ["a", "b"]

    def test_raising_sink_is_counted_not_propagated(self):
        rec = TraceRecorder()
        rec.add_subscriber(_ExplodingSink())
        survivor = _CollectingSink()
        rec.add_subscriber(survivor)
        with rec.span("transpile"):
            rec.event("warn")
        assert rec.subscriber_errors == 2
        # Other sinks and the pipeline are unaffected.
        assert [s.name for s in survivor.spans] == ["transpile"]
        assert len(rec.records()) == 2

    def test_remove_subscriber(self):
        rec = TraceRecorder()
        sink = _CollectingSink()
        rec.add_subscriber(sink)
        with rec.span("a"):
            pass
        rec.remove_subscriber(sink)
        with rec.span("b"):
            pass
        assert [s.name for s in sink.spans] == ["a"]

    def test_null_recorder_accepts_subscribers_as_noops(self):
        sink = _CollectingSink()
        NULL_RECORDER.add_subscriber(sink)
        with NULL_RECORDER.span("a"):
            pass
        NULL_RECORDER.remove_subscriber(sink)
        assert sink.spans == []


# ---------------------------------------------------------------------------
# Progress renderer
# ---------------------------------------------------------------------------


def _progress(rec):
    # interval=0 so every record renders, non-TTY buffer to capture.
    buffer = io.StringIO()
    sink = ProgressSink(rec, stream=buffer, interval=0.0, plain_interval=0.0)
    rec.add_subscriber(sink)
    return sink, buffer


class TestProgressSink:
    def test_tracks_phase_iterations_and_budget(self):
        rec = TraceRecorder()
        sink, _buffer = _progress(rec)
        clock = SimulatedClock.recording()
        with rec.span("transpile"):
            with rec.span("fuzz", clock=clock):
                pass
            rec.event("search_started", kernel="k",
                      budget_seconds=10800.0, max_iterations=220)
            with rec.span("search", clock=clock):
                with rec.span("search.iteration", iteration=1, clock=clock):
                    with rec.span("search.evaluate", edit="type_trans",
                                  clock=clock):
                        clock.charge(ACT_HLS_COMPILE, 540.0)
                rec.event("repair_success", iteration=1)
        sink.close()
        assert sink.max_iterations == 220
        assert sink.budget_seconds == 10800.0
        assert sink.iterations == 1
        assert sink.evaluations == 1
        assert sink.sim_seconds == 540.0
        assert sink.best == "repaired@it1"
        assert sink.phase == "done"

        line = sink.render_line()
        assert "it=1/220" in line
        assert "cand=1" in line
        assert "sim=540s/10800s (5%)" in line
        assert "repaired@it1" in line

    def test_hit_rates_read_from_the_metrics_registry(self):
        rec = TraceRecorder()
        sink, _buffer = _progress(rec)
        rec.metrics.inc("cache.lookups", tier="memory", outcome="hit")
        rec.metrics.inc("cache.lookups", tier="memory", outcome="hit")
        rec.metrics.inc("cache.lookups", tier="memory", outcome="miss")
        rec.metrics.inc("cache.lookups", tier="store", outcome="miss")
        line = sink.render_line()
        assert "cache=67%" in line
        assert "store=0%" in line

    def test_non_tty_appends_lines(self):
        rec = TraceRecorder()
        sink, buffer = _progress(rec)
        with rec.span("fuzz"):
            pass
        sink.close()
        text = buffer.getvalue()
        assert "\r" not in text
        assert text.count("\n") >= 1
        assert "phase=" in text

    def test_renderer_never_mutates_pipeline_state(self):
        rec = TraceRecorder()
        _sink, _buffer = _progress(rec)
        with rec.span("transpile"):
            with rec.span("fuzz"):
                pass
        # Same record stream as an unsubscribed recorder.
        bare = TraceRecorder()
        with bare.span("transpile"):
            with bare.span("fuzz"):
                pass
        assert [r.name for r in rec.records()] == \
            [r.name for r in bare.records()]
        assert rec.subscriber_errors == 0


class TestAttachCliSinks:
    def test_attaches_requested_sinks(self):
        rec = TraceRecorder()
        sinks = attach_cli_sinks(rec, progress=True)
        assert len(sinks) == 1
        assert isinstance(sinks[0], ProgressSink)
        with rec.span("fuzz"):
            pass
        assert sinks[0].records_seen == 1

    def test_nothing_requested_attaches_nothing(self):
        rec = TraceRecorder()
        assert attach_cli_sinks(rec) == []
