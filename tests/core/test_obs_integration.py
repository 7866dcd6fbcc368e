"""Observability integration with the core pipeline.

Covers the ``SearchStats`` derived-ratio zero-division branches, the
seed-capture failure path (structured event + logging warning instead of
the old silent ``except: pass``), and the span/metric coverage of one
traced transpile.
"""

from __future__ import annotations

import logging

from repro.core import HeteroGen, HeteroGenConfig, SearchConfig
from repro.core.search import SearchStats
from repro.fuzz import FuzzConfig
from repro.obs import (
    SPAN_EVALUATE,
    SPAN_FUZZ,
    SPAN_HLS_COMPILE,
    SPAN_ITERATION,
    SPAN_SEARCH,
    SPAN_SEED_CAPTURE,
    SPAN_TRANSPILE,
    TraceRecorder,
    scoped_recorder,
)

KERNEL_SRC = """
int kernel(int data[8], int n) {
    int acc = 0;
    for (int i = 0; i < n; i += 1) {
        acc += data[i] * 2;
    }
    return acc;
}
"""


def _quick_config():
    return HeteroGenConfig(
        fuzz=FuzzConfig(max_execs=60, seed=7),
        search=SearchConfig(max_iterations=8, seed=7),
    )


# ---------------------------------------------------------------------------
# SearchStats derived ratios
# ---------------------------------------------------------------------------


def test_search_stats_ratios_are_zero_without_activity():
    stats = SearchStats()
    assert stats.hls_invocation_ratio == 0.0
    assert stats.cache_hit_ratio == 0.0
    assert stats.store_hit_ratio == 0.0


def test_search_stats_ratios_with_activity():
    stats = SearchStats(attempts=8, hls_invocations=2, cache_hits=6,
                        store_hits=3, store_misses=1)
    assert stats.hls_invocation_ratio == 0.25
    assert stats.cache_hit_ratio == 0.75
    assert stats.store_hit_ratio == 0.75


def test_search_stats_store_ratio_counts_both_outcomes_as_lookups():
    assert SearchStats(store_misses=4).store_hit_ratio == 0.0
    assert SearchStats(store_hits=4).store_hit_ratio == 1.0


# ---------------------------------------------------------------------------
# Seed-capture failure: warn loudly, fall back quietly
# ---------------------------------------------------------------------------


def test_seed_capture_failure_warns_and_emits_event(caplog):
    recorder = TraceRecorder()
    with scoped_recorder(recorder), \
            caplog.at_level(logging.WARNING, logger="repro.core.heterogen"):
        result = HeteroGen(_quick_config()).transpile(
            KERNEL_SRC,
            kernel_name="kernel",
            host_name="no_such_host",
            host_args=[3],
        )
    # The run still completes on random fuzzer seeding.
    assert result.search_result.best is not None
    assert "kernel seed capture failed" in caplog.text
    assert "no_such_host" in caplog.text
    (event,) = [e for e in recorder.events()
                if e.name == "seed_capture_failed"]
    assert event.level == "warning"
    assert event.args["host"] == "no_such_host"
    assert event.args["kernel"] == "kernel"
    assert event.args["error"]
    # The event is parented inside the seed-capture span.
    spans = {s.sid: s for s in recorder.spans()}
    assert spans[event.parent].name == SPAN_SEED_CAPTURE
    assert recorder.metrics.counter_value("fuzz.seed_capture_failures") == 1.0


def test_seed_capture_success_emits_no_warning(caplog):
    recorder = TraceRecorder()
    with scoped_recorder(recorder), \
            caplog.at_level(logging.WARNING, logger="repro.core.heterogen"):
        source = KERNEL_SRC + """
int host(int n) {
    int data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    return kernel(data, n);
}
"""
        HeteroGen(_quick_config()).transpile(
            source, kernel_name="kernel", host_name="host", host_args=[4],
        )
    assert "seed capture failed" not in caplog.text
    assert not [e for e in recorder.events()
                if e.name == "seed_capture_failed"]
    assert recorder.metrics.counter_value("fuzz.seed_capture_failures") == 0.0


# ---------------------------------------------------------------------------
# Span and metric coverage of one traced run
# ---------------------------------------------------------------------------


def test_traced_transpile_covers_every_pipeline_stage():
    recorder = TraceRecorder()
    with scoped_recorder(recorder):
        HeteroGen(_quick_config()).transpile(KERNEL_SRC, kernel_name="kernel")
    names = {s.name for s in recorder.spans()}
    for expected in (SPAN_TRANSPILE, SPAN_FUZZ, SPAN_SEARCH, SPAN_ITERATION,
                     SPAN_EVALUATE, SPAN_HLS_COMPILE):
        assert expected in names, f"missing span {expected!r}"
    roots = [s for s in recorder.spans() if s.parent == 0]
    assert [r.name for r in roots] == [SPAN_TRANSPILE]

    counters = recorder.metrics.snapshot()["counters"]
    assert any(k.startswith("fuzz.execs") for k in counters)
    assert any(k.startswith("cache.lookups") for k in counters)
    assert any(k.startswith("hls.compile.invocations") for k in counters)


def test_untraced_transpile_records_nothing():
    from repro.obs import NULL_RECORDER

    with scoped_recorder(NULL_RECORDER):
        result = HeteroGen(_quick_config()).transpile(
            KERNEL_SRC, kernel_name="kernel"
        )
    assert result.search_result.best is not None


def test_seed_capture_failure_salvages_partial_seeds(caplog):
    """Host crashes *after* invoking the kernel: the captured prefix is
    salvaged into the suite and the event reports exactly how much."""
    source = KERNEL_SRC + """
int host(int n) {
    int data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    int r = kernel(data, n);
    int oob[2];
    return r + oob[9];
}
"""
    recorder = TraceRecorder()
    with scoped_recorder(recorder), \
            caplog.at_level(logging.WARNING, logger="repro.core.heterogen"):
        result = HeteroGen(_quick_config()).transpile(
            source, kernel_name="kernel", host_name="host", host_args=[4],
        )
    assert result.search_result.best is not None
    assert "salvaged 1 partial seed" in caplog.text
    (event,) = [e for e in recorder.events()
                if e.name == "seed_capture_failed"]
    assert event.args["seeds_salvaged"] == 1
    assert recorder.metrics.counter_value("fuzz.seed_capture_failures") == 1.0
    assert recorder.metrics.counter_value("fuzz.seeds_salvaged") == 1.0


def test_seed_capture_failure_without_calls_reports_zero_salvaged(caplog):
    recorder = TraceRecorder()
    with scoped_recorder(recorder), \
            caplog.at_level(logging.WARNING, logger="repro.core.heterogen"):
        HeteroGen(_quick_config()).transpile(
            KERNEL_SRC,
            kernel_name="kernel",
            host_name="no_such_host",
            host_args=[3],
        )
    (event,) = [e for e in recorder.events()
                if e.name == "seed_capture_failed"]
    assert event.args["seeds_salvaged"] == 0
    assert recorder.metrics.counter_value("fuzz.seeds_salvaged") == 0.0
