"""Metrics registry: counters, gauges, histograms, snapshot shape."""

from __future__ import annotations

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry


def test_counters_accumulate_per_label_set():
    reg = MetricsRegistry()
    reg.inc("cache.lookups", tier="memory", outcome="hit")
    reg.inc("cache.lookups", tier="memory", outcome="hit")
    reg.inc("cache.lookups", tier="store", outcome="miss")
    reg.inc("cache.lookups", value=3.0, outcome="hit", tier="memory")
    assert reg.counter_value("cache.lookups", tier="memory", outcome="hit") == 5.0
    assert reg.counter_value("cache.lookups", tier="store", outcome="miss") == 1.0
    assert reg.counter_value("cache.lookups", tier="disk", outcome="hit") == 0.0
    assert len(reg.snapshot()["counters"]) == 2


def test_label_order_does_not_split_series():
    reg = MetricsRegistry()
    reg.inc("m", a="1", b="2")
    reg.inc("m", b="2", a="1")
    assert reg.counter_value("m", a="1", b="2") == 2.0


def test_gauge_holds_last_value():
    reg = MetricsRegistry()
    reg.set_gauge("fuzz.coverage_ratio", 0.4, kernel="k")
    reg.set_gauge("fuzz.coverage_ratio", 0.9, kernel="k")
    snap = reg.snapshot()
    assert snap["gauges"] == {"fuzz.coverage_ratio{kernel=k}": 0.9}


def test_histogram_buckets_and_stats():
    hist = Histogram(bounds=(1.0, 10.0))
    for value in (0.5, 5.0, 50.0):
        hist.observe(value)
    snap = hist.snapshot()
    assert snap["count"] == 3
    assert snap["sum"] == 55.5
    assert snap["min"] == 0.5 and snap["max"] == 50.0
    assert snap["mean"] == 18.5
    assert snap["buckets"] == {"1.0": 1, "10.0": 1, "+inf": 1}


def test_empty_histogram_snapshot_has_no_mean():
    snap = Histogram().snapshot()
    assert snap == {"count": 0, "sum": 0.0, "min": None, "max": None,
                    "mean": None, "buckets": {}}


def test_observe_uses_default_buckets():
    reg = MetricsRegistry()
    reg.observe("hls.compile.sim_seconds", 42.0)
    snap = reg.snapshot()["histograms"]["hls.compile.sim_seconds"]
    assert snap["count"] == 1
    assert any(float(b) >= 42.0 for b in snap["buckets"] if b != "+inf")
    assert len(DEFAULT_BUCKETS) > 5


def test_snapshot_is_deterministically_ordered():
    def build():
        reg = MetricsRegistry()
        reg.inc("b.metric")
        reg.inc("a.metric", tier="z")
        reg.inc("a.metric", tier="a")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 2.0)
        return reg.snapshot()

    first, second = build(), build()
    assert first == second
    assert list(first["counters"]) == [
        "a.metric{tier=a}", "a.metric{tier=z}", "b.metric"
    ]
