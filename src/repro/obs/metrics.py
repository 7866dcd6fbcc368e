"""Metrics registry — counters, gauges and histograms.

A deliberately small, dependency-free registry in the Prometheus shape:
named series with sorted label sets, counters that only go up, gauges
that hold the last value, and histograms with fixed bucket bounds.  The
pipeline increments these through the active recorder
(``get_recorder().metrics``); the default :class:`NullMetrics` makes
every operation a no-op, so untraced runs pay one attribute lookup per
metric site.

Determinism: every series is derived from pipeline decisions (cache
tiers, edit families, diagnostic codes, simulated seconds), so it is
bit-identical across identical runs because the pipeline itself is.
Snapshots are sorted so two identical runs serialize identically.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds, in the unit of the observed
#: value (seconds for durations, plain counts for sizes).  Spans five
#: orders of magnitude: sub-millisecond real work up to simulated hours.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 900.0, 3600.0,
)

_SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _series_key(name: str, labels: Dict[str, Any]) -> _SeriesKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class Histogram:
    """Fixed-bucket histogram: counts per bucket plus sum/count/min/max."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count if self.count else None,
            "buckets": {
                ("+inf" if i == len(self.bounds) else repr(self.bounds[i])): n
                for i, n in enumerate(self.bucket_counts)
                if n
            },
        }


class NullMetrics:
    """No-op registry (the NullRecorder's ``metrics`` attribute)."""

    __slots__ = ()

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        return None

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        return None

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None,
                **labels: Any) -> None:
        return None

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


class MetricsRegistry:
    """Thread-safe named-series registry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[_SeriesKey, float] = {}
        self._gauges: Dict[_SeriesKey, float] = {}
        self._hists: Dict[_SeriesKey, Histogram] = {}

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        key = _series_key(name, labels)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        key = _series_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None,
                **labels: Any) -> None:
        key = _series_key(name, labels)
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = Histogram(buckets if buckets is not None
                                 else DEFAULT_BUCKETS)
                self._hists[key] = hist
            hist.observe(value)

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> float:
        with self._lock:
            return self._counters.get(_series_key(name, labels), 0.0)

    def snapshot(self) -> Dict[str, Any]:
        """Deterministically-ordered plain-dict view for JSON export.

        Families and label sets are emitted sorted, so two registries
        holding the same series serialize identically."""

        def render(series: Dict[_SeriesKey, Any], value_of) -> Dict[str, Any]:
            out: Dict[str, Any] = {}
            for (name, labels), value in sorted(
                series.items(), key=lambda item: item[0]
            ):
                label_text = ",".join(f"{k}={v}" for k, v in labels)
                key = f"{name}{{{label_text}}}" if label_text else name
                out[key] = value_of(value)
            return out

        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            hists = dict(self._hists)
        return {
            "counters": render(counters, lambda v: v),
            "gauges": render(gauges, lambda v: v),
            "histograms": render(hists, lambda h: h.snapshot()),
        }
