"""Live consumption of a running trace — the progress renderer.

A **subscriber** is a read-only sink attached to a
:class:`~repro.obs.recorder.TraceRecorder` via
:meth:`~repro.obs.recorder.TraceRecorder.add_subscriber`, notified once
per completed record (span close or event emit), in completion order.

:class:`ProgressSink` is the one shipped sink: a throttled stderr line
renderer showing the current pipeline phase, iteration/candidate
counts, cache and store hit rates, simulated-budget consumption and a
wall-clock ETA.  The CLI ``--progress`` flag enables it.

Determinism contract
--------------------

Subscribers never feed anything back into the pipeline.  A sink only
reads the completed record handed to it (plus, for the progress
renderer, the recorder's metrics registry — reads that take the metrics
lock but mutate nothing), writes exclusively to stderr, and swallows
its own failures (the recorder counts them in ``subscriber_errors``).
``--json`` pipeline output is byte-identical with ``--progress`` on or
off (asserted per subject in the CI ``trace`` job and
``tests/obs/test_trace_cli.py``).
"""

from __future__ import annotations

import sys
import time
from typing import Any, IO, Optional

from .recorder import EventRecord, SpanRecord

#: Phase shown while records of this span name are completing.  Span
#: records arrive at *close*, children before parents, so an inner span
#: closing tells us which enclosing phase is currently running.
_PHASE_OF = {
    "seed_capture": "fuzz",
    "fuzz": "bitwidth",          # fuzz closing => bitwidth is next
    "bitwidth": "search",
    "search.evaluate": "search",
    "search.iteration": "search",
    "style_check": "search",
    "hls_compile": "search",
    "hls_schedule": "search",
    "difftest": "search",
    "cpu_reference": "search",
    "search": "final_difftest",
    "final_difftest": "report",
    "transpile": "done",
    "parse": "check",
    "check": "done",
    "study.generate": "study",
    "study.analyze": "study",
    "study": "done",
}


class TraceSubscriber:
    """Base/no-op subscriber; sinks override what they consume."""

    def on_span(self, record: SpanRecord) -> None:
        return None

    def on_event(self, record: EventRecord) -> None:
        return None

    def close(self) -> None:
        """Flush/teardown; called once when the run finishes."""
        return None


class ProgressSink(TraceSubscriber):
    """Live progress line on stderr, rebuilt from span closes.

    The renderer is deliberately derivative: every number it shows is
    recomputed from completed records and the (read-only) metrics
    registry, so attaching it cannot change what the pipeline computes.
    Rendering is throttled to one line per ``interval`` wall seconds on
    a TTY (rewritten in place with ``\\r``) and one line per
    ``plain_interval`` on a non-TTY stream (appended, log-style).
    """

    def __init__(
        self,
        recorder: Any = None,
        stream: Optional[IO[str]] = None,
        interval: float = 0.25,
        plain_interval: float = 2.0,
    ) -> None:
        self.recorder = recorder
        self.stream = stream if stream is not None else sys.stderr
        try:
            self._tty = bool(self.stream.isatty())
        except Exception:
            self._tty = False
        self.interval = interval if self._tty else plain_interval
        self._t0 = time.perf_counter()
        self._last_render = 0.0
        self._last_width = 0
        self.phase = "start"
        self.iterations = 0
        self.max_iterations: Optional[int] = None
        self.evaluations = 0
        self.sim_seconds = 0.0
        self.budget_seconds: Optional[float] = None
        self.best: Optional[str] = None
        self.records_seen = 0

    # -- subscriber hooks --------------------------------------------------

    def on_span(self, record: SpanRecord) -> None:
        self.records_seen += 1
        name = record.name
        self.phase = _PHASE_OF.get(name, self.phase)
        if name == "search.iteration":
            self.iterations = max(
                self.iterations, int(record.args.get("iteration", 0))
            )
        elif name == "search.evaluate":
            self.evaluations += 1
        if record.sim_ts is not None and record.sim_dur is not None:
            self.sim_seconds = max(
                self.sim_seconds, record.sim_ts + record.sim_dur
            )
        self._render()

    def on_event(self, record: EventRecord) -> None:
        self.records_seen += 1
        if record.name == "search_started":
            budget = record.args.get("budget_seconds")
            if isinstance(budget, (int, float)):
                self.budget_seconds = float(budget)
            iters = record.args.get("max_iterations")
            if isinstance(iters, int):
                self.max_iterations = iters
            self.phase = "search"
        elif record.name == "repair_success":
            self.best = f"repaired@it{record.args.get('iteration', '?')}"
        self._render()

    def close(self) -> None:
        self._render(final=True)

    # -- rendering ---------------------------------------------------------

    def _hit_rate(self, name: str, tier: str) -> Optional[float]:
        metrics = getattr(self.recorder, "metrics", None)
        if metrics is None or not hasattr(metrics, "counter_value"):
            return None
        hits = metrics.counter_value(name, tier=tier, outcome="hit")
        misses = metrics.counter_value(name, tier=tier, outcome="miss")
        total = hits + misses
        return hits / total if total else None

    def render_line(self) -> str:
        wall = time.perf_counter() - self._t0
        parts = [f"[repro {wall:6.1f}s]", f"phase={self.phase}"]
        if self.iterations:
            cap = f"/{self.max_iterations}" if self.max_iterations else ""
            parts.append(f"it={self.iterations}{cap}")
        if self.evaluations:
            parts.append(f"cand={self.evaluations}")
        memory = self._hit_rate("cache.lookups", "memory")
        if memory is not None:
            parts.append(f"cache={memory:.0%}")
        store = self._hit_rate("cache.lookups", "store")
        if store is not None:
            parts.append(f"store={store:.0%}")
        if self.sim_seconds:
            if self.budget_seconds:
                used = self.sim_seconds / self.budget_seconds
                parts.append(
                    f"sim={self.sim_seconds:.0f}s/"
                    f"{self.budget_seconds:.0f}s ({used:.0%})"
                )
                # Wall-clock ETA to simulated-budget exhaustion at the
                # observed sim-per-wall burn rate.
                if wall > 0 and 0 < used < 1:
                    eta = wall * (1 - used) / used
                    parts.append(f"eta<{_fmt_eta(eta)}")
            else:
                parts.append(f"sim={self.sim_seconds:.0f}s")
        if self.best:
            parts.append(self.best)
        return " ".join(parts)

    def _render(self, final: bool = False) -> None:
        now = time.perf_counter()
        if not final and now - self._last_render < self.interval:
            return
        self._last_render = now
        line = self.render_line()
        try:
            if self._tty:
                pad = max(0, self._last_width - len(line))
                self.stream.write("\r" + line + " " * pad)
                if final:
                    self.stream.write("\n")
                self._last_width = len(line)
            else:
                self.stream.write(line + "\n")
            self.stream.flush()
        except Exception:
            pass


def _fmt_eta(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    return f"{seconds / 3600:.1f}h"


def attach_cli_sinks(recorder: Any, progress: bool = False) -> list:
    """Build and attach the CLI's sinks; returns them for later
    :meth:`TraceSubscriber.close` calls."""
    sinks: list = [ProgressSink(recorder)] if progress else []
    for sink in sinks:
        recorder.add_subscriber(sink)
    return sinks
