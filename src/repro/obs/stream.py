"""Live consumption of a running trace — progress rendering and tailing.

PR 5's :class:`~repro.obs.recorder.TraceRecorder` *records* a
determinism-safe span tree; this module is the first consumer of that
stream while the run is still going.  A **subscriber** is a read-only
sink attached via :meth:`TraceRecorder.add_subscriber`, notified once
per completed record (span close or event emit), in completion order —
the exact order journalled clock charges are consumed.

Two sinks ship:

* :class:`ProgressSink` — a throttled stderr line renderer: current
  pipeline phase, iteration/candidate counts, cache and store hit
  rates, simulated-budget consumption and a wall-clock ETA.  Enabled by
  the CLI ``--progress`` flag or ``REPRO_PROGRESS=1``.
* :class:`JsonlTailSink` — appends each record to a JSONL file as it
  completes and flushes per line, so ``tail -f`` (or the future
  ``repro serve`` daemon) can follow a run live.  The line format is
  exactly the event-journal record format
  (:func:`repro.obs.export.record_to_json`); the header carries
  ``"stream": true`` because a live tail cannot know final record
  counts up front.  Enabled by ``--stream-out`` / ``REPRO_STREAM``.

Determinism contract
--------------------

Subscribers uphold the PR 5 invariant: they never feed anything back
into the pipeline.  A sink only reads the completed record handed to it
(plus, for the progress renderer, the recorder's metrics registry —
reads that take the metrics lock but mutate nothing), writes exclusively
to stderr or its own file, and swallows its own failures (the recorder
counts them in ``subscriber_errors``).  Worker subtraces are still
stripped before every cache tier; ``--json`` pipeline output is
byte-identical with sinks attached or not (asserted per-subject in the
CI ``trace`` job and ``tests/obs/test_trace_cli.py``).
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Dict, IO, Optional

from .recorder import EventRecord, SpanRecord

#: Environment toggle for the live progress renderer (CLI ``--progress``
#: wins; any non-empty value other than "0" enables it).
PROGRESS_ENV = "REPRO_PROGRESS"

#: Environment default for the streamed-journal path (CLI
#: ``--stream-out`` wins).
STREAM_ENV = "REPRO_STREAM"

#: Phase shown while records of this span name are completing.  Span
#: records arrive at *close*, children before parents, so an inner span
#: closing tells us which enclosing phase is currently running.
_PHASE_OF = {
    "seed_capture": "fuzz",
    "fuzz": "bitwidth",          # fuzz closing => bitwidth is next
    "bitwidth": "search",
    "search.synthesize": "search",
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


def progress_env_enabled() -> bool:
    value = os.environ.get(PROGRESS_ENV, "").strip()
    return bool(value) and value != "0"


def stream_env_path() -> Optional[str]:
    value = os.environ.get(STREAM_ENV, "").strip()
    return value or None


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


class JsonlTailSink(TraceSubscriber):
    """Follow-able JSONL stream of the journal, one record per line.

    This is the wire format the ROADMAP's ``repro serve`` daemon will
    forward to clients: the same record objects the batch journal
    exporter writes, but emitted incrementally at completion order and
    flushed per line.  Unlike the final journal the body is *not*
    sorted by start time (a live stream cannot be), and the trailing
    record may be cut mid-line if the producer dies — which is exactly
    why :func:`repro.obs.analyze.load_journal` tolerates both.
    """

    def __init__(self, path: str) -> None:
        from .export import JOURNAL_VERSION, _ensure_parent

        self.path = path
        _ensure_parent(path)
        self._handle: Optional[IO[str]] = open(path, "w")
        self._write_obj({
            "type": "header",
            "version": JOURNAL_VERSION,
            "records": 0,
            "dropped": 0,
            "stream": True,
        })

    def _write_obj(self, obj: Dict[str, Any]) -> None:
        handle = self._handle
        if handle is None:
            return
        handle.write(json.dumps(obj, sort_keys=True) + "\n")
        handle.flush()

    def on_span(self, record: SpanRecord) -> None:
        self._emit(record)

    def on_event(self, record: EventRecord) -> None:
        self._emit(record)

    def _emit(self, record: Any) -> None:
        from .export import record_to_json

        self._write_obj(record_to_json(record))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def attach_cli_sinks(
    recorder: Any,
    progress: bool = False,
    stream_out: Optional[str] = None,
) -> list:
    """Build and attach the CLI's sinks; returns them for later
    :meth:`TraceSubscriber.close` calls."""
    sinks: list = []
    if progress:
        sinks.append(ProgressSink(recorder))
    if stream_out:
        sinks.append(JsonlTailSink(stream_out))
    for sink in sinks:
        recorder.add_subscriber(sink)
    return sinks
