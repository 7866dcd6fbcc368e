"""Determinism-safe trace recorder — hierarchical spans and events.

The pipeline is instrumented with *spans* (``transpile → fuzz →
bitwidth → search iteration → evaluation → style/compile/difftest``):
each span carries the **real** wall-clock duration of the enclosed work
and, when a :class:`~repro.hls.clock.SimulatedClock` is bound, the
**simulated** toolchain seconds it charged.  Structured *events*
(warnings, cache verdicts, seed-capture failures) attach to the current
span.

Determinism contract
--------------------

Recording must never change what the pipeline computes.  Three rules
enforce that:

1. the recorder only *reads* pipeline state (``perf_counter`` and
   ``clock.seconds`` samples); it never feeds anything back;
2. wall-clock values live exclusively inside the recorder and its
   exports — they never enter candidate keys, charge journals, cached
   payloads or anything else the pipeline compares (the worker-side
   trace that rides :class:`~repro.core.evalcache.CachedEvaluation` is
   stripped before the payload reaches any cache tier);
3. the default recorder is :class:`NullRecorder`, a stateless singleton
   whose hooks are constant-time no-ops, so an untraced run pays only a
   global lookup per hook (benchmarked in ``benchmarks/bench_obs.py``).

Subtraces
---------

A candidate's toolchain run records its spans into a *local* recorder
scoped to that one run (:func:`scoped_recorder`), exported as a compact
picklable subtrace, carried back on the ``CachedEvaluation`` payload,
and re-parented under the consuming span by
:meth:`TraceRecorder.attach_subtrace` — mirroring exactly how journalled
clock charges are replayed into the search clock.

Subscribers
-----------

Read-only sinks (:mod:`repro.obs.stream`) can attach to a recorder via
:meth:`TraceRecorder.add_subscriber`; they are notified once per
completed record — span close or event emit — in completion order,
including records grafted from worker subtraces (at consumption order)
and records the bounded buffer dropped.  Subscribers inherit the
determinism contract: they only *read* (the record, and at most the
recorder's metrics registry); a subscriber that raises is counted
(``subscriber_errors``) and never propagates into the pipeline.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .metrics import MetricsRegistry, NullMetrics

#: Environment variable enabling tracing for library (non-CLI) entry
#: points: any non-empty value other than "0" activates a process-global
#: :class:`TraceRecorder`; a value that looks like a path additionally
#: serves as the CLI's default ``--trace-out``.
TRACE_ENV = "REPRO_TRACE"

#: Subtrace wire-format tag (bump on layout change; decoders must treat
#: an unknown tag as "no trace" rather than fail the evaluation).
#: v2 added the metrics dump at index 2.
SUBTRACE_TAG = "repro-subtrace/v2"

#: Default cap on buffered records: a long-lived traced process (a full
#: tier-1 run under ``REPRO_TRACE=1``) must stay bounded.  Overflow
#: drops new records and counts them, never raises.
DEFAULT_MAX_RECORDS = 500_000


@dataclass
class SpanRecord:
    """One completed span.  All fields are plain picklable data."""

    sid: int
    parent: int
    """Parent span id; 0 means root."""
    name: str
    cat: str
    ts_us: float
    """Wall start, microseconds relative to the recorder epoch."""
    dur_us: float
    sim_ts: Optional[float]
    """Simulated-clock seconds at span entry (None: no clock bound)."""
    sim_dur: Optional[float]
    """Simulated seconds charged while the span was open."""
    tid: int
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass
class EventRecord:
    """One instant event, attached to the span open at emit time."""

    sid: int
    parent: int
    name: str
    ts_us: float
    tid: int
    level: str = "info"
    args: Dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Reusable no-op context manager (one instance per process)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The default recorder: every hook is a constant-time no-op."""

    enabled = False
    metrics = NullMetrics()

    def span(self, name: str, cat: str = "pipeline",
             clock: Any = None, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, level: str = "info", **args: Any) -> None:
        return None

    def attach_subtrace(self, subtrace: Any, **root_args: Any) -> None:
        return None

    def subtrace(self) -> None:
        return None

    def add_subscriber(self, sink: Any) -> None:
        return None

    def remove_subscriber(self, sink: Any) -> None:
        return None


NULL_RECORDER = NullRecorder()


class _Span:
    """An open span; closes via context-manager exit."""

    __slots__ = ("recorder", "sid", "parent", "name", "cat", "clock",
                 "args", "_t0", "_sim0", "_tid")

    def __init__(self, recorder: "TraceRecorder", name: str, cat: str,
                 clock: Any, args: Dict[str, Any]) -> None:
        self.recorder = recorder
        self.sid = next(recorder._ids)
        self.name = name
        self.cat = cat
        self.clock = clock
        self.args = args

    def __enter__(self) -> "_Span":
        rec = self.recorder
        stack = rec._stack()
        self.parent = stack[-1] if stack else 0
        stack.append(self.sid)
        self._tid = threading.get_ident()
        self._sim0 = self.clock.seconds if self.clock is not None else None
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        rec = self.recorder
        t1 = time.perf_counter()
        stack = rec._stack()
        if stack and stack[-1] == self.sid:
            stack.pop()
        sim1 = self.clock.seconds if self.clock is not None else None
        rec._append(SpanRecord(
            sid=self.sid,
            parent=self.parent,
            name=self.name,
            cat=self.cat,
            ts_us=(self._t0 - rec.epoch) * 1e6,
            dur_us=(t1 - self._t0) * 1e6,
            sim_ts=self._sim0,
            sim_dur=(sim1 - self._sim0) if self._sim0 is not None else None,
            tid=self._tid,
            args=self.args,
        ))


class TraceRecorder:
    """Buffering recorder: spans, events and a metrics registry.

    Thread-safe: spans parent through a per-thread stack; the record
    buffer is lock-protected.  Records are appended at span *close*, so
    a child precedes its parent in the buffer (exports sort by start
    time; tree validation links by id).
    """

    enabled = True

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        self.epoch = time.perf_counter()
        self.metrics = MetricsRegistry()
        self.max_records = max_records
        self.dropped = 0
        self.subscriber_errors = 0
        self._ids = itertools.count(1)
        self._records: List[Any] = []
        self._subscribers: Tuple[Any, ...] = ()
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- span machinery ----------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _append(self, record: Any) -> None:
        with self._lock:
            if len(self._records) >= self.max_records:
                self.dropped += 1
            else:
                self._records.append(record)
        # Notify outside the buffer lock: a sink may read this
        # recorder's metrics (their own lock) without deadlocking, and
        # streaming stays alive even once the bounded buffer overflows.
        subscribers = self._subscribers
        if subscribers:
            self._notify(subscribers, record)

    def _notify(self, subscribers: Tuple[Any, ...], record: Any) -> None:
        for sink in subscribers:
            try:
                if isinstance(record, SpanRecord):
                    sink.on_span(record)
                else:
                    sink.on_event(record)
            except Exception:
                # A broken sink must never break the pipeline.
                self.subscriber_errors += 1

    # -- subscribers -------------------------------------------------------

    def add_subscriber(self, sink: Any) -> None:
        """Attach a read-only sink (see :mod:`repro.obs.stream`): its
        ``on_span`` / ``on_event`` hooks run synchronously, once per
        completed record, in completion order."""
        with self._lock:
            if sink not in self._subscribers:
                self._subscribers = self._subscribers + (sink,)

    def remove_subscriber(self, sink: Any) -> None:
        with self._lock:
            self._subscribers = tuple(
                s for s in self._subscribers if s is not sink
            )

    def span(self, name: str, cat: str = "pipeline",
             clock: Any = None, **args: Any) -> _Span:
        """Open a span; use as ``with recorder.span("fuzz", clock=clock):``.

        ``clock`` is an optional :class:`~repro.hls.clock.SimulatedClock`
        sampled at entry and exit, so the span reports both real and
        simulated durations.  ``args`` must be small JSON-scalar
        metadata (and must be deterministic — no wall-clock values)."""
        return _Span(self, name, cat, clock, args)

    def event(self, name: str, level: str = "info", **args: Any) -> None:
        stack = self._stack()
        self._append(EventRecord(
            sid=next(self._ids),
            parent=stack[-1] if stack else 0,
            name=name,
            ts_us=(time.perf_counter() - self.epoch) * 1e6,
            tid=threading.get_ident(),
            level=level,
            args=args,
        ))

    # -- introspection -----------------------------------------------------

    def records(self) -> List[Any]:
        """Snapshot of the completed records (copy; safe to iterate)."""
        with self._lock:
            return list(self._records)

    def spans(self) -> List[SpanRecord]:
        return [r for r in self.records() if isinstance(r, SpanRecord)]

    def events(self) -> List[EventRecord]:
        return [r for r in self.records() if isinstance(r, EventRecord)]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.dropped = 0

    # -- subtrace wire format ---------------------------------------------

    def subtrace(self) -> Tuple[Any, ...]:
        """Export this recorder's records as a compact picklable
        subtrace: ``(tag, pid, metrics_dump, records...)`` with span
        times relative to the recorder epoch.  Used by worker-side
        evaluation recorders whose contents ride the
        ``CachedEvaluation`` wire format — the metrics incremented
        during the toolchain run (compile invocations, style checks)
        travel with the spans and merge into the consuming registry."""
        return (SUBTRACE_TAG, os.getpid(), self.metrics.dump()) \
            + tuple(self.records())

    def attach_subtrace(self, subtrace: Any, **root_args: Any) -> None:
        """Graft a worker subtrace under the currently-open span.

        Local span ids are remapped to fresh ids; roots of the subtrace
        become children of the current span.  Wall times are re-based so
        the subtrace starts at the attach call — work is *accounted at
        consumption order*, exactly like journalled clock charges.  The
        shipped metrics merge into this recorder's registry the same
        way."""
        if not subtrace or len(subtrace) < 3 or subtrace[0] != SUBTRACE_TAG:
            return
        pid = subtrace[1]
        self.metrics.absorb(subtrace[2])
        records = subtrace[3:]
        stack = self._stack()
        graft_parent = stack[-1] if stack else 0
        now_us = (time.perf_counter() - self.epoch) * 1e6
        base_us = min(
            (r.ts_us for r in records), default=0.0
        )
        idmap: Dict[int, int] = {}
        for record in records:
            idmap[record.sid] = next(self._ids)
        for record in records:
            parent = idmap.get(record.parent, graft_parent)
            ts = now_us + (record.ts_us - base_us)
            if isinstance(record, SpanRecord):
                args = dict(record.args)
                if root_args and record.parent not in idmap:
                    args.update(root_args)
                args.setdefault("worker_pid", pid)
                self._append(SpanRecord(
                    sid=idmap[record.sid], parent=parent, name=record.name,
                    cat=record.cat, ts_us=ts, dur_us=record.dur_us,
                    sim_ts=record.sim_ts, sim_dur=record.sim_dur,
                    tid=pid, args=args,
                ))
            else:
                self._append(EventRecord(
                    sid=idmap[record.sid], parent=parent, name=record.name,
                    ts_us=ts, tid=pid, level=record.level,
                    args=dict(record.args),
                ))


# --------------------------------------------------------------------------
# The current recorder
# --------------------------------------------------------------------------

_GLOBAL: Optional[Any] = None
_OVERRIDES = threading.local()


def trace_env_value() -> str:
    return os.environ.get(TRACE_ENV, "").strip()


def _from_env() -> Any:
    value = trace_env_value()
    if not value or value == "0":
        return NULL_RECORDER
    return TraceRecorder()


def get_recorder() -> Any:
    """The recorder for the current context.

    A thread-scoped override (see :func:`scoped_recorder`) wins;
    otherwise the process-global recorder, lazily initialized from
    ``REPRO_TRACE`` on first use.  Hot paths may cache the result of one
    call for the duration of one pipeline stage, never longer."""
    override = getattr(_OVERRIDES, "recorder", None)
    if override is not None:
        return override
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = _from_env()
    return _GLOBAL


def install_recorder(recorder: Any) -> Any:
    """Install *recorder* as the process-global recorder; returns the
    previous one (callers restore it when scoping manually)."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = recorder
    return previous


def reset_recorder() -> None:
    """Forget the global recorder; the next :func:`get_recorder` call
    re-reads ``REPRO_TRACE`` (tests use this)."""
    global _GLOBAL
    _GLOBAL = None


@contextmanager
def scoped_recorder(recorder: Any) -> Iterator[Any]:
    """Thread-scoped recorder override.

    Candidate evaluation uses this to capture one toolchain run into a
    local recorder without touching the global recorder other threads
    may be writing to."""
    previous = getattr(_OVERRIDES, "recorder", None)
    _OVERRIDES.recorder = recorder
    try:
        yield recorder
    finally:
        _OVERRIDES.recorder = previous
