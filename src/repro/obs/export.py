"""Trace/metrics exporters: JSONL journal, Chrome trace, run manifest.

Three artifacts per traced run, all derived from one
:class:`~repro.obs.recorder.TraceRecorder`:

* the **event journal** (``*.jsonl``): one JSON object per completed
  span or event — the machine-readable ground truth everything else is
  derived from, read back only through
  :func:`repro.obs.analyze.load_journal`;
* the **Chrome trace** (``*.json``): the same spans in the
  ``trace_event`` format, loadable in ``chrome://tracing`` / Perfetto
  (``ph: "X"`` complete events; simulated durations ride in ``args``);
* the **run manifest** (``*.manifest.json``): configuration, toolchain
  salt, subject and source-tree identity, written next to the journal so
  a trace is interpretable long after the run.

The metrics snapshot (``--metrics-out``) is a fourth, separate artifact:
the registry's counters/gauges/histograms plus whatever summary payload
the caller merges in (the CLI adds ``SearchStats``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

from .recorder import EventRecord, SpanRecord, TraceRecorder

#: Journal format tag; the first journal line is a header carrying it.
JOURNAL_VERSION = 1


# --------------------------------------------------------------------------
# Record → JSON
# --------------------------------------------------------------------------


def record_to_json(record: Any) -> Dict[str, Any]:
    if isinstance(record, SpanRecord):
        return {
            "type": "span",
            "id": record.sid,
            "parent": record.parent,
            "name": record.name,
            "cat": record.cat,
            "ts_us": record.ts_us,
            "dur_us": record.dur_us,
            "sim_ts_s": record.sim_ts,
            "sim_dur_s": record.sim_dur,
            "tid": record.tid,
            "args": dict(record.args),
        }
    assert isinstance(record, EventRecord)
    return {
        "type": "event",
        "id": record.sid,
        "parent": record.parent,
        "name": record.name,
        "ts_us": record.ts_us,
        "tid": record.tid,
        "level": record.level,
        "args": dict(record.args),
    }


def journal_lines(recorder: TraceRecorder) -> List[Dict[str, Any]]:
    """All journal objects, header first, spans/events by start time."""
    header = {
        "type": "header",
        "version": JOURNAL_VERSION,
        "records": len(recorder.records()),
        "dropped": recorder.dropped,
    }
    body = sorted(
        (record_to_json(r) for r in recorder.records()),
        key=lambda obj: (obj["ts_us"], obj["id"]),
    )
    return [header] + body


def write_journal(recorder: TraceRecorder, path: str) -> str:
    """Write the JSONL event journal; returns the path."""
    _ensure_parent(path)
    with open(path, "w") as handle:
        for obj in journal_lines(recorder):
            handle.write(json.dumps(obj, sort_keys=True) + "\n")
    return path


# --------------------------------------------------------------------------
# Chrome trace_event export
# --------------------------------------------------------------------------


def chrome_trace(recorder: TraceRecorder) -> Dict[str, Any]:
    """The recorder's spans as a Chrome ``trace_event`` document."""
    pid = os.getpid()
    events: List[Dict[str, Any]] = []
    tids = set()
    for record in recorder.records():
        tids.add(record.tid)
        if isinstance(record, SpanRecord):
            args = dict(record.args)
            if record.sim_dur is not None:
                args["sim_dur_s"] = record.sim_dur
                args["sim_ts_s"] = record.sim_ts
            events.append({
                "ph": "X",
                "name": record.name,
                "cat": record.cat,
                "ts": record.ts_us,
                "dur": record.dur_us,
                "pid": pid,
                "tid": record.tid,
                "args": args,
            })
        else:
            events.append({
                "ph": "i",
                "s": "t",
                "name": record.name,
                "cat": "event",
                "ts": record.ts_us,
                "pid": pid,
                "tid": record.tid,
                "args": dict(record.args),
            })
    # Thread-name metadata rows keep thread lanes readable in the viewer.
    for tid in sorted(tids):
        events.append({
            "ph": "M",
            "name": "thread_name",
            "pid": pid,
            "tid": tid,
            "args": {"name": f"lane-{tid}"},
        })
    events.sort(key=lambda e: (e.get("ts", 0.0), e.get("name", "")))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(recorder: TraceRecorder, path: str) -> str:
    _ensure_parent(path)
    with open(path, "w") as handle:
        json.dump(chrome_trace(recorder), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


# --------------------------------------------------------------------------
# Metrics snapshot and manifest
# --------------------------------------------------------------------------


def write_metrics(
    recorder: TraceRecorder, path: str,
    extra: Optional[Dict[str, Any]] = None,
) -> str:
    """Write the metrics snapshot (plus caller-supplied summary data)."""
    payload: Dict[str, Any] = {"version": JOURNAL_VERSION}
    payload.update(recorder.metrics.snapshot())
    if extra:
        payload["summary"] = extra
    _ensure_parent(path)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def git_describe() -> Optional[str]:
    """``git describe --always --dirty`` of the source tree, or None.

    Stamped into run manifests, trace baselines and BENCH_*.json
    artifacts so every persisted measurement names the tree it came
    from."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except Exception:
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def run_manifest(
    command: Optional[List[str]] = None,
    config: Optional[Dict[str, Any]] = None,
    subject: str = "",
) -> Dict[str, Any]:
    """Identity of one traced run: what ran, on what, configured how."""
    from ..core.store import toolchain_salt

    return {
        "toolchain_salt": toolchain_salt(),
        "subject": subject,
        "command": list(command) if command is not None else list(sys.argv),
        "config": config or {},
        "python": sys.version.split()[0],
        "platform": sys.platform,
        "git_describe": git_describe(),
        "env": {
            key: os.environ[key]
            for key in sorted(os.environ)
            if key.startswith("REPRO_")
        },
    }


def write_manifest(
    path: str,
    command: Optional[List[str]] = None,
    config: Optional[Dict[str, Any]] = None,
    subject: str = "",
) -> str:
    _ensure_parent(path)
    with open(path, "w") as handle:
        json.dump(run_manifest(command, config, subject), handle,
                  indent=2, sort_keys=True)
        handle.write("\n")
    return path


# --------------------------------------------------------------------------
# Path conventions (shared by the CLI and the CI job)
# --------------------------------------------------------------------------


def trace_paths(trace_out: str) -> Dict[str, str]:
    """Derive the journal and manifest paths from ``--trace-out``.

    ``run.trace.json`` → journal ``run.trace.jsonl``, manifest
    ``run.trace.manifest.json``.  A non-``.json`` path gets plain
    suffixes appended, except a ``.jsonl`` one: the Chrome trace would
    take the journal's suffix and the journal become ``x.jsonl.jsonl``,
    so that raises :class:`ValueError`."""
    if trace_out.endswith(".jsonl"):
        stem = trace_out[: -len(".jsonl")]
        raise ValueError(
            f"--trace-out names the Chrome trace, not the journal: pass "
            f"{stem}.json and the journal is written to {stem}.jsonl"
        )
    if trace_out.endswith(".json"):
        stem = trace_out[: -len(".json")]
        return {
            "trace": trace_out,
            "journal": stem + ".jsonl",
            "manifest": stem + ".manifest.json",
        }
    return {
        "trace": trace_out,
        "journal": trace_out + ".jsonl",
        "manifest": trace_out + ".manifest.json",
    }


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
