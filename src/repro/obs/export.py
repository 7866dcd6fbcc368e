"""Trace/metrics exporters: the JSONL journal and the metrics snapshot.

A traced run writes one trace artifact, the **event journal**
(``--trace-out``): one JSON object per completed span or event, read back
only through :func:`repro.obs.analyze.load_journal`.  Its header line
carries the **run manifest** (configuration, toolchain salt, subject and
source-tree identity), so a journal is interpretable long after the run.
Viewer formats (folded stacks, Chrome ``trace_event``) are derived from a
loaded journal by ``repro trace flame``.

The metrics snapshot (``--metrics-out``) is a separate artifact: the
registry's counters/gauges/histograms plus whatever summary payload the
caller merges in.
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


def journal_lines(
    recorder: TraceRecorder, manifest: Optional[Dict[str, Any]] = None,
) -> List[Dict[str, Any]]:
    """All journal objects, header first, spans/events by start time.
    A *manifest* (see :func:`run_manifest`) rides in the header."""
    header: Dict[str, Any] = {
        "type": "header",
        "version": JOURNAL_VERSION,
        "records": len(recorder.records()),
        "dropped": recorder.dropped,
    }
    if manifest is not None:
        header["manifest"] = manifest
    body = sorted(
        (record_to_json(r) for r in recorder.records()),
        key=lambda obj: (obj["ts_us"], obj["id"]),
    )
    return [header] + body


def write_journal(
    recorder: TraceRecorder, path: str,
    manifest: Optional[Dict[str, Any]] = None,
) -> str:
    """Write the JSONL event journal; returns the path."""
    _ensure_parent(path)
    with open(path, "w") as handle:
        for obj in journal_lines(recorder, manifest):
            handle.write(json.dumps(obj, sort_keys=True) + "\n")
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

    Stamped into run manifests and trace baselines so every persisted
    measurement names the tree it came from."""
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
    command: List[str],
    config: Optional[Dict[str, Any]] = None,
    subject: str = "",
) -> Dict[str, Any]:
    """Identity of one traced run: what ran, on what, configured how."""
    from ..core.store import toolchain_salt

    return {
        "toolchain_salt": toolchain_salt(),
        "subject": subject,
        "command": list(command),
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


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
