"""Per-stage perf baselines — the ``repro trace check`` regression gate.

A *baseline* is a small committed JSON file distilled from one trusted
journal: its :func:`~repro.obs.analyze.stage_table` — for every stage
(span name), the span count, the simulated seconds charged, and the
wall-clock microseconds observed when the baseline was recorded.
``repro trace check`` gates a fresh journal against it with the same
comparator as ``repro trace diff``
(:func:`~repro.obs.analyze.diff_traces`, the baseline's ``stages`` as
the base), so the two verbs report the same regressions:

* **span counts** and **simulated seconds** are deterministic given an
  identical configuration (the PR 5 contract), so they default to
  *zero* tolerance — one extra HLS compile or one extra simulated
  second is a real behavioural change, not noise;
* **wall-clock** is only gated when a tolerance is passed explicitly
  (``--wall-tol``), and should be generous on shared CI runners — it
  exists to catch order-of-magnitude blowups, not percent drift.

Tolerances can also be pinned per stage inside the baseline file
(``"tolerances": {"<stage>": {"sim": .., "count": .., "wall": ..}}``),
which wins over the global flags for that stage.  Regenerate a baseline
on an intentional perf change with ``repro trace check --update``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from .analyze import Trace, stage_table

BASELINE_VERSION = 1


def baseline_from_trace(
    trace: Trace, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """Distill a journal into a committable per-stage baseline."""
    stages = {
        name: {"count": row["count"], "sim_s": round(row["sim_s"], 6),
               "wall_us": round(row["wall_us"], 1)}
        for name, row in stage_table(trace).items()
    }
    return {
        "version": BASELINE_VERSION,
        "meta": meta or {},
        "stages": stages,
    }


def write_baseline(path: str, baseline: Dict[str, Any]) -> str:
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_baseline(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        baseline = json.load(handle)
    version = baseline.get("version") if isinstance(baseline, dict) else None
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"{path}: not a trace baseline (missing version)")
    if version > BASELINE_VERSION:
        raise ValueError(
            f"{path}: baseline version {version} is newer than this "
            f"reader (supports <= {BASELINE_VERSION})"
        )
    if not isinstance(baseline.get("stages"), dict):
        raise ValueError(f"{path}: baseline carries no stages")
    for name, row in baseline["stages"].items():
        if not (isinstance(row, dict) and all(
                isinstance(row.get(key), (int, float))
                for key in ("count", "sim_s", "wall_us"))):
            raise ValueError(
                f"{path}: stage {name!r} needs numeric count, sim_s and "
                "wall_us"
            )
    pins = baseline.get("tolerances", {})
    if not (isinstance(pins, dict) and all(
            isinstance(pin, dict) and all(
                isinstance(value, (int, float)) for value in pin.values())
            for pin in pins.values())):
        raise ValueError(
            f"{path}: tolerances must map stages to numeric pins"
        )
    return baseline


def render_check(
    violations: List[Dict[str, Any]], baseline_path: str
) -> str:
    if not violations:
        return f"trace check passed against {baseline_path}"
    lines = [
        f"trace check FAILED against {baseline_path}: "
        f"{len(violations)} violation(s)"
    ]
    for v in violations:
        lines.append(
            f"  {v['stage']}: {v['kind']} {v['base']} -> {v['new']} "
            f"(limit {v['limit']})"
        )
    lines.append(
        "intentional change? regenerate with: "
        "repro trace check <journal> --baseline "
        f"{baseline_path} --update"
    )
    return "\n".join(lines)
