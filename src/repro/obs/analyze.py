"""Trace analytics — load, aggregate, flame, and diff event journals.

The JSONL event journal (:mod:`repro.obs.export`) is the machine-
readable ground truth of one traced run.  This module is its reader:

* :func:`load_journal` — parse a complete journal into a
  :class:`Trace`, refusing anything short of one (a cut, corrupt or
  overflowed journal raises instead of loading half a run);
* :func:`stage_stats` / :func:`edit_stats` — per-stage and per-edit
  aggregation of wall-clock *and* simulated seconds, with self-time
  attribution (a stage's own cost minus its children's);
* :func:`critical_path` — the heaviest root-to-leaf chain, the first
  place to look before optimizing anything;
* :func:`collapsed_stacks` / :func:`folded_lines` /
  :func:`speedscope_document` — flamegraph exports in the two lingua
  franca formats (``flamegraph.pl`` collapsed stacks and the
  speedscope JSON file format), over either clock;
* :func:`diff_traces` — a structural diff of two runs that attributes
  regressions to specific stages.  Regressions are judged on the
  *deterministic* dimensions by default — span counts and simulated
  seconds, which are bit-identical across reruns of an identical
  configuration — so two journals from byte-identical runs always diff
  clean; wall-clock is compared only when an explicit tolerance is
  given (shared CI runners are noisy).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

@dataclass
class Trace:
    """One loaded journal: indexed spans, events, and lineage."""

    header: Dict[str, Any]
    spans: Dict[int, Dict[str, Any]]
    events: List[Dict[str, Any]]
    children: Dict[int, List[int]]
    path: str = ""

    @property
    def roots(self) -> List[int]:
        return self.children.get(0, [])


def load_journal(path: str) -> Trace:
    """Load a complete journal file into a :class:`Trace`.

    Raises ``ValueError`` naming the file (and line, where there is one)
    on anything short of a complete journal: a missing header, a line
    that is not JSON, an unknown record type, a duplicate id, a span
    whose parent has no record, a body whose record count differs from
    the header's, or a header reporting dropped records."""
    header: Dict[str, Any] = {}
    spans: Dict[int, Dict[str, Any]] = {}
    events: List[Dict[str, Any]] = []
    line_of: Dict[Any, int] = {}
    with open(path) as handle:
        lines = handle.readlines()
    for lineno, line in enumerate(lines, 1):
        text = line.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError:
            raise ValueError(f"{path}:{lineno}: not JSON") from None
        kind = obj.get("type") if isinstance(obj, dict) else None
        if not header:
            if kind != "header":
                raise ValueError(f"{path}:{lineno}: missing journal header")
            header = obj
            continue
        if kind not in ("span", "event"):
            raise ValueError(f"{path}:{lineno}: unknown record {kind!r}")
        rid = obj.get("id")
        if rid in line_of:
            raise ValueError(f"{path}:{lineno}: duplicate id {rid}")
        line_of[rid] = lineno
        if kind == "span":
            spans[rid] = obj
        else:
            events.append(obj)
    if not header:
        raise ValueError(f"{path}: missing journal header (empty file)")
    body = len(spans) + len(events)
    if body != header.get("records"):
        raise ValueError(
            f"{path}:{len(lines)}: truncated journal: {body} records, "
            f"header says {header.get('records')}"
        )
    if header.get("dropped"):
        raise ValueError(
            f"{path}:1: recorder dropped {header['dropped']} records"
        )
    for obj in events + list(spans.values()):
        parent = obj.get("parent", 0)
        if parent != 0 and parent not in spans:
            raise ValueError(
                f"{path}:{line_of[obj['id']]}: {obj['type']} {obj['id']} "
                f"has unknown parent {parent}"
            )
    children: Dict[int, List[int]] = {}
    for sid, obj in spans.items():
        children.setdefault(obj.get("parent", 0), []).append(sid)
    for kids in children.values():
        kids.sort(key=lambda sid: (spans[sid]["ts_us"], sid))
    return Trace(
        header=header, spans=spans, events=events, children=children,
        path=path,
    )


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------


@dataclass
class StageStat:
    """Aggregate cost of all spans sharing one name."""

    name: str
    count: int = 0
    wall_us: float = 0.0
    wall_self_us: float = 0.0
    sim_s: float = 0.0
    sim_self_s: float = 0.0
    events: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "wall_us": round(self.wall_us, 1),
            "wall_self_us": round(self.wall_self_us, 1),
            "sim_s": round(self.sim_s, 6),
            "sim_self_s": round(self.sim_self_s, 6),
            "events": self.events,
        }


def _self_times(trace: Trace, sid: int) -> Tuple[float, float]:
    """(wall_self_us, sim_self_s) of one span: own minus children,
    clamped at zero against float rounding of nested durations."""
    span = trace.spans[sid]
    child_wall = 0.0
    child_sim = 0.0
    for kid in trace.children.get(sid, []):
        child = trace.spans[kid]
        child_wall += child["dur_us"]
        child_sim += child.get("sim_dur_s") or 0.0
    wall_self = max(0.0, span["dur_us"] - child_wall)
    sim_self = max(0.0, (span.get("sim_dur_s") or 0.0) - child_sim)
    return wall_self, sim_self


def stage_stats(trace: Trace) -> Dict[str, StageStat]:
    """Per-span-name aggregates over the whole trace."""
    stats: Dict[str, StageStat] = {}
    for sid, span in trace.spans.items():
        stat = stats.setdefault(span["name"], StageStat(span["name"]))
        stat.count += 1
        stat.wall_us += span["dur_us"]
        stat.sim_s += span.get("sim_dur_s") or 0.0
        wall_self, sim_self = _self_times(trace, sid)
        stat.wall_self_us += wall_self
        stat.sim_self_s += sim_self
    for event in trace.events:
        parent = event.get("parent", 0)
        if parent in trace.spans:
            name = trace.spans[parent]["name"]
            if name in stats:
                stats[name].events += 1
    return stats


def edit_stats(trace: Trace) -> Dict[str, StageStat]:
    """Aggregate ``search.evaluate`` spans by their edit family label —
    which edit kinds the search spent its budget evaluating."""
    stats: Dict[str, StageStat] = {}
    for sid, span in trace.spans.items():
        if span["name"] != "search.evaluate":
            continue
        edit = str(span.get("args", {}).get("edit", "?"))
        stat = stats.setdefault(edit, StageStat(edit))
        stat.count += 1
        stat.wall_us += span["dur_us"]
        stat.sim_s += span.get("sim_dur_s") or 0.0
    return stats


def _metric(span: Dict[str, Any], clock: str) -> float:
    if clock == "sim":
        return span.get("sim_dur_s") or 0.0
    return span["dur_us"]


def critical_path(trace: Trace, clock: str = "wall") -> List[Dict[str, Any]]:
    """The heaviest chain from the heaviest root down to a leaf.

    ``clock`` selects the weight: ``"wall"`` (microseconds) or
    ``"sim"`` (simulated seconds).  Each element reports the span's
    total and self weight, so the hot *frame* on the path is obvious."""
    path: List[Dict[str, Any]] = []
    candidates = trace.roots
    while candidates:
        sid = max(candidates, key=lambda s: (_metric(trace.spans[s], clock), -s))
        span = trace.spans[sid]
        wall_self, sim_self = _self_times(trace, sid)
        path.append({
            "id": sid,
            "name": span["name"],
            "total": _metric(span, clock),
            "self": sim_self if clock == "sim" else wall_self,
        })
        candidates = trace.children.get(sid, [])
    return path


# --------------------------------------------------------------------------
# Flamegraph exports
# --------------------------------------------------------------------------


def collapsed_stacks(trace: Trace, clock: str = "wall") -> Dict[str, int]:
    """Collapsed call stacks: ``"a;b;c" -> integer self weight``.

    Weights are integer microseconds for both clocks (simulated seconds
    are scaled by 1e6), because both flamegraph.pl and speedscope want
    integral sample counts.  Zero-weight stacks are elided — they still
    appear as prefixes of their descendants."""
    stacks: Dict[str, int] = {}

    def walk(sid: int, prefix: str) -> None:
        span = trace.spans[sid]
        stack = f"{prefix};{span['name']}" if prefix else span["name"]
        wall_self, sim_self = _self_times(trace, sid)
        weight = int(round(sim_self * 1e6 if clock == "sim" else wall_self))
        if weight > 0:
            stacks[stack] = stacks.get(stack, 0) + weight
        for kid in trace.children.get(sid, []):
            walk(kid, stack)

    for root in trace.roots:
        walk(root, "")
    return stacks


def folded_lines(trace: Trace, clock: str = "wall") -> List[str]:
    """``flamegraph.pl`` input lines, deterministically sorted."""
    return [
        f"{stack} {weight}"
        for stack, weight in sorted(collapsed_stacks(trace, clock).items())
    ]


def speedscope_document(
    trace: Trace, name: str = "repro trace"
) -> Dict[str, Any]:
    """A speedscope file with one evented profile per clock.

    Built from the collapsed stacks rather than raw span timestamps, so
    one profile format serves both clocks.  Load at
    https://www.speedscope.app or with the local viewer."""
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []

    def frame(label: str) -> int:
        if label not in frame_index:
            frame_index[label] = len(frames)
            frames.append({"name": label})
        return frame_index[label]

    profiles = []
    for clock, title in (("wall", "wall clock"), ("sim", "simulated seconds")):
        stacks = sorted(collapsed_stacks(trace, clock).items())
        events: List[Dict[str, Any]] = []
        cursor = 0
        open_stack: List[int] = []
        for stack, weight in stacks:
            target = [frame(label) for label in stack.split(";")]
            shared = 0
            while (shared < len(open_stack) and shared < len(target)
                   and open_stack[shared] == target[shared]):
                shared += 1
            for fid in reversed(open_stack[shared:]):
                events.append({"type": "C", "frame": fid, "at": cursor})
            for fid in target[shared:]:
                events.append({"type": "O", "frame": fid, "at": cursor})
            open_stack = target
            cursor += weight
        for fid in reversed(open_stack):
            events.append({"type": "C", "frame": fid, "at": cursor})
        profiles.append({
            "type": "evented",
            "name": f"{name} ({title})",
            "unit": "microseconds",
            "startValue": 0,
            "endValue": cursor,
            "events": events,
        })
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": profiles,
        "name": name,
        "exporter": "repro.obs.analyze",
    }


# --------------------------------------------------------------------------
# Structural diff
# --------------------------------------------------------------------------


@dataclass
class StageDelta:
    name: str
    count_a: int
    count_b: int
    wall_a: float
    wall_b: float
    sim_a: float
    sim_b: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": [self.count_a, self.count_b],
            "wall_us": [round(self.wall_a, 1), round(self.wall_b, 1)],
            "sim_s": [round(self.sim_a, 6), round(self.sim_b, 6)],
        }


@dataclass
class TraceDiff:
    """Stage-attributed comparison of two journals (A = base, B = new)."""

    stages: List[StageDelta] = field(default_factory=list)
    regressions: List[Dict[str, Any]] = field(default_factory=list)
    improvements: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.regressions


#: Guard against float-repr jitter when comparing simulated seconds that
#: round-tripped through JSON.
_SIM_EPS = 1e-9


def diff_traces(
    base: Trace,
    new: Trace,
    sim_tolerance: float = 0.0,
    count_tolerance: int = 0,
    wall_tolerance: Optional[float] = None,
) -> TraceDiff:
    """Attribute differences between two runs to specific stages.

    A **regression** is: a stage executing more times than the base
    (beyond ``count_tolerance``), charging more simulated seconds
    (beyond relative ``sim_tolerance`` — zero by default, because the
    simulated clock is deterministic), or — only when
    ``wall_tolerance`` is given — taking proportionally more wall
    time.  Byte-identical runs therefore always diff clean at the
    defaults, whatever the host was doing."""
    stats_a = stage_stats(base)
    stats_b = stage_stats(new)
    diff = TraceDiff()
    for name in sorted(set(stats_a) | set(stats_b)):
        a = stats_a.get(name, StageStat(name))
        b = stats_b.get(name, StageStat(name))
        delta = StageDelta(
            name=name, count_a=a.count, count_b=b.count,
            wall_a=a.wall_us, wall_b=b.wall_us,
            sim_a=a.sim_s, sim_b=b.sim_s,
        )
        diff.stages.append(delta)
        if b.count > a.count + count_tolerance:
            diff.regressions.append({
                "stage": name, "kind": "count",
                "base": a.count, "new": b.count,
                "limit": a.count + count_tolerance,
            })
        elif b.count < a.count:
            diff.improvements.append({
                "stage": name, "kind": "count",
                "base": a.count, "new": b.count,
            })
        sim_limit = a.sim_s * (1.0 + sim_tolerance) + _SIM_EPS
        if b.sim_s > sim_limit:
            diff.regressions.append({
                "stage": name, "kind": "sim_seconds",
                "base": round(a.sim_s, 6), "new": round(b.sim_s, 6),
                "limit": round(sim_limit, 6),
            })
        elif b.sim_s < a.sim_s - _SIM_EPS:
            diff.improvements.append({
                "stage": name, "kind": "sim_seconds",
                "base": round(a.sim_s, 6), "new": round(b.sim_s, 6),
            })
        if wall_tolerance is not None and a.wall_us > 0:
            wall_limit = a.wall_us * (1.0 + wall_tolerance)
            if b.wall_us > wall_limit:
                diff.regressions.append({
                    "stage": name, "kind": "wall",
                    "base": round(a.wall_us, 1), "new": round(b.wall_us, 1),
                    "limit": round(wall_limit, 1),
                })
    return diff


def diff_metrics(
    base: Dict[str, Any], new: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Changed counter series between two metrics snapshots
    (``--metrics-out`` files).  Counters are pipeline-deterministic, so
    any delta here is a behavioural change, not noise — which is why
    the snapshot export is sorted (see
    :func:`repro.obs.metrics.MetricsRegistry.snapshot`)."""
    counters_a = base.get("counters", {})
    counters_b = new.get("counters", {})
    out: List[Dict[str, Any]] = []
    for key in sorted(set(counters_a) | set(counters_b)):
        a = counters_a.get(key)
        b = counters_b.get(key)
        if a != b:
            out.append({"counter": key, "base": a, "new": b})
    return out


# --------------------------------------------------------------------------
# Rendering (the `repro trace` human output)
# --------------------------------------------------------------------------


def render_summary(trace: Trace, top: int = 0) -> str:
    """Fixed-width per-stage table over both clocks."""
    stats = sorted(
        stage_stats(trace).values(),
        key=lambda s: (-s.wall_self_us, s.name),
    )
    if top:
        stats = stats[:top]
    lines = [
        f"{'stage':24} {'count':>6} {'wall':>10} {'self':>10} "
        f"{'sim':>10} {'sim self':>10}",
    ]
    for stat in stats:
        lines.append(
            f"{stat.name:24} {stat.count:>6} "
            f"{stat.wall_us / 1e6:>9.3f}s {stat.wall_self_us / 1e6:>9.3f}s "
            f"{stat.sim_s:>9.1f}s {stat.sim_self_s:>9.1f}s"
        )
    edits = sorted(
        edit_stats(trace).values(), key=lambda s: (-s.sim_s, s.name)
    )
    if edits:
        lines.append("")
        lines.append(f"{'evaluations by edit':24} {'count':>6} "
                     f"{'wall':>10} {'sim':>21}")
        for stat in edits:
            lines.append(
                f"{stat.name:24} {stat.count:>6} "
                f"{stat.wall_us / 1e6:>9.3f}s {stat.sim_s:>20.1f}s"
            )
    path = critical_path(trace, "wall")
    if path:
        lines.append("")
        lines.append("critical path (wall): " + " > ".join(
            f"{hop['name']}[{hop['total'] / 1e6:.3f}s]" for hop in path
        ))
    sim_path = critical_path(trace, "sim")
    if sim_path and any(hop["total"] for hop in sim_path):
        lines.append("critical path (sim):  " + " > ".join(
            f"{hop['name']}[{hop['total']:.1f}s]" for hop in sim_path
        ))
    return "\n".join(lines)


def render_diff(diff: TraceDiff) -> str:
    lines = [
        f"{'stage':24} {'count':>11} {'sim seconds':>21} {'wall':>17}",
    ]
    for delta in diff.stages:
        count = f"{delta.count_a}->{delta.count_b}" \
            if delta.count_a != delta.count_b else str(delta.count_a)
        sim = f"{delta.sim_a:.1f}->{delta.sim_b:.1f}" \
            if abs(delta.sim_a - delta.sim_b) > _SIM_EPS \
            else f"{delta.sim_a:.1f}"
        wall = f"{delta.wall_a / 1e6:.2f}s->{delta.wall_b / 1e6:.2f}s"
        lines.append(f"{delta.name:24} {count:>11} {sim:>21} {wall:>17}")
    lines.append("")
    if diff.regressions:
        lines.append(f"{len(diff.regressions)} regression(s):")
        for reg in diff.regressions:
            lines.append(
                f"  REGRESSION {reg['stage']} {reg['kind']}: "
                f"{reg['base']} -> {reg['new']} (limit {reg['limit']})"
            )
    else:
        lines.append("no regressions")
    if diff.improvements:
        lines.append(f"{len(diff.improvements)} improvement(s):")
        for imp in diff.improvements:
            lines.append(
                f"  improved   {imp['stage']} {imp['kind']}: "
                f"{imp['base']} -> {imp['new']}"
            )
    return "\n".join(lines)
