"""Trace analytics — load, aggregate, flame, and diff event journals.

The JSONL event journal (:mod:`repro.obs.export`) is the machine-
readable ground truth of one traced run.  This module is its reader:

* :func:`load_journal` — the journal's only reader: parse a complete,
  well-formed journal into a :class:`Trace`, refusing anything short
  of one (a cut, corrupt, malformed or overflowed journal raises
  instead of loading half a run);
* :func:`stage_stats` / :func:`edit_stats` — per-stage and per-edit
  aggregation of wall-clock *and* simulated seconds, with self-time
  attribution (a stage's own cost minus its children's);
* :func:`critical_path` — the heaviest root-to-leaf chain, the first
  place to look before optimizing anything;
* :func:`collapsed_stacks` / :func:`folded_lines` — ``flamegraph.pl``
  collapsed stacks, over either clock;
* :func:`chrome_trace` — the journal as a Chrome ``trace_event``
  document (Perfetto, ``chrome://tracing`` and speedscope import it);
* :func:`stage_table` / :func:`diff_traces` — the one stage comparator,
  behind both ``repro trace diff`` (two journals) and ``repro trace
  check`` (a committed baseline against a journal).  Regressions are
  judged on the *deterministic* dimensions by default — span counts
  and simulated seconds, which are bit-identical across reruns of an
  identical configuration — so two journals from byte-identical runs
  always diff clean; wall-clock is compared only when an explicit
  tolerance is given (shared CI runners are noisy).
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


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_POSITIVE_INT = ("a positive integer", lambda v: _is_int(v) and v >= 1)
_COUNT = ("a non-negative integer", lambda v: _is_int(v) and v >= 0)
_TEXT = ("a non-empty string", lambda v: isinstance(v, str) and v != "")
_DURATION = ("a non-negative number", lambda v: _is_number(v) and v >= 0)
_SIM = ("null or a non-negative number",
        lambda v: v is None or (_is_number(v) and v >= 0))
_TID = ("an integer", _is_int)
_ARGS = ("an object", lambda v: isinstance(v, dict))
_LEVEL = ("one of debug/info/warning/error",
          lambda v: v in ("debug", "info", "warning", "error"))

#: The journal format: per record type, each field and the rule its
#: value must meet.  An absent field reads as null, which only the
#: simulated-clock fields (null on spans without a clock) accept.
_RECORD_RULES: Dict[str, Tuple[Tuple[str, Tuple[str, Any]], ...]] = {
    "header": (("version", _POSITIVE_INT), ("records", _COUNT),
               ("dropped", _COUNT),
               ("manifest", ("absent or an object",
                             lambda v: v is None or isinstance(v, dict)))),
    "span": (("id", _POSITIVE_INT), ("parent", _COUNT), ("name", _TEXT),
             ("cat", _TEXT), ("ts_us", _DURATION), ("dur_us", _DURATION),
             ("sim_ts_s", _SIM), ("sim_dur_s", _SIM), ("tid", _TID),
             ("args", _ARGS)),
    "event": (("id", _POSITIVE_INT), ("parent", _COUNT), ("name", _TEXT),
              ("ts_us", _DURATION), ("tid", _TID), ("level", _LEVEL),
              ("args", _ARGS)),
}


def _check_record(obj: Dict[str, Any], where: str) -> None:
    for key, (expected, ok) in _RECORD_RULES[obj["type"]]:
        if not ok(obj.get(key)):
            raise ValueError(
                f"{where}: {obj['type']}.{key} must be {expected}, "
                f"got {obj.get(key)!r}"
            )


def load_journal(path: str) -> Trace:
    """Load a complete journal file into a :class:`Trace`.

    This is the journal's only reader.  It raises ``ValueError`` naming
    the file (and line, where there is one) on anything short of a
    complete, well-formed journal: a missing header, a line that is not
    JSON, an unknown record type, a field breaking ``_RECORD_RULES`` (a
    missing or mistyped field, a negative wall or simulated duration, a
    bad event level), a duplicate id, a parent that has no span record,
    a parent cycle, a body whose record count differs from the
    header's, or a header reporting dropped records."""
    header: Dict[str, Any] = {}
    spans: Dict[int, Dict[str, Any]] = {}
    events: List[Dict[str, Any]] = []
    line_of: Dict[int, int] = {}
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
            _check_record(obj, f"{path}:{lineno}")
            header = obj
            continue
        if kind not in ("span", "event"):
            raise ValueError(f"{path}:{lineno}: unknown record {kind!r}")
        _check_record(obj, f"{path}:{lineno}")
        rid = obj["id"]
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
    if body != header["records"]:
        raise ValueError(
            f"{path}:{len(lines)}: truncated journal: {body} records, "
            f"header says {header['records']}"
        )
    if header["dropped"]:
        raise ValueError(
            f"{path}:1: recorder dropped {header['dropped']} records"
        )
    for obj in events + list(spans.values()):
        parent = obj["parent"]
        if parent != 0 and parent not in spans:
            raise ValueError(
                f"{path}:{line_of[obj['id']]}: {obj['type']} {obj['id']} "
                f"has unknown parent {parent}"
            )
    # Every span must reach the top level; a chain that revisits a span
    # never does, and would drop the whole cycle out of every report.
    rooted = {0}
    for sid in spans:
        chain: List[int] = []
        node = sid
        while node not in rooted:
            if node in chain:
                raise ValueError(
                    f"{path}:{line_of[node]}: parent cycle through span "
                    f"{node}"
                )
            chain.append(node)
            node = spans[node]["parent"]
        rooted.update(chain)
    children: Dict[int, List[int]] = {}
    for sid, obj in spans.items():
        children.setdefault(obj["parent"], []).append(sid)
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
    are scaled by 1e6), because flamegraph.pl wants integral sample
    counts.  Zero-weight stacks are elided — they still appear as
    prefixes of their descendants."""
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


def chrome_trace(trace: Trace) -> Dict[str, Any]:
    """The journal as a Chrome ``trace_event`` document.

    Spans become complete (``ph: "X"``) events carrying their simulated
    start and duration in ``args``; journal events become thread-scoped
    instants (``ph: "i"``).  The ``pid`` is fixed and events are ordered
    by start time and id, so one journal always gives the same bytes."""
    keyed: List[Tuple[float, int, Dict[str, Any]]] = []
    for sid, span in trace.spans.items():
        args = dict(span["args"])
        if span.get("sim_dur_s") is not None:
            args["sim_dur_s"] = span["sim_dur_s"]
            args["sim_ts_s"] = span["sim_ts_s"]
        keyed.append((span["ts_us"], sid, {
            "ph": "X", "name": span["name"], "cat": span["cat"],
            "ts": span["ts_us"], "dur": span["dur_us"],
            "pid": 1, "tid": span["tid"], "args": args,
        }))
    for event in trace.events:
        keyed.append((event["ts_us"], event["id"], {
            "ph": "i", "s": "t", "name": event["name"], "cat": "event",
            "ts": event["ts_us"], "pid": 1, "tid": event["tid"],
            "args": dict(event["args"]),
        }))
    events = [entry for _ts, _id, entry in sorted(keyed, key=lambda k: k[:2])]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


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
    """Stage-attributed comparison of two stage tables (A = base,
    B = new)."""

    stages: List[StageDelta] = field(default_factory=list)
    regressions: List[Dict[str, Any]] = field(default_factory=list)
    improvements: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.regressions


#: Guard against float-repr jitter when comparing simulated seconds that
#: round-tripped through JSON.
_SIM_EPS = 1e-9


def stage_table(trace: Trace) -> Dict[str, Dict[str, Any]]:
    """The comparable part of :func:`stage_stats`: per stage (span
    name), its span ``count``, simulated seconds ``sim_s`` and wall
    microseconds ``wall_us``.  A baseline file's ``stages`` is this
    table, rounded."""
    return {
        name: {"count": stat.count, "sim_s": stat.sim_s,
               "wall_us": stat.wall_us}
        for name, stat in sorted(stage_stats(trace).items())
    }


_NO_STAGE = {"count": 0, "sim_s": 0.0, "wall_us": 0.0}


def diff_traces(
    base: Dict[str, Dict[str, Any]],
    new: Dict[str, Dict[str, Any]],
    sim_tolerance: float = 0.0,
    count_tolerance: int = 0,
    wall_tolerance: Optional[float] = None,
    tolerances: Optional[Dict[str, Dict[str, Any]]] = None,
) -> TraceDiff:
    """Attribute the differences between two stage tables (see
    :func:`stage_table`) to stages.

    This is the one comparator: ``repro trace diff`` passes two
    journals' tables, ``repro trace check`` a baseline's ``stages`` (and
    its per-stage ``tolerances`` pins, ``{"count", "sim", "wall"}``,
    which win over the global tolerances) as *base*.  Regressions are:

    * ``missing`` — a stage of *base* absent from *new*;
    * ``unbaselined`` — a stage absent from *base*, whatever it costs;
    * ``count`` — more spans than *base* beyond ``count_tolerance``;
    * ``sim_seconds`` — more simulated seconds than *base* beyond the
      relative ``sim_tolerance`` (zero by default: the simulated clock
      is deterministic);
    * ``wall`` — proportionally more wall time, checked only under a
      wall tolerance.

    A lower count or simulated time on a stage still present is an
    improvement.  Byte-identical runs therefore always diff clean at
    the defaults, whatever the host was doing."""
    pins = tolerances or {}
    diff = TraceDiff()
    for name in sorted(set(base) | set(new)):
        a = base.get(name, _NO_STAGE)
        b = new.get(name, _NO_STAGE)
        diff.stages.append(StageDelta(
            name=name, count_a=a["count"], count_b=b["count"],
            wall_a=a["wall_us"], wall_b=b["wall_us"],
            sim_a=a["sim_s"], sim_b=b["sim_s"],
        ))
        if name not in new:
            diff.regressions.append({
                "stage": name, "kind": "missing",
                "base": a["count"], "new": 0, "limit": 0,
            })
            continue
        if name not in base:
            diff.regressions.append({
                "stage": name, "kind": "unbaselined",
                "base": 0, "new": b["count"], "limit": 0,
            })
            continue
        pin = pins.get(name, {})
        count_limit = a["count"] + int(pin.get("count", count_tolerance))
        if b["count"] > count_limit:
            diff.regressions.append({
                "stage": name, "kind": "count",
                "base": a["count"], "new": b["count"], "limit": count_limit,
            })
        elif b["count"] < a["count"]:
            diff.improvements.append({
                "stage": name, "kind": "count",
                "base": a["count"], "new": b["count"],
            })
        sim_limit = (a["sim_s"] * (1.0 + float(pin.get("sim", sim_tolerance)))
                     + _SIM_EPS)
        if b["sim_s"] > sim_limit:
            diff.regressions.append({
                "stage": name, "kind": "sim_seconds",
                "base": round(a["sim_s"], 6), "new": round(b["sim_s"], 6),
                "limit": round(sim_limit, 6),
            })
        elif b["sim_s"] < a["sim_s"] - _SIM_EPS:
            diff.improvements.append({
                "stage": name, "kind": "sim_seconds",
                "base": round(a["sim_s"], 6), "new": round(b["sim_s"], 6),
            })
        wall_tol = pin.get("wall", wall_tolerance)
        if wall_tol is not None and a["wall_us"] > 0:
            wall_limit = a["wall_us"] * (1.0 + float(wall_tol))
            if b["wall_us"] > wall_limit:
                diff.regressions.append({
                    "stage": name, "kind": "wall",
                    "base": round(a["wall_us"], 1),
                    "new": round(b["wall_us"], 1),
                    "limit": round(wall_limit, 1),
                })
    return diff


def diff_metrics(
    base: Dict[str, Any], new: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Changed series between two metrics snapshots (``--metrics-out``
    files), family by family: counters, gauges, then histograms.  Every
    series is pipeline-deterministic (gauges and histograms record
    fuzz indices and simulated seconds, never wall time), so any delta
    here is a behavioural change, not noise — which is why the snapshot
    export is sorted (see
    :func:`repro.obs.metrics.MetricsRegistry.snapshot`)."""
    out: List[Dict[str, Any]] = []
    for family in ("counters", "gauges", "histograms"):
        series_a = base.get(family, {})
        series_b = new.get(family, {})
        for key in sorted(set(series_a) | set(series_b)):
            a = series_a.get(key)
            b = series_b.get(key)
            if a != b:
                out.append({"family": family, "series": key,
                            "base": a, "new": b})
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
