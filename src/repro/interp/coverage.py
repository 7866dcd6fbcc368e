"""Branch coverage recording and value-range profiling.

Coverage drives two parts of the paper:

* Algorithm 1 keeps a fuzz input only when it reaches *new* coverage
  (``NewCov`` on line 11);
* Table 4 reports the branch coverage the generated suite achieves.

A *branch point* is any conditional construct (``if``, ``while``, ``do``,
``for``, ``?:``, ``&&``, ``||``); each contributes two branches (taken /
not taken).  The recorder stores ``(node_uid, outcome)`` pairs.

The :class:`ValueProfile` implements §4's bitwidth estimation: it tracks
the extreme values every declared variable held during test execution so
the initial HLS version can finitize integer widths (the ``ret`` max=83 →
``fpga_uint<7>`` example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..cfront import nodes as N
from ..cfront.fingerprint import node_digests

BranchKey = Tuple[int, bool]


def branch_points(root: N.Node) -> Set[int]:
    """uids of every branch-point node under *root*."""
    points: Set[int] = set()
    for node in root.walk():
        if isinstance(node, (N.If, N.While, N.DoWhile, N.Cond)):
            points.add(node.uid)
        elif isinstance(node, N.For) and node.cond is not None:
            points.add(node.uid)
        elif isinstance(node, N.BinOp) and node.op in ("&&", "||"):
            points.add(node.uid)
    return points


class CoverageRecorder:
    """Accumulates branch outcomes across one or many executions."""

    def __init__(self) -> None:
        self.hits: Set[BranchKey] = set()

    def record(self, uid: int, outcome: bool) -> None:
        self.hits.add((uid, outcome))

    def snapshot(self) -> FrozenSet[BranchKey]:
        return frozenset(self.hits)

    def merge(self, other: "CoverageRecorder") -> bool:
        """Fold *other* in; True if any branch was new (AFL's NewCov)."""
        before = len(self.hits)
        self.hits |= other.hits
        return len(self.hits) > before

    def would_add(self, other: "CoverageRecorder") -> bool:
        return bool(other.hits - self.hits)

    def ratio(self, root: N.Node) -> float:
        """Branch coverage over the branches statically present in *root*."""
        points = branch_points(root)
        total = 2 * len(points)
        if total == 0:
            return 1.0
        covered = sum(1 for (uid, _outcome) in self.hits if uid in points)
        return covered / total

    def covered_branches(self, root: N.Node) -> int:
        points = branch_points(root)
        return sum(1 for (uid, _outcome) in self.hits if uid in points)

    def total_branches(self, root: N.Node) -> int:
        return 2 * len(branch_points(root))


@dataclass
class VarRange:
    """Observed extreme values for one declared variable."""

    name: str
    min_value: float = 0.0
    max_value: float = 0.0
    is_integer: bool = True
    samples: int = 0

    def observe(self, value: float) -> None:
        if self.samples == 0:
            self.min_value = self.max_value = value
        else:
            self.min_value = min(self.min_value, value)
            self.max_value = max(self.max_value, value)
        if isinstance(value, float) and not float(value).is_integer():
            self.is_integer = False
        self.samples += 1

    @property
    def max_abs(self) -> int:
        return int(max(abs(self.min_value), abs(self.max_value)))

    @property
    def needs_sign(self) -> bool:
        return self.min_value < 0


def _structural_key_table(unit: N.Node) -> Dict[int, str]:
    """uid → parse-stable structural key for every declaring node.

    The key is the declaration's structural digest (PR 3's fingerprint,
    which excludes uids and source positions) plus its occurrence index
    among same-digest declarations in pre-order walk — so two ``int i``
    locals in different functions stay distinct, and the key survives
    both ``clone()`` (which keeps uids anyway) and a render→re-parse
    round trip (which does not).  Memoized on the unit: profiled units
    and repair candidates are immutable once published.
    """
    memo = unit.__dict__.get("_profile_keys")
    if memo is None:
        memo = {}
        seen: Dict[str, int] = {}
        for node in unit.walk():
            if isinstance(node, (N.VarDecl, N.ParamDecl)):
                digest = node_digests(node)[0]
                index = seen.get(digest, 0)
                seen[digest] = index + 1
                memo[node.uid] = f"{digest}#{index}"
        unit.__dict__["_profile_keys"] = memo
    return memo


class ValueProfile:
    """Tracks value ranges keyed by the uid of the declaring node, with a
    parse-stable structural-fingerprint index alongside, plus the maximum
    simultaneous activation depth per function (the repair synthesizer's
    stack-capacity evidence).

    uids are process-local: ``clone()`` preserves them but a render →
    re-parse round trip (a rendered candidate parsed again) does not.
    :meth:`bind` therefore snapshots a uid → structural-key mapping from
    the profiled unit, and :meth:`range_for_node` resolves lookups
    against *any* structurally matching unit — uid fast path first,
    fingerprint key as the fallback.
    """

    def __init__(self) -> None:
        self.ranges: Dict[int, VarRange] = {}
        self.by_key: Dict[str, VarRange] = {}
        self.call_depths: Dict[str, int] = {}

    def observe(self, decl_uid: int, name: str, value: object) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        rng = self.ranges.get(decl_uid)
        if rng is None:
            rng = VarRange(name=name)
            self.ranges[decl_uid] = rng
        rng.observe(float(value))

    def observe_call(self, func_name: str, active: int) -> None:
        """Record *active* simultaneous invocations of *func_name*."""
        if active > self.call_depths.get(func_name, 0):
            self.call_depths[func_name] = active

    def call_depth(self, func_name: str) -> int:
        """Max observed simultaneous activations (0 = never profiled)."""
        return self.call_depths.get(func_name, 0)

    def range_for(self, decl_uid: int) -> Optional[VarRange]:
        return self.ranges.get(decl_uid)

    def bind(self, unit: N.Node) -> None:
        """Index the profiled ranges by structural key of *unit* — the
        unit the profile was gathered on — so :meth:`range_for_node` can
        answer for clones and re-parses of it."""
        keys = _structural_key_table(unit)
        for uid, rng in self.ranges.items():
            key = keys.get(uid)
            if key is not None:
                self.by_key[key] = rng

    def range_for_node(self, unit: N.Node, decl: N.Node) -> Optional[VarRange]:
        """Range for a declaring node of *unit*: uid fast path (clones
        preserve uids), then the structural-fingerprint key (stable
        across re-parse).  Requires :meth:`bind` for the slow path."""
        rng = self.ranges.get(decl.uid)
        if rng is not None:
            return rng
        if not self.by_key:
            return None
        key = _structural_key_table(unit).get(decl.uid)
        return self.by_key.get(key) if key is not None else None

    def merge(self, other: "ValueProfile") -> None:
        for uid, rng in other.ranges.items():
            mine = self.ranges.get(uid)
            if mine is None:
                self.ranges[uid] = VarRange(
                    rng.name, rng.min_value, rng.max_value, rng.is_integer, rng.samples
                )
            else:
                mine.min_value = min(mine.min_value, rng.min_value)
                mine.max_value = max(mine.max_value, rng.max_value)
                mine.is_integer = mine.is_integer and rng.is_integer
                mine.samples += rng.samples
        for name, depth in other.call_depths.items():
            if depth > self.call_depths.get(name, 0):
                self.call_depths[name] = depth
