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
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..cfront import nodes as N

BranchKey = Tuple[int, bool]

#: Deciding expressions whose truth is fixed.
_LITERALS = (N.IntLit, N.CharLit, N.FloatLit)


def _decider(node: N.Node) -> Optional[N.Expr]:
    """The expression whose truth branch point *node* records, or ``None``
    when *node* is not a branch point.

    A loop or conditional records its ``cond``; ``&&`` and ``||`` record
    their left operand, which decides whether the right one runs.
    """
    if isinstance(node, (N.If, N.While, N.DoWhile, N.For, N.Cond)):
        return node.cond
    if isinstance(node, N.BinOp) and node.op in ("&&", "||"):
        return node.left
    return None


def branch_points(root: N.Node) -> Set[int]:
    """uids of every branch-point node under *root*."""
    return {node.uid for node in root.walk() if _decider(node) is not None}


def branch_universe(
    unit: N.TranslationUnit, kernel_name: str
) -> Optional[FrozenSet[BranchKey]]:
    """Every branch outcome a run of *kernel_name* can record, or ``None``.

    A run executes the unit's global initializers and then the kernel, so
    the roots are every top-level declaration that is not a function plus
    each top-level definition named *kernel_name*.  Calls are followed
    through a conservative call graph: a plain-identifier callee reaches
    every top-level function of that name (a builtin reaches none).  A
    callee that is not a plain identifier, such as a member call
    ``s.write()`` that may dispatch to a struct method, makes the
    reachable set unknown, and the answer is ``None``.

    A branch point decided by a literal (``while (1)``, ``if (0)``,
    ``0 && x``) can record only that literal's truth, so it contributes
    one outcome; every other branch point contributes both.

    The result may hold outcomes no input can reach (a dead branch), but
    never misses one a run records; the fuzzer checks the latter on every
    run.
    """
    defs: Dict[str, List[N.FunctionDef]] = {}
    pending: List[N.Node] = []
    for decl in unit.decls:
        if isinstance(decl, N.FunctionDef):
            defs.setdefault(decl.name, []).append(decl)
        else:
            pending.append(decl)
    pending.extend(defs.get(kernel_name, ()))
    visited: Set[int] = set()
    outcomes: Set[BranchKey] = set()
    while pending:
        root = pending.pop()
        if id(root) in visited:
            continue
        visited.add(id(root))
        for node in root.walk():
            if isinstance(node, N.Call):
                name = node.callee_name
                if name is None:
                    return None
                pending.extend(defs.get(name, ()))
                continue
            decider = _decider(node)
            if decider is None:
                continue
            if isinstance(decider, _LITERALS):
                outcomes.add((node.uid, bool(decider.value)))
            else:
                outcomes.add((node.uid, True))
                outcomes.add((node.uid, False))
    return frozenset(outcomes)


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

    def ratio(self, root: N.Node) -> float:
        """Branch coverage over the branches statically present in *root*."""
        points = branch_points(root)
        total = 2 * len(points)
        if total == 0:
            return 1.0
        covered = sum(1 for (uid, _outcome) in self.hits if uid in points)
        return covered / total


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


class ValueProfile:
    """Tracks value ranges keyed by the uid of the declaring node.

    uids are process-local: ``clone()`` preserves them, so a lookup
    answers for the profiled unit and every clone of it, but a render →
    re-parse round trip yields fresh uids that miss.
    """

    def __init__(self) -> None:
        self.ranges: Dict[int, VarRange] = {}

    def observe(self, decl_uid: int, name: str, value: object) -> None:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return
        rng = self.ranges.get(decl_uid)
        if rng is None:
            rng = VarRange(name=name)
            self.ranges[decl_uid] = rng
        rng.observe(float(value))

    def range_for(self, decl_uid: int) -> Optional[VarRange]:
        return self.ranges.get(decl_uid)

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
