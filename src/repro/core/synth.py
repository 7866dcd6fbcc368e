"""Evidence-driven parameter synthesis for repair edits.

HeteroGen's search enumerates parameter ladders — stack capacities are
doubled until differential testing stops diverging, unroll/partition
factors are swept, bitwidths widened step by step — even though the
pipeline has already *observed* the values those parameters must cover:
the fuzzer's :class:`~repro.interp.coverage.ValueProfile` records every
variable's extreme values and every function's maximum simultaneous
activation depth, and the differential harness now carries concrete
:class:`~repro.difftest.harness.Counterexample` payloads for diverging
tests.  This module turns those artifacts into an :class:`Evidence`
bundle and a set of derivation rules, so parameterized edit families can
compute their parameter in one shot (``synthesize``) and fall back to
the existing enumeration only when the evidence is silent.

Determinism: everything here is a pure function of the evidence and the
candidate program — no randomness, no wall-clock.  Synthesis changes
*which* candidates the search proposes, never how a given candidate is
evaluated, so derived candidates flow through the evaluation cache and
persistent store with unchanged keying.  With synthesis disabled
(``REPRO_SYNTH`` unset/0, the default) no code path in this module runs
and the search is bit-identical to the pre-synthesis implementation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..cfront import nodes as N
from ..cfront import typesys as T
from ..cfront.visitor import find_all
from ..difftest.harness import Counterexample
from ..interp.coverage import ValueProfile

#: Environment flag enabling synthesis-first proposal (default off: the
#: flag is deliberately NOT part of the evaluation-cache context token —
#: it changes proposal order, not evaluation outcomes).
SYNTH_ENV = "REPRO_SYNTH"

#: Extra headroom over the observed requirement, mirroring the bitwidth
#: planner's ``MARGIN_BITS`` concession to profile incompleteness.
SAFETY_MARGIN = 1


def synthesis_default() -> bool:
    """Default for ``SearchConfig.use_synthesis`` (env ``REPRO_SYNTH``)."""
    value = os.environ.get(SYNTH_ENV, "").strip().lower()
    return value not in ("", "0", "false", "off", "no")


@dataclass(frozen=True)
class Evidence:
    """Everything the pipeline observed that a derivation may consult.

    Collected once per evaluated candidate by the search loop; edits see
    it through their ``synthesize`` hook.  All fields are optional-ish:
    a missing profile or an empty counterexample list simply means the
    corresponding derivations decline (return None) and the edit falls
    back to enumeration.
    """

    kernel_name: str = ""
    profile: Optional[ValueProfile] = None
    """Merged value/call-depth profile gathered on the *original* unit,
    looked up by declaration uid (uids survive into clones)."""
    counterexamples: Tuple[Counterexample, ...] = ()
    """Concrete diverging inputs from the candidate's last differential
    test, with expected/actual observables."""


# --------------------------------------------------------------------------
# Derivation rules (one per parameterized edit family)
# --------------------------------------------------------------------------


def derive_stack_capacity(evidence: Evidence, func_name: str) -> Optional[int]:
    """Stack capacity for a ``stack_trans``-converted function.

    The state machine's worst-case ``sp`` equals the deepest simultaneous
    activation of the original recursive function (each live invocation
    holds at most one resume frame on the explicit stack, plus the child
    frame counted by the next level).  The profile records exactly that
    depth; add :data:`SAFETY_MARGIN` for inputs the profile missed.
    """
    if evidence.profile is None:
        return None
    depth = evidence.profile.call_depth(func_name)
    if depth <= 0:
        return None
    return depth + SAFETY_MARGIN


def derive_array_extent(evidence: Evidence, size_expr: Optional[N.Expr]) -> Optional[int]:
    """Static extent for a VLA whose size expression is a plain variable.

    Conservative: only derives when the size is a single identifier with
    a profiled range; the extent is the maximum observed value rounded
    up to a power of two (type-based over-estimation, §6.5, but anchored
    in evidence instead of a fixed 1024).
    """
    if evidence.profile is None or not isinstance(size_expr, N.Ident):
        return None
    observed = max_observed_by_name(evidence.profile, size_expr.name)
    if observed is None or observed <= 0:
        return None
    return _next_pow2(int(observed))


def derive_bitwidth(rng, current_bits: int) -> Optional[int]:
    """Width for a finitized integer whose profiled range needs more.

    Mirrors the planner's formula (``bits_needed`` + one margin bit) so
    a derived widen lands exactly where repeated doubling would have
    stopped searching.  None when the profile says the current width
    already suffices — counterexample-driven divergence then falls back
    to the enumerated ladder, which the truncated-profile ablation
    relies on.
    """
    if rng is None or rng.samples == 0 or not rng.is_integer:
        return None
    needed = T.bits_needed(rng.max_abs, rng.needs_sign)
    if needed <= current_bits:
        # The declared width already covers everything observed; the
        # margin is headroom on a *derived* width, not a reason to widen
        # an adequate one.
        return None
    return min(32, needed + SAFETY_MARGIN)


def derive_partition_factor(size: int, factors: Sequence[int]) -> Optional[int]:
    """Largest offered factor that divides the array size evenly."""
    best = None
    for factor in factors:
        if size % factor == 0:
            best = factor if best is None else max(best, factor)
    return best


def derive_pipeline_ii() -> int:
    """Initiation interval for a derived pipeline pragma.

    Under the scheduler's latency model (``body + (N-1)·II`` with no
    inter-iteration dependence modelling) II=1 always dominates II=2, so
    there is nothing to sweep.
    """
    return 1


def unroll_profitable(body: N.Stmt, partitions) -> bool:
    """Proxy for the scheduler's ``_memory_parallelism``: unrolling by F
    only helps when memory ports can feed F concurrent iterations —
    trivially true for pure-compute bodies, otherwise requires every
    indexed array to be partitioned widely enough.  *partitions* maps
    array name → partition factor (1 when unpartitioned)."""
    indexed = {
        idx.base.name
        for idx in find_all(body, N.Index)
        if isinstance(idx.base, N.Ident)
    }
    if not indexed:
        return True
    return all(partitions.get(name, 1) > 1 for name in indexed)


def reachable_functions(unit: N.TranslationUnit, root: str) -> Optional[set]:
    """Function names reachable from *root* through direct calls.

    Pipeline pragmas on loops outside this set (host-side test drivers)
    cannot change the kernel's modelled latency, so derivation skips
    them.  None when *root* is not defined in the unit — the caller then
    has no basis for filtering and should keep every loop.
    """
    bodies = {
        f.name: f.body for f in unit.functions() if f.body is not None
    }
    if root not in bodies:
        return None
    seen = {root}
    frontier = [root]
    while frontier:
        name = frontier.pop()
        for call in find_all(bodies[name], N.Call):
            callee = call.callee_name
            if callee in bodies and callee not in seen:
                seen.add(callee)
                frontier.append(callee)
    return seen


def estimated_trips(profile: Optional[ValueProfile], loop: N.Stmt) -> Optional[int]:
    """Trip-count estimate for *loop* from its condition's evidence.

    The largest observed value of any identifier in the condition (or a
    literal bound, whichever is larger) approximates how many iterations
    ran; a pipeline's modelled payoff ``(N-1)·(body-1)`` scales with it.
    None when the condition mentions nothing the profile observed.
    """
    cond = getattr(loop, "cond", None)
    if cond is None:
        return None
    best: Optional[float] = None
    for node in cond.walk():
        if isinstance(node, N.Ident) and profile is not None:
            observed = max_observed_by_name(profile, node.name)
            if observed is not None:
                best = observed if best is None else max(best, observed)
        elif isinstance(node, N.IntLit):
            value = float(node.value)
            best = value if best is None else max(best, value)
    return None if best is None else max(0, int(best))


def max_observed_by_name(profile: ValueProfile, name: str) -> Optional[float]:
    """Maximum value any variable called *name* held — conservative over
    shadowing declarations (the union can only over-provision)."""
    best: Optional[float] = None
    for rng in profile.ranges.values():
        if rng.name == name and rng.samples:
            best = rng.max_value if best is None else max(best, rng.max_value)
    return best


def current_capacity(unit: N.TranslationUnit, prefix: str) -> Optional[int]:
    """Value of the ``<prefix>_cap`` capacity variable, if present."""
    for decl in find_all(unit, N.VarDecl):
        if decl.name == f"{prefix}_cap" and isinstance(decl.init, N.IntLit):
            return decl.init.value
    return None


def _next_pow2(value: int) -> int:
    power = 1
    while power < value:
        power *= 2
    return power
