"""Bitwidth estimation and initial HLS version generation (§4).

HeteroGen profiles the kernel under the generated tests, records the
maximum value each intermediate variable held, and rewrites integer
declarations to the narrowest ``fpga_int``/``fpga_uint`` that fits — the
paper's ``ret`` max=83 → ``fpga_uint<7>`` example.  The resulting program
is ``P_broken``: behaviourally faithful on the profiled inputs but still
full of HLS compatibility errors for the repair loop to fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..cfront import nodes as N
from ..cfront import typesys as T
from ..cfront.nodes import clone
from ..cfront.visitor import find_all
from ..interp import ExecLimits, ValueProfile, engine_run_many, make_engine

#: Do not narrow below this width: tiny registers save nothing and the
#: type-based over-estimation (§6.5) keeps headroom for unseen inputs.
MIN_BITS = 2

#: Safety margin: one extra bit over the profiled requirement, the
#: reproduction's concession to profile incompleteness.
MARGIN_BITS = 1


@dataclass
class BitwidthPlan:
    """Chosen HLS integer types, keyed by declaring node uid."""

    types: Dict[int, T.FpgaIntType] = field(default_factory=dict)
    names: Dict[int, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.types)


def profile_kernel(
    unit: N.TranslationUnit,
    kernel_name: str,
    tests: Sequence[List[Any]],
    limits: Optional[ExecLimits] = None,
) -> ValueProfile:
    """Run the kernel over all tests and merge the value profiles."""
    interp = make_engine(
        unit, limits=limits or ExecLimits(), want_out_args=False
    )
    merged = ValueProfile()
    # One batched call over the whole suite; faulting inputs contribute
    # nothing, exactly as the sequential loop skipped them.
    for record in engine_run_many(interp, kernel_name, tests):
        if record.result is not None:
            merged.merge(record.result.profile)
    return merged


def plan_bitwidths(
    unit: N.TranslationUnit,
    profile: ValueProfile,
) -> BitwidthPlan:
    """Choose a finitized type for every profiled integer local."""
    plan = BitwidthPlan()
    for decl_stmt in find_all(unit, N.DeclStmt):
        decl = decl_stmt.decl
        resolved = T.strip_typedefs(decl.type)
        if not isinstance(resolved, T.IntType):
            continue
        rng = profile.range_for(decl.uid)
        if rng is None or rng.samples == 0 or not rng.is_integer:
            continue
        signed = rng.needs_sign
        bits = T.bits_needed(rng.max_abs, signed) + MARGIN_BITS
        bits = max(MIN_BITS, min(bits, resolved.bits))
        if bits >= resolved.bits:
            continue  # no saving: keep the native type
        plan.types[decl.uid] = T.FpgaIntType(bits, signed=signed)
        plan.names[decl.uid] = decl.name
    return plan


def apply_bitwidths(unit: N.TranslationUnit, plan: BitwidthPlan) -> N.TranslationUnit:
    """Clone *unit* and rewrite the planned declarations (uids preserved)."""
    new_unit = clone(unit)
    assert isinstance(new_unit, N.TranslationUnit)
    for decl_stmt in find_all(new_unit, N.DeclStmt):
        chosen = plan.types.get(decl_stmt.decl.uid)
        if chosen is not None:
            decl_stmt.decl.type = chosen
    return new_unit


def generate_initial_version(
    unit: N.TranslationUnit,
    kernel_name: str,
    tests: Sequence[List[Any]],
    limits: Optional[ExecLimits] = None,
) -> tuple:
    """Profile, plan and rewrite: returns ``(P_broken, plan, profile)``."""
    profile = profile_kernel(unit, kernel_name, tests, limits=limits)
    plan = plan_bitwidths(unit, profile)
    return apply_bitwidths(unit, plan), plan, profile
