"""Negative and over-wide shift counts fault instead of crashing.

C leaves ``x >> n`` undefined for ``n < 0`` or ``n`` at least the operand
width.  Every engine routes shifts through :func:`repro.interp.memory.c_shift`,
which raises :class:`InterpError` for such a count, so a fuzzed input that
reaches one is an outcome like a division by zero.  The fixed-point
kernels of the generated corpus shift by a fuzzed argument and used to
abort the whole pipeline with Python's ``ValueError``.
"""

from __future__ import annotations

import pytest

from repro.core.heterogen import HeteroGen, HeteroGenConfig
from repro.core.search import SearchConfig
from repro.errors import InterpError
from repro.fuzz import FuzzConfig
from repro.interp import ExecLimits
from repro.interp.memory import MAX_SHIFT_COUNT, c_shift
from repro.cfront.parser import parse
from repro.subjects import generated_subjects

from .engines import ENGINES, engine_for

LIMITS = ExecLimits(max_steps=500_000, max_depth=256)
FIXED = ("fixed_s7", "fixed_u5", "fixed_s13")
CORPUS = {g.name: g for g in generated_subjects()}


def outcome(engine, kernel, args):
    try:
        result = engine.run(kernel, list(args))
    except InterpError as exc:
        return ("fault", type(exc).__name__, str(exc), engine.steps)
    return ("ok", result.value, result.steps)


def test_c_shift_bounds():
    assert c_shift("<<", 3, 2) == 12
    assert c_shift(">>", -8, 1) == -4
    assert c_shift(">>", 5, MAX_SHIFT_COUNT - 1) == 0
    with pytest.raises(InterpError, match="negative shift count"):
        c_shift(">>", 1, -1)
    with pytest.raises(InterpError, match="not below"):
        c_shift("<<", 1, MAX_SHIFT_COUNT)


@pytest.mark.parametrize("count", [-1, -40, MAX_SHIFT_COUNT, 2**31 - 1])
def test_engines_fault_identically(count):
    gs = CORPUS["fixed_s7"]
    unit = gs.parse()
    args = [list(range(1, 9)), count]
    surfaces = {
        backend: outcome(
            engine_for(unit, backend, limits=LIMITS), gs.kernel, args
        )
        for backend in ENGINES
    }
    assert surfaces["tree"][0] == "fault", surfaces
    assert surfaces["tree"] == surfaces["compiled"] == surfaces["batch"]


@pytest.mark.parametrize("op", ["<<", ">>", "<<=", ">>="])
def test_literal_and_compound_shifts_fault(op):
    # A literal count takes the constant-folding path in the compiled
    # engines; folding must leave it to fault at run time.
    if op.endswith("="):
        body = f"int v = x; v {op} -2; return v;"
    else:
        body = f"return x {op} -2;"
    unit = parse(f"int k(int x) {{ {body} }}", top_name="k")
    surfaces = {
        backend: outcome(
            engine_for(unit, backend, limits=LIMITS), "k", [5]
        )
        for backend in ENGINES
    }
    assert surfaces["tree"][:3] == ("fault", "InterpError", "negative shift count")
    assert surfaces["tree"] == surfaces["compiled"] == surfaces["batch"]


@pytest.mark.parametrize("name", FIXED)
def test_fixed_point_kernels_transpile(name):
    gs = CORPUS[name]
    config = HeteroGenConfig(
        fuzz=FuzzConfig(max_execs=200, seed=2022),
        search=SearchConfig(max_iterations=20, seed=2022),
    )
    result = HeteroGen(config).transpile(
        gs.source, gs.kernel, tests=[list(t) for t in gs.tests]
    )
    assert result.final_unit is not None
