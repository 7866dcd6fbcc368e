"""The engines the interpreter equivalence tests compare.

``tree`` (the oracle) and ``batch`` (the default) are product backends.
``compiled`` names the closure compiler of :mod:`repro.interp.compile`,
which batch splices in wherever its code generator declines a node and
which builds every unit's global initializers.  No product backend lowers
a whole function to closures, so these tests reach all of it by lowering
every function with :meth:`_FunctionCompiler.compile_function` instead of
the code generator, inside an otherwise ordinary :class:`BatchEngine`.
"""

from __future__ import annotations

from typing import Any, List
from unittest import mock

from repro.cfront import nodes as N
from repro.interp import BatchEngine, make_engine
from repro.interp.batch import BatchProgram, _BatchCompiler
from repro.interp.compile import _FunctionCompiler

#: Every engine an equivalence test should agree across.
ENGINES = ("tree", "compiled", "batch")


def closure_lowering():
    """While active, batch lowers every function to closures instead of
    generated code (units already lowered keep their program)."""
    return mock.patch.object(
        _BatchCompiler, "gen_function", _FunctionCompiler.compile_function
    )


def closure_program(unit: N.TranslationUnit) -> BatchProgram:
    """*unit* with every function lowered to closures, not generated code."""
    with closure_lowering():
        return BatchProgram(unit)


def engine_for(unit: N.TranslationUnit, backend: str, **kwargs: Any):
    """``make_engine``, plus ``"compiled"`` for the closure compiler."""
    if backend != "compiled":
        return make_engine(unit, backend=backend, **kwargs)
    engine = BatchEngine(unit, **kwargs)
    engine.program = closure_program(unit)
    return engine


def run_on(
    unit: N.TranslationUnit, func: str, args: List[Any], backend: str,
    **kwargs: Any,
):
    """``run_program`` over :func:`engine_for`."""
    return engine_for(unit, backend, **kwargs).run(func, args)
