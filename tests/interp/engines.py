"""The engines the interpreter equivalence tests compare.

``tree`` (the oracle) and ``batch`` (the default) are product backends.
``compiled`` names the expression closures of :mod:`repro.interp.compile`,
which batch splices in wherever its code generator declines an
expression and which build every unit's global initializers.  The
generator declines few expressions on its own, so these tests reach the
closures by making it decline all of them: statements are still
generated, and every expression inside them is served by
:meth:`_BatchCompiler._fallback_expr`, inside an otherwise ordinary
:class:`BatchEngine`.
"""

from __future__ import annotations

from typing import Any, List
from unittest import mock

from repro.cfront import nodes as N
from repro.interp import BatchEngine, make_engine
from repro.interp.batch import BatchProgram, _BatchCompiler, _GiveUp

#: Every engine an equivalence test should agree across.
ENGINES = ("tree", "compiled", "batch")


def _decline(self: _BatchCompiler, expr: N.Expr):
    raise _GiveUp()


def _effect_by_value(self: _BatchCompiler, expr: N.Expr) -> List[str]:
    return self.gen_expr(expr)[0]


def closure_lowering():
    """While active, batch serves every expression by its closure
    (units already lowered keep their program).

    Expression statements that assign or increment generate their own
    stores unless they go through ``gen_expr`` too, so both entry points
    decline.
    """
    return mock.patch.multiple(
        _BatchCompiler, _gen_expr=_decline, _gen_expr_effect=_effect_by_value
    )


def closure_program(unit: N.TranslationUnit) -> BatchProgram:
    """*unit* lowered with every expression served by its closure."""
    with closure_lowering():
        return BatchProgram(unit)


def engine_for(unit: N.TranslationUnit, backend: str, **kwargs: Any):
    """``make_engine``, plus ``"compiled"`` for the expression closures."""
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
