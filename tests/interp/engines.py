"""The engines the interpreter equivalence tests compare.

``tree`` is the oracle.  The other two run batch's generated code:
``compiled`` is :meth:`BatchEngine.run` on a fresh engine, one input
through a one-input ``run_many``; ``batch`` runs each input as the
second of a two-input pooled ``run_many`` whose first input is the same
arguments, so the answer comes from a runtime that has already executed
once (a faulting input's error record is re-raised, so both agree with
``run`` on what a caller sees).
"""

from __future__ import annotations

import copy
from typing import Any, List

from repro.cfront import nodes as N
from repro.interp import BatchEngine, ExecResult, make_engine

#: Every engine an equivalence test should agree across.
ENGINES = ("tree", "compiled", "batch")


class _WarmPoolEngine(BatchEngine):
    """``run`` served by the second record of a pooled ``run_many``."""

    def run(self, func_name: str, args: List[Any]) -> ExecResult:
        _, record = self.run_many(func_name, [copy.deepcopy(args), args])
        if record.error is not None:
            raise record.error
        return record.result


def engine_for(unit: N.TranslationUnit, backend: str, **kwargs: Any):
    """``make_engine``, with ``compiled`` and ``batch`` as described above."""
    if backend == "compiled":
        return BatchEngine(unit, **kwargs)
    if backend == "batch":
        return _WarmPoolEngine(unit, **kwargs)
    return make_engine(unit, backend=backend, **kwargs)


def run_on(
    unit: N.TranslationUnit, func: str, args: List[Any], backend: str,
    **kwargs: Any,
):
    """``run_program`` over :func:`engine_for`."""
    return engine_for(unit, backend, **kwargs).run(func, args)
