"""C interpreter substrate: execution, coverage, value profiling.

Replaces native compilation + AFL instrumentation in the original paper's
toolchain (see DESIGN.md).  Two engines share one semantics: the
tree-walking :class:`Interpreter` is the oracle, and the default
:class:`BatchEngine` (see ``repro.interp.batch``) lowers each function,
and a unit's global initializers, to flat generated Python and adds
``run_many`` — whole input sets through one pooled pass.
:class:`BatchCrossCheckEngine` (backend ``batch-cross``) runs both
engines on every input and asserts they stay bit-identical.
"""

from .coverage import (
    CoverageRecorder,
    ValueProfile,
    branch_points,
    branch_universe,
)
from .interpreter import ExecLimits, ExecResult, Interpreter, run_program
from .batch import (
    BACKENDS,
    BackendMismatch,
    BatchCrossCheckEngine,
    BatchEngine,
    BatchRecord,
    batch_program,
    default_backend,
    engine_run_many,
    make_engine,
    set_default_backend,
)
from .memory import (
    MemBlock,
    Pointer,
    StreamValue,
    StructValue,
    c_to_python,
    python_to_c,
)

__all__ = [
    "BACKENDS",
    "BackendMismatch",
    "BatchCrossCheckEngine",
    "BatchEngine",
    "BatchRecord",
    "CoverageRecorder",
    "ExecLimits",
    "ExecResult",
    "Interpreter",
    "MemBlock",
    "Pointer",
    "StreamValue",
    "StructValue",
    "ValueProfile",
    "batch_program",
    "branch_points",
    "branch_universe",
    "c_to_python",
    "engine_run_many",
    "default_backend",
    "make_engine",
    "python_to_c",
    "run_program",
    "set_default_backend",
]
