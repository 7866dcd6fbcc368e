"""Batched execution backend: whole input sets through one specialized pass.

This is the default engine.  It lowers each function once — into a
single flat Python function generated as source and ``exec``-compiled —
so that the hot path of a kernel is ordinary Python bytecode:
local-variable step accounting, inline arithmetic with the exact
charge/fault schedule of the tree-walker, and direct frame indexing,
with names resolved to frame slots at compile time.  A unit's global
initializers are one more generated function.  On top of that sits
:class:`BatchEngine` with ``run_many(func_name, arg_sets)``: the unit is
compiled once, one :class:`Runtime` is pooled across the whole batch
(coverage and profile recorders are handed off per input, arenas reset
instead of reallocate, the global frame is snapshot/replayed when
provably safe), and each input is fault-isolated so a faulting sibling
never poisons the rest.

Charge semantics are bit-identical per input to the tree-walker
(:mod:`.interpreter` is the specification of every charge, its order
relative to faults, and every fault's type and text):

* every inline charge site replicates the tree-walker's cost and its
  *order* relative to faults (divide-by-zero after the charge, pointer
  checks before the memory charge, the heap charge before an array's
  cells, …);
* step counting runs in a local variable and is reconciled with
  ``rt.steps`` around every call that leaves generated code (``_call``,
  builtins, the generic operator helpers) and in a ``finally`` guard,
  so budget overruns raise at exactly the same step as the tree-walker;
* ``break``/``continue`` become ``_Break``/``_Continue`` exceptions raised
  at the charge site and caught by the innermost generated loop — the
  tree-walker's nearest-loop (and cross-frame, via ``_call``) semantics.

Candidates of one repair search differ by one edit, so most functions
generate source seen before.  The compiled code objects are memoized by
function name and source digest; each program still ``exec``s a shared
code object into its own constant pool, so identical source gives an
identical function bound to that program's objects.

:class:`BatchCrossCheckEngine` (backend ``batch-cross``) runs the
tree-walker and the batch engine on every input and asserts bit-identical
results.  The backend registry (:data:`BACKENDS`, :func:`make_engine`)
lives here too.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct as _struct
import threading
from collections import OrderedDict
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..errors import (
    HlsSimulationFault,
    InterpError,
    InterpLimitExceeded,
    MemoryFault,
)
from ..cfront import nodes as N
from ..cfront import typesys as T
from ..memo import AnalysisCache
from .builtins import BUILTINS, RawAlloc
from .coverage import CoverageRecorder, ValueProfile
from .interpreter import (
    _COST_DIV,
    _COST_FLOAT_OP,
    _COST_INT_OP,
    ExecLimits,
    ExecResult,
    Interpreter,
    _Break,
    _Continue,
)
from .memory import (
    MemBlock,
    NULL,
    Pointer,
    StreamValue,
    StructValue,
    _quantize_float,
    c_shift,
    c_to_python,
    coerce,
    default_value,
    python_to_c,
)

__all__ = [
    "BACKENDS",
    "BackendMismatch",
    "BatchEngine",
    "BatchCrossCheckEngine",
    "BatchRecord",
    "BatchProgram",
    "batch_program",
    "default_backend",
    "engine_run_many",
    "make_engine",
    "set_default_backend",
]

#: Code objects of generated functions, keyed by ``(filename, digest of
#: the source)``.  The digest keeps the source text itself out of memory;
#: the cap bounds the code objects (~20 KB each for a subject's kernel)
#: a long search keeps, while still holding every function a repair
#: search's recent candidates share.
_CODE_MEMO = AnalysisCache("batch.code", max_entries=256)

#: Returned by a function body that executed a ``return`` (the value is
#: in ``Runtime.retval``); a body that runs off its end returns None.
_RET = object()

#: Frame sentinel for a slot whose declaration has not executed yet.
_UNSET = object()

_NO_FRAME: List[Any] = []


# --------------------------------------------------------------------------
# Runtime state and the helpers generated code calls
# --------------------------------------------------------------------------


class Runtime:
    """Per-run mutable state shared by all generated functions."""

    __slots__ = (
        "steps", "max_steps", "heap_cells", "max_heap", "depth", "max_depth",
        "coverage", "cov_add", "profile", "observe", "active", "gframe",
        "statics", "captured", "capture_name", "retval", "structs",
    )

    def __init__(
        self,
        limits: ExecLimits,
        structs: Dict[str, T.StructType],
        capture_name: str,
    ) -> None:
        self.steps = 0
        self.max_steps = limits.max_steps
        self.heap_cells = 0
        self.max_heap = limits.max_heap_cells
        self.depth = 0
        self.max_depth = limits.max_depth
        self.coverage = CoverageRecorder()
        self.cov_add = self.coverage.hits.add
        self.profile = ValueProfile()
        self.observe = self.profile.observe
        self.active: Dict[str, int] = {}
        self.gframe: List[MemBlock] = []
        self.statics: Dict[int, MemBlock] = {}
        self.captured: List[List[Any]] = []
        self.capture_name = capture_name
        self.retval: Any = None
        self.structs = structs


def _over_steps(rt: Runtime) -> None:
    raise InterpLimitExceeded(f"step budget of {rt.max_steps} exceeded")


def _over_b(rt: Runtime, steps: int) -> None:
    """Reconcile a local step counter, then raise the budget fault."""
    rt.steps = steps
    _over_steps(rt)


def _charge_heap(rt: Runtime, cells: int) -> None:
    rt.heap_cells += cells
    if rt.heap_cells > rt.max_heap:
        raise InterpLimitExceeded("heap budget exceeded")


def _fresh_cells(elem: T.CType, structs: Dict[str, T.StructType],
                 count: int) -> List[Any]:
    """*count* independently default-initialized cells of type *elem*."""
    return [default_value(elem, structs) for _ in range(count)]


#: The binary operators the generator inlines; any other operator goes
#: through :func:`_apply_binop`, which charges and then rejects it.
_ARITH_OPS = frozenset((
    "+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=",
    "<<", ">>", "&", "|", "^",
))


def _apply_binop(rt: Runtime, op: str, left: Any, right: Any) -> Any:
    """Interpreter._apply_binop where it is not inlined: unknown operators
    and the offset comparison of two pointers."""
    if type(left) is Pointer or type(right) is Pointer:
        return _pointer_binop(rt, op, left, right)
    is_float = type(left) is float or type(right) is float
    rt.steps += 8 if op in ("/", "%") else 4 if is_float else 1
    if rt.steps > rt.max_steps:
        _over_steps(rt)
    if op not in _ARITH_OPS:
        raise InterpError(f"unknown binary operator {op!r}")
    if op in ("/", "%") and right == 0:
        raise MemoryFault("division by zero" if op == "/" else "modulo by zero")
    return _fold_binop(op, left, right)


def _pointer_binop(rt: Runtime, op: str, left: Any, right: Any) -> Any:
    rt.steps += 1
    if rt.steps > rt.max_steps:
        _over_steps(rt)
    lp = type(left) is Pointer
    rp = type(right) is Pointer
    if op == "+" and lp:
        return left.add(int(right))
    if op == "+" and rp:
        return right.add(int(left))
    if op == "-" and lp and rp:
        if left.block is not right.block:
            raise MemoryFault("subtraction of pointers into different blocks")
        return left.offset - right.offset
    if op == "-" and lp:
        return left.add(-int(right))
    if op in ("==", "!="):
        same = (
            lp and rp
            and left.block is right.block
            and left.offset == right.offset
        )
        if lp and not rp:
            same = left.block is None and right == 0
        if rp and not lp:
            same = right.block is None and left == 0
        return int(same if op == "==" else not same)
    if op in ("<", "<=", ">", ">="):
        if not (lp and rp):
            raise MemoryFault("ordered comparison of pointer and integer")
        if left.block is not right.block:
            raise MemoryFault("ordered comparison across blocks")
        return _apply_binop(rt, op, left.offset, right.offset)
    raise MemoryFault(f"invalid pointer operation {op!r}")


# --------------------------------------------------------------------------
# Coercion — generic runtime form (for lvalues whose type is only known at
# run time) and a compile-time specializer for statically known types.
# --------------------------------------------------------------------------


def _coerce_value(rt: Runtime, value: Any, ctype: T.CType) -> Any:
    """Mirror of Interpreter._coerce for runtime-typed stores."""
    resolved = T.strip_typedefs(ctype)
    if isinstance(value, RawAlloc) and isinstance(resolved, T.PointerType):
        pointee = T.strip_typedefs(resolved.pointee)
        elem_size = max(1, pointee.sizeof())
        count = max(1, value.size // elem_size)
        _charge_heap(rt, count)
        block = MemBlock(
            resolved.pointee,
            _fresh_cells(resolved.pointee, rt.structs, count),
            label="heap",
        )
        return Pointer(block, 0)
    if isinstance(resolved, T.StructType) and isinstance(value, StructValue):
        return value
    return coerce(value, ctype)


def _make_coercer(ctype: T.CType) -> Callable[[Runtime, Any], Any]:
    """A coercion function specialized to *ctype*."""
    resolved = T.strip_typedefs(ctype)
    if isinstance(resolved, T.IntType):
        bits, signed = resolved.bits, resolved.signed
        mask = (1 << bits) - 1
        half = 1 << (bits - 1)
        full = 1 << bits

        def co_int(rt, value):
            if isinstance(value, Pointer):
                return value
            v = int(value)
            v &= mask
            if signed and v >= half:
                v -= full
            return v

        return co_int
    if isinstance(resolved, T.FpgaIntType):
        bits, signed = resolved.bits, resolved.signed
        mask = (1 << bits) - 1
        half = 1 << (bits - 1)
        full = 1 << bits

        def co_fpga(rt, value):
            v = int(value)
            v &= mask
            if signed and v >= half:
                v -= full
            return v

        return co_fpga
    if isinstance(resolved, T.FloatType):
        if resolved.bits == 32:
            pack, unpack = _struct.pack, _struct.unpack

            def co_f32(rt, value):
                return unpack("f", pack("f", float(value)))[0]

            return co_f32

        def co_float(rt, value):
            return float(value)

        return co_float
    if isinstance(resolved, T.FpgaFloatType):
        mant = resolved.mant_bits

        def co_ffloat(rt, value):
            return _quantize_float(float(value), mant)

        return co_ffloat
    if isinstance(resolved, (T.PointerType, T.ReferenceType)):
        if isinstance(resolved, T.PointerType):
            pointee = resolved.pointee
            elem_size = max(1, T.strip_typedefs(pointee).sizeof())

            def co_ptr(rt, value):
                if isinstance(value, RawAlloc):
                    count = max(1, value.size // elem_size)
                    _charge_heap(rt, count)
                    block = MemBlock(
                        pointee,
                        _fresh_cells(pointee, rt.structs, count),
                        label="heap",
                    )
                    return Pointer(block, 0)
                if isinstance(value, int) and value == 0:
                    return NULL
                return value

            return co_ptr

        def co_ref(rt, value):
            if isinstance(value, int) and value == 0:
                return NULL
            return value

        return co_ref
    if isinstance(resolved, T.StructType):

        def co_struct(rt, value):
            # StructValue passthrough; everything else also passes through
            # memory.coerce's aggregate branch unchanged.
            return value

        return co_struct

    def co_other(rt, value):
        return coerce(value, ctype)

    return co_other


# --------------------------------------------------------------------------
# Compile-time constant folding of pure-literal subtrees.
# --------------------------------------------------------------------------


def _fold_binop(op: str, left: Any, right: Any) -> Any:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if isinstance(left, float) or isinstance(right, float):
            return left / right
        quotient = abs(left) // abs(right)
        return quotient if (left < 0) == (right < 0) else -quotient
    if op == "%":
        if isinstance(left, float) or isinstance(right, float):
            return math.fmod(left, right)
        magnitude = abs(left) % abs(right)
        return magnitude if left >= 0 else -magnitude
    if op == "<":
        return int(left < right)
    if op == "<=":
        return int(left <= right)
    if op == ">":
        return int(left > right)
    if op == ">=":
        return int(left >= right)
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op in ("<<", ">>"):
        return c_shift(op, int(left), int(right))
    if op == "&":
        return int(left) & int(right)
    if op == "|":
        return int(left) | int(right)
    if op == "^":
        return int(left) ^ int(right)
    raise ValueError(op)


#: What evaluating a literal subtree may raise; such a subtree is left to
#: raise at run time instead.
_FOLD_ERRORS = (ArithmeticError, TypeError, ValueError, InterpError)


def _try_fold(expr: N.Expr) -> Optional[Tuple[Any, int]]:
    """Return ``(value, step_cost)`` if *expr* is a pure literal subtree.

    The cost accumulates exactly the charges the tree-walker would make,
    so the folded site can charge it in one shot (the intermediate
    budget-crossing point is unobservable: a run that blows the budget is
    discarded with an identical error either way).  Division by a literal
    zero is *not* folded — it must raise a fresh MemoryFault per execution.
    """
    if isinstance(expr, (N.IntLit, N.CharLit)):
        return (expr.value, 0)
    if isinstance(expr, N.FloatLit):
        return (expr.value, 0)
    if isinstance(expr, N.UnOp) and expr.op in ("-", "+", "!", "~"):
        sub = _try_fold(expr.operand)
        if sub is None:
            return None
        value, cost = sub
        try:
            if expr.op == "-":
                value = -value
            elif expr.op == "!":
                value = int(not bool(value))
            elif expr.op == "~":
                value = ~int(value)
        except _FOLD_ERRORS:
            return None
        return (value, cost + _COST_INT_OP)
    if isinstance(expr, N.BinOp) and expr.op not in ("&&", "||", ","):
        left = _try_fold(expr.left)
        right = _try_fold(expr.right)
        if left is None or right is None:
            return None
        lv, lc = left
        rv, rc = right
        if expr.op in ("/", "%") and rv == 0:
            return None
        is_float = isinstance(lv, float) or isinstance(rv, float)
        op_cost = (
            _COST_DIV if expr.op in ("/", "%")
            else _COST_FLOAT_OP if is_float else _COST_INT_OP
        )
        try:
            value = _fold_binop(expr.op, lv, rv)
        except _FOLD_ERRORS:
            return None
        return (value, lc + rc + op_cost)
    return None


# --------------------------------------------------------------------------
# Functions and the call protocol
# --------------------------------------------------------------------------


class _Binding:
    """A name resolved at compile time."""

    __slots__ = ("kind", "slot", "is_array", "observe_uid", "ctype",
                 "maybe_unset")

    def __init__(self, kind: str, slot: int, is_array: bool,
                 observe_uid: Optional[int], ctype: Optional[T.CType],
                 maybe_unset: bool) -> None:
        self.kind = kind  # "local" (frame slot) or "global" (gframe slot)
        self.slot = slot
        self.is_array = is_array
        self.observe_uid = observe_uid
        self.ctype = ctype  # the block's elem_type when statically known
        self.maybe_unset = maybe_unset


class CompiledFunction:
    """One lowered function; execution state lives in :class:`Runtime`."""

    __slots__ = ("name", "params", "binders", "n_slots", "body",
                 "ret_coercer", "this_slot")

    def __init__(self, func: N.FunctionDef) -> None:
        self.name = func.name
        self.params = func.params
        self.binders: List[Callable[[Runtime, Any], MemBlock]] = []
        self.n_slots = 0
        self.body: Callable[[Runtime, List[Any]], Any] = None  # type: ignore
        self.ret_coercer = _make_coercer(func.return_type)
        self.this_slot = -1


def _call(rt: Runtime, cf: CompiledFunction, args: List[Any],
          this: Optional[StructValue]) -> Any:
    rt.depth += 1
    if rt.depth > rt.max_depth:
        rt.depth -= 1
        raise InterpLimitExceeded(
            f"recursion depth {rt.max_depth} exceeded in {cf.name!r}"
        )
    rt.steps += 5
    if rt.steps > rt.max_steps:
        _over_steps(rt)
    active = rt.active.get(cf.name, 0) + 1
    rt.active[cf.name] = active
    rt.profile.observe_call(cf.name, active)
    frame: List[Any] = [_UNSET] * cf.n_slots
    nargs = len(args)
    i = 0
    for binder in cf.binders:
        if i >= nargs:
            break
        frame[i] = binder(rt, args[i])
        i += 1
    if this is not None and cf.this_slot >= 0:
        frame[cf.this_slot] = MemBlock(
            T.PointerType(T.VOID), [this], label="this"
        )
    try:
        sig = cf.body(rt, frame)
    except (_Break, _Continue):
        # A stray break/continue escaping a callee re-enters the caller's
        # loop machinery, exactly like the tree-walker's exceptions do.
        rt.depth -= 1
        rt.active[cf.name] = active - 1
        raise
    rt.depth -= 1
    rt.active[cf.name] = active - 1
    if sig is _RET:
        value = rt.retval
        rt.retval = None
        return cf.ret_coercer(rt, value) if value is not None else None
    return None


def _no_globals(rt: Runtime, frame: List[Any]) -> None:
    """The global initializer of a unit that declares no globals."""


class _ConstPool:
    """Shared exec namespace: pooled objects plus the runtime helpers."""

    def __init__(self) -> None:
        self.ns: Dict[str, Any] = {
            "_call": _call,
            "_over_b": _over_b,
            "_over_steps": _over_steps,
            "_charge_heap": _charge_heap,
            "_fresh_cells": _fresh_cells,
            "_apply_binop": _apply_binop,
            "_pointer_binop": _pointer_binop,
            "_coerce_value": _coerce_value,
            "_snapshot_arg": Interpreter._snapshot_arg,
            "c_shift": c_shift,
            "coerce": coerce,
            "default_value": default_value,
            "Pointer": Pointer,
            "MemBlock": MemBlock,
            "StreamValue": StreamValue,
            "StructValue": StructValue,
            "MemoryFault": MemoryFault,
            "InterpError": InterpError,
            "math": math,
            "_Break": _Break,
            "_Continue": _Continue,
            "_RET": _RET,
            "_UNSET": _UNSET,
            "_INT": T.INT,
        }
        self._n = 0

    def add(self, obj: Any) -> str:
        name = f"_g{self._n}"
        self._n += 1
        self.ns[name] = obj
        return name


def _blk(lines: List[str]) -> List[str]:
    """Indent a block one level (pass body for an ``if``/``try`` header)."""
    return ["    " + line for line in lines] if lines else ["    pass"]


#: Node types allowed in a global initializer for the snapshot/replay
#: fast path of ``run_many``.  Anything that can touch coverage, the
#: value profile, statics, or captured args (calls, assignments,
#: short-circuit / ternary branches) disqualifies the unit: those effects
#: would recur per input under full re-init but not under replay.
_POOLABLE_INIT_NODES = (
    N.IntLit, N.FloatLit, N.CharLit, N.StringLit, N.Ident, N.UnOp,
    N.BinOp, N.Index, N.SizeofType, N.SizeofExpr, N.Cast, N.InitList,
)


def _poolable_init_expr(expr: Optional[N.Expr]) -> bool:
    if expr is None:
        return True
    if not isinstance(expr, _POOLABLE_INIT_NODES):
        return False
    if isinstance(expr, N.BinOp) and expr.op in ("&&", "||"):
        return False
    return all(
        _poolable_init_expr(child)
        for child in expr.children()
        if isinstance(child, N.Expr)
    )


def _poolable_globals(unit: N.TranslationUnit) -> bool:
    """May ``run_many`` restore the global frame by value between inputs?

    True only when re-running every global initializer is observably
    equivalent to replaying its step/heap charges and restoring the cell
    values — i.e. no initializer can branch (coverage), call (statics,
    capture, profile, arbitrary effects), or assign (profile).
    """
    for decl in unit.decls:
        if isinstance(decl, N.VarDecl):
            if not _poolable_init_expr(decl.init):
                return False
            if decl.vla_size is not None:
                return False
    return True


# --------------------------------------------------------------------------
# Source generation
# --------------------------------------------------------------------------


class _Lvalue(NamedTuple):
    """A generated lvalue: a ``(block, offset)`` cell or a struct field.

    For a cell, *base* and *where* are the block and offset atoms.  For a
    field (*field* is its name), *base* is the struct atom and *where*
    the pooled ``tag -> field type`` table.
    """

    lines: List[str]
    base: str
    where: str
    field: Optional[str] = None


class _BatchCompiler:
    """Generates one flat Python function per C function.

    Local names resolve at compile time to slots of a flat per-call frame
    list through a stack of lexical scopes; *program* is the
    :class:`BatchProgram` whose functions, methods, structs and global
    bindings the generated code refers to.  Every expression yields
    statement lines plus a pure result atom, every lvalue an
    :class:`_Lvalue`.
    """

    def __init__(self, program: "BatchProgram", pool: _ConstPool) -> None:
        self.program = program
        self.pool = pool
        self.scopes: List[Dict[str, _Binding]] = []
        self.scope_resets: List[List[int]] = []
        self.n_slots = 0
        self._ntmp = 0
        self._field_tables: Dict[str, str] = {}

    # -- scopes and slots --------------------------------------------------

    def _new_slot(self) -> int:
        slot = self.n_slots
        self.n_slots += 1
        return slot

    def _push_scope(self) -> None:
        self.scopes.append({})
        self.scope_resets.append([])

    def _pop_scope(self) -> List[int]:
        self.scopes.pop()
        return self.scope_resets.pop()

    def _declare(self, decl: N.VarDecl, conditional: bool) -> _Binding:
        ctype = T.strip_typedefs(decl.type)
        is_array = isinstance(ctype, T.ArrayType)
        binding = _Binding(
            kind="local",
            slot=self._new_slot(),
            is_array=is_array,
            observe_uid=None if is_array else decl.uid,
            ctype=ctype.elem if is_array else decl.type,
            maybe_unset=conditional,
        )
        self.scopes[-1][decl.name] = binding
        if conditional:
            # The declaration may not have executed when the name is next
            # referenced (e.g. `if (c) int x = 1;`); the enclosing block
            # resets the slot on entry so stale blocks from a previous
            # entry never leak into the dynamic-scope lookup.
            self.scope_resets[-1].append(binding.slot)
        return binding

    def _declare_param(self, param: N.ParamDecl) -> _Binding:
        binding = _Binding(
            kind="local",
            slot=self._new_slot(),
            is_array=False,
            observe_uid=None,
            ctype=param.type,
            # zip-style binding: a call with too few arguments leaves the
            # trailing parameter slots unset, and references then resolve
            # outward like the tree-walker's missing scope entries.
            maybe_unset=True,
        )
        self.scopes[-1][param.name] = binding
        return binding

    def _make_accessor(
        self, name: str, line: int
    ) -> Tuple[Callable[[Runtime, List[Any]], MemBlock], Optional[_Binding]]:
        """Build a block accessor for *name*.

        Returns ``(accessor, binding)`` where *binding* is non-None only
        when the innermost resolution is statically certain, so callers
        can specialize on is_array / observe_uid / ctype.
        """
        chain = [
            scope[name] for scope in reversed(self.scopes) if name in scope
        ]
        gbind = self.program.global_bindings.get(name)
        if gbind is not None:
            gslot = gbind.slot

            def acc(rt, frame):
                return rt.gframe[gslot]

        else:
            message = f"undefined identifier {name!r} at line {line}"

            def acc(rt, frame):
                raise InterpError(message)

        static: Optional[_Binding] = gbind if not chain else None
        for binding in reversed(chain):
            prev = acc
            slot = binding.slot
            if binding.maybe_unset:

                def acc(rt, frame, _slot=slot, _prev=prev):
                    block = frame[_slot]
                    if block is _UNSET:
                        return _prev(rt, frame)
                    return block

            else:

                def acc(rt, frame, _slot=slot):
                    return frame[_slot]

        if chain and not chain[0].maybe_unset:
            static = chain[0]
        return acc, static

    def _make_param_binder(
        self, param: N.ParamDecl
    ) -> Callable[[Runtime, Any], MemBlock]:
        ptype = T.strip_typedefs(param.type)
        orig_type = param.type
        pname = param.name
        if isinstance(ptype, T.ArrayType):

            def bind_array(rt, arg):
                if isinstance(arg, MemBlock):
                    arg = Pointer(arg, 0)
                return MemBlock(orig_type, [arg], label=pname)

            return bind_array
        if isinstance(ptype, T.ReferenceType):

            def bind_ref(rt, arg):
                return MemBlock(orig_type, [arg], label=pname)

            return bind_ref
        co = _make_coercer(param.type)

        def bind(rt, arg):
            return MemBlock(orig_type, [co(rt, arg)], label=pname)

        return bind

    # -- small helpers -----------------------------------------------------

    def _tmp(self) -> str:
        name = f"t{self._ntmp}"
        self._ntmp += 1
        return name

    def _chg(self, cost: int) -> List[str]:
        return [
            f"steps += {cost}",
            "if steps > max_steps: _over_b(rt, steps)",
        ]

    def _chg_numeric(self, left: str, right: str) -> List[str]:
        """The float/int cost split of every non-division operator."""
        return [
            f"steps += 4 if (type({left}) is float or type({right}) is float) else 1",
            "if steps > max_steps: _over_b(rt, steps)",
        ]

    def _atom_const(self, value: Any) -> str:
        if type(value) is int:
            return repr(value)
        return self.pool.add(value)

    def _truth_of(self, atom: str) -> str:
        if not atom.isidentifier():
            # A folded literal (e.g. `1`, `-3`) — never a Pointer, and
            # `1.block` would not even parse.
            return f"bool({atom})"
        return (
            f"(({atom}.block is not None) "
            f"if type({atom}) is Pointer else bool({atom}))"
        )

    def _seq(self, exprs: Sequence[N.Expr]) -> Tuple[List[str], List[str]]:
        """Evaluate *exprs* left to right: their lines and result atoms."""
        lines: List[str] = []
        atoms: List[str] = []
        for expr in exprs:
            els, ea = self.gen_expr(expr)
            lines += els
            atoms.append(ea)
        return lines, atoms

    # -- expressions -------------------------------------------------------

    def gen_expr(self, expr: N.Expr) -> Tuple[List[str], str]:
        """Lower *expr* to statement lines plus a pure result atom.

        The atom is a temp name or literal: reading it is side-effect
        free and repeatable.
        """
        if isinstance(expr, (N.IntLit, N.FloatLit, N.CharLit, N.StringLit)):
            return [], self._atom_const(expr.value)
        if isinstance(expr, N.Ident):
            return self._gen_ident(expr)
        if isinstance(expr, N.BinOp):
            return self._gen_binop(expr)
        if isinstance(expr, N.UnOp):
            return self._gen_unop(expr)
        if isinstance(expr, N.IncDec):
            return self._gen_incdec(expr, want_result=True)
        if isinstance(expr, N.Assign):
            return self._gen_assign(expr, want_result=True)
        if isinstance(expr, N.Cond):
            return self._gen_cond(expr)
        if isinstance(expr, N.Call):
            return self._gen_call(expr)
        if isinstance(expr, N.Index):
            return self._gen_index_rvalue(expr)
        if isinstance(expr, N.Member):
            return self._gen_member_rvalue(expr)
        if isinstance(expr, N.Cast):
            return self._gen_cast(expr)
        if isinstance(expr, N.SizeofType):
            return [], self._atom_const(expr.of_type.sizeof())
        t = self._tmp()
        if isinstance(expr, N.SizeofExpr):
            lines, a = self.gen_expr(expr.expr)
            return lines + [
                f"{t} = 8 if isinstance({a}, (Pointer, float)) else 4",
            ], t
        if isinstance(expr, N.InitList):
            lines, atoms = self._seq(expr.items)
            return lines + [f"{t} = [{', '.join(atoms)}]"], t
        message = f"cannot evaluate {type(expr).__name__}"
        return [f"raise InterpError({message!r})"], "None"

    def _gen_ident(self, expr: N.Ident) -> Tuple[List[str], str]:
        acc, binding = self._make_accessor(expr.name, expr.line)
        t = self._tmp()
        if binding is not None and binding.kind == "local" \
                and not binding.maybe_unset:
            slot = binding.slot
            if binding.is_array:
                return self._chg(2) + [f"{t} = Pointer(frame[{slot}], 0)"], t
            return self._chg(2) + [f"{t} = frame[{slot}].cells[0]"], t
        if binding is not None and binding.kind == "global":
            gslot = binding.slot
            if binding.is_array:
                return self._chg(2) + [
                    f"{t} = Pointer(rt.gframe[{gslot}], 0)"
                ], t
            return self._chg(2) + [f"{t} = rt.gframe[{gslot}].cells[0]"], t
        name = self.pool.add(acc)
        lines = [f"{t} = {name}(rt, frame)"] + self._chg(2) + [
            f"{t} = Pointer({t}, 0) if {t}.is_array else {t}.cells[0]",
        ]
        return lines, t

    def _gen_binop(self, expr: N.BinOp) -> Tuple[List[str], str]:
        op = expr.op
        if op in ("&&", "||"):
            lls, la = self.gen_expr(expr.left)
            rls, ra = self.gen_expr(expr.right)
            kt = self.pool.add((expr.uid, True))
            kf = self.pool.add((expr.uid, False))
            tb = self._tmp()
            t = self._tmp()
            taken = [
                f"{tb} = {self._truth_of(la)}",
                f"cov_add({kt} if {tb} else {kf})",
            ]
            short = f"if not {tb}:" if op == "&&" else f"if {tb}:"
            short_value = "0" if op == "&&" else "1"
            return lls + taken + [
                short,
                f"    {t} = {short_value}",
                "else:",
            ] + _blk(rls + [
                f"{t} = 1 if {self._truth_of(ra)} else 0",
            ]), t
        if op == ",":
            lls, _la = self.gen_expr(expr.left)
            rls, ra = self.gen_expr(expr.right)
            return lls + rls, ra
        folded = _try_fold(expr)
        if folded is not None:
            value, cost = folded
            return self._chg(cost), self._atom_const(value)
        lls, la = self.gen_expr(expr.left)
        rls, ra = self.gen_expr(expr.right)
        t = self._tmp()
        return lls + rls + self._gen_apply(op, la, ra, t), t

    def _gen_apply(self, op: str, la: str, ra: str, t: str) -> List[str]:
        """``t = la op ra`` with the tree-walker's charges and faults."""
        if op not in _ARITH_OPS:
            return [
                "rt.steps = steps",
                f"{t} = _apply_binop(rt, {op!r}, {la}, {ra})",
                "steps = rt.steps",
            ]
        return [
            f"if type({la}) is Pointer or type({ra}) is Pointer:",
            "    rt.steps = steps",
            f"    {t} = _pointer_binop(rt, {op!r}, {la}, {ra})",
            "    steps = rt.steps",
            "else:",
        ] + _blk(self._gen_arith(op, la, ra, t))

    def _gen_arith(self, op: str, la: str, ra: str, t: str) -> List[str]:
        """The non-pointer arm of an operator in :data:`_ARITH_OPS`."""
        if op in ("+", "-", "*"):
            return self._chg_numeric(la, ra) + [f"{t} = {la} {op} {ra}"]
        if op in ("/", "%"):
            fault = "division by zero" if op == "/" else "modulo by zero"
            lines = self._chg(8) + [
                f"if {ra} == 0: raise MemoryFault({fault!r})",
                f"if type({la}) is float or type({ra}) is float:",
            ]
            if op == "/":
                lines += [
                    f"    {t} = {la} / {ra}",
                    "else:",
                    f"    {t} = abs({la}) // abs({ra})",
                    f"    if ({la} < 0) != ({ra} < 0): {t} = -{t}",
                ]
            else:
                lines += [
                    f"    {t} = math.fmod({la}, {ra})",
                    "else:",
                    f"    {t} = abs({la}) % abs({ra})",
                    f"    if {la} < 0: {t} = -{t}",
                ]
            return lines
        if op in ("<", "<=", ">", ">=", "==", "!="):
            return self._chg_numeric(la, ra) + [
                f"{t} = int({la} {op} {ra})",
            ]
        if op in ("<<", ">>"):
            return self._chg_numeric(la, ra) + [
                f"{t} = c_shift({op!r}, int({la}), int({ra}))",
            ]
        # "&", "|", "^"
        return self._chg_numeric(la, ra) + [
            f"{t} = int({la}) {op} int({ra})",
        ]

    def _gen_unop(self, expr: N.UnOp) -> Tuple[List[str], str]:
        op = expr.op
        if op == "&":
            lv = self.gen_lvalue(expr.operand)
            if lv.field is not None:
                return lv.lines + [
                    "raise InterpError("
                    "'address-of a struct field is unsupported')",
                ], "None"
            t = self._tmp()
            return lv.lines + [f"{t} = Pointer({lv.base}, {lv.where})"], t
        if op == "*":
            lines, a = self.gen_expr(expr.operand)
            if not a.isidentifier():
                a = f"({a})"  # a folded literal must still parse as `.attr`
            t = self._tmp()
            return lines + [
                f"if type({a}) is not Pointer: "
                "raise MemoryFault('dereference of a non-pointer value')",
                f"{t} = {a}.block",
                f"if {t} is None: "
                "raise MemoryFault('dereference of a null pointer')",
            ] + self._chg(2) + [
                f"{t} = {t}.load({a}.offset)",
            ], t
        folded = _try_fold(expr)
        if folded is not None:
            value, cost = folded
            return self._chg(cost), self._atom_const(value)
        lines, a = self.gen_expr(expr.operand)
        if op == "+":
            return lines + self._chg(1), a
        t = self._tmp()
        if op == "-":
            return lines + self._chg(1) + [f"{t} = -{a}"], t
        if op == "!":
            return lines + self._chg(1) + [
                f"{t} = int(not {self._truth_of(a)})",
            ], t
        if op == "~":
            return lines + self._chg(1) + [f"{t} = ~int({a})"], t
        message = f"unknown unary operator {op!r}"
        return lines + self._chg(1) + [
            f"raise InterpError({message!r})",
        ], "None"

    # -- lvalues -----------------------------------------------------------

    def gen_lvalue(self, expr: N.Expr) -> _Lvalue:
        """Lower an lvalue, mirroring ``Interpreter._eval_lvalue``.

        Includes the bounds check an Index lvalue performs at *creation*
        time, before any store.
        """
        if isinstance(expr, N.Ident):
            acc, binding = self._make_accessor(expr.name, expr.line)
            b = self._tmp()
            if binding is not None and binding.kind == "local" \
                    and not binding.maybe_unset:
                return _Lvalue([f"{b} = frame[{binding.slot}]"], b, "0")
            if binding is not None and binding.kind == "global":
                return _Lvalue([f"{b} = rt.gframe[{binding.slot}]"], b, "0")
            name = self.pool.add(acc)
            return _Lvalue([f"{b} = {name}(rt, frame)"], b, "0")
        if isinstance(expr, N.Index):
            bls, ba = self.gen_expr(expr.base)
            ils, ia = self.gen_expr(expr.index)
            idx = self._tmp()
            base = self._tmp()
            b = self._tmp()
            off = self._tmp()
            lines = bls + ils + [
                f"{idx} = int({ia})",
                f"{base} = {ba}",
                f"if type({base}) is MemBlock:",
                f"    {base} = Pointer({base}, 0)",
                f"elif type({base}) is not Pointer:",
                "    raise MemoryFault('indexing a non-array value')",
                f"{b} = {base}.block",
                f"if {b} is None: "
                "raise MemoryFault('dereference of a null pointer')",
                f"{off} = {base}.offset + {idx}",
                f"{b}.check({off})",
            ]
            return _Lvalue(lines, b, off)
        if isinstance(expr, N.Member):
            return self._gen_member_lvalue(expr)
        if isinstance(expr, N.UnOp) and expr.op == "*":
            ols, oa = self.gen_expr(expr.operand)
            if not oa.isidentifier():
                oa = f"({oa})"
            b = self._tmp()
            off = self._tmp()
            lines = ols + [
                f"if type({oa}) is not Pointer: "
                "raise MemoryFault('dereference of a non-pointer value')",
                f"{b} = {oa}.block",
                f"if {b} is None: "
                "raise MemoryFault('dereference of a null pointer')",
                f"{off} = {oa}.offset",
            ]
            return _Lvalue(lines, b, off)
        if isinstance(expr, N.Cast):
            return self.gen_lvalue(expr.expr)
        message = f"{type(expr).__name__} is not an lvalue"
        return _Lvalue([f"raise InterpError({message!r})"], "None", "0")

    def _gen_member_lvalue(self, expr: N.Member) -> _Lvalue:
        ols, oa = self.gen_expr(expr.obj)
        s = self._tmp()
        null = "raise MemoryFault('dereference of a null pointer')"
        lines = ols + [
            f"{s} = {oa}",
            f"if type({s}) is Pointer:",
            f"    if {s}.block is None: {null}",
            f"    {s} = {s}.block.load({s}.offset)",
        ]
        if expr.arrow:
            # `this->f` binds `this` to the struct itself; any other
            # non-pointer operand of `->` faults before the struct check.
            lines += [
                f"elif type({s}) is not StructValue:",
                "    raise MemoryFault('-> on a non-pointer value')",
            ]
        bad = f"member access {expr.name!r} on a non-struct value"
        lines += [
            f"if type({s}) is not StructValue:",
            f"    if type({s}) is StreamValue: "
            "raise InterpError('stream members have no lvalue')",
            f"    raise MemoryFault({bad!r})",
        ]
        return _Lvalue(lines, s, self._field_table(expr.name), expr.name)

    def _field_table(self, name: str) -> str:
        """Pool ``{tag: type of field name}`` (``_INT`` when it has none)."""
        table = self._field_tables.get(name)
        if table is None:
            table = self.pool.add({
                tag: st.field_type(name) if st.has_field(name) else T.INT
                for tag, st in self.program.structs.items()
            })
            self._field_tables[name] = table
        return table

    def _lv_load(self, lv: _Lvalue, t: str) -> List[str]:
        """``t = lv.load()``."""
        if lv.field is None:
            return [f"{t} = {lv.base}.load({lv.where})"]
        missing = f" has no field {lv.field!r}"
        return [
            f"if {lv.field!r} not in {lv.base}.fields: raise MemoryFault("
            f"'struct ' + str({lv.base}.tag) + {missing!r})",
            f"{t} = {lv.base}.fields[{lv.field!r}]",
        ]

    def _lv_ctype(self, lv: _Lvalue) -> Tuple[List[str], str]:
        """Lines and atom for the lvalue's C type (``LValue.ctype``)."""
        if lv.field is None:
            return [], f"{lv.base}.elem_type"
        ct = self._tmp()
        return [f"{ct} = {lv.where}.get({lv.base}.tag, _INT)"], ct

    def _lv_store(self, lv: _Lvalue, v: str, ct: str) -> List[str]:
        """``lv.store(v)``: coerce to *ct*, then write the cell or field."""
        if lv.field is None:
            return [f"{lv.base}.store({lv.where}, coerce({v}, {ct}))"]
        return [f"{lv.base}.fields[{lv.field!r}] = coerce({v}, {ct})"]

    def _lv_stored(self, lv: _Lvalue) -> str:
        """Read back what the last store wrote (no fault is possible)."""
        if lv.field is None:
            return f"{lv.base}.cells[{lv.where}]"
        return f"{lv.base}.fields[{lv.field!r}]"

    def _gen_observer(self, target: N.Expr, lv: _Lvalue) -> List[str]:
        """Profile a store to a named variable (``_observe_lvalue``)."""
        if not isinstance(target, N.Ident):
            return []
        _acc, binding = self._make_accessor(target.name, target.line)
        name_const = self.pool.add(target.name)
        value = self._lv_stored(lv)
        if binding is not None:
            uid = binding.observe_uid
            if uid is None:
                return []
            return [f"observe({uid}, {name_const}, {value})"]
        # Resolved at run time: the lvalue's block is the one the name
        # looks up to, and only declared scalars carry a _decl_uid.
        du = self._tmp()
        return [
            f"{du} = getattr({lv.base}, '_decl_uid', None)",
            f"if {du} is not None: observe({du}, {name_const}, {value})",
        ]

    def _gen_incdec(
        self, expr: N.IncDec, want_result: bool
    ) -> Tuple[List[str], str]:
        lv = self.gen_lvalue(expr.operand)
        delta = 1 if expr.op == "++" else -1
        old = self._tmp()
        new = self._tmp()
        cls, ct = self._lv_ctype(lv)
        lines = lv.lines + self._lv_load(lv, old) + [
            f"if type({old}) is Pointer:",
            f"    {new} = {old}.add({delta})",
            "else:",
            f"    {new} = {old} + {delta}",
        ] + cls + self._lv_store(lv, new, ct)
        lines += self._gen_observer(expr.operand, lv)
        lines += self._chg(1)
        if not want_result:
            return lines, "None"
        if expr.postfix:
            return lines, old
        t = self._tmp()
        return lines + [f"{t} = {self._lv_stored(lv)}"], t

    def _gen_static_coerce(
        self, ctype: Optional[T.CType], v: str
    ) -> Optional[List[str]]:
        """Inline co_int for statically known int targets (in place)."""
        if ctype is None:
            return None
        resolved = T.strip_typedefs(ctype)
        if not type(resolved) is T.IntType:
            return None
        bits, signed = resolved.bits, resolved.signed
        mask = (1 << bits) - 1
        half = 1 << (bits - 1)
        full = 1 << bits
        lines = [
            f"if not isinstance({v}, Pointer):",
            f"    {v} = int({v}) & {mask}",
        ]
        if signed:
            lines.append(f"    if {v} >= {half}: {v} -= {full}")
        return lines

    def _gen_coerce(self, ctype: T.CType, v: str) -> List[str]:
        """Coerce *v* in place to the statically known *ctype*."""
        inline = self._gen_static_coerce(ctype, v)
        if inline is not None:
            return inline
        co = self.pool.add(_make_coercer(ctype))
        return [f"{v} = {co}(rt, {v})"]

    def _gen_assign(
        self, expr: N.Assign, want_result: bool
    ) -> Tuple[List[str], str]:
        lv = self.gen_lvalue(expr.target)
        vls, va = self.gen_expr(expr.value)
        cls, ct = self._lv_ctype(lv)
        v = self._tmp()
        lines = lv.lines + vls + cls + [f"{v} = {va}"]
        if expr.op != "=":
            old = self._tmp()
            res = self._tmp()
            lines += self._lv_load(lv, old)
            lines += self._gen_apply(expr.op[:-1], old, v, res)
            lines.append(f"{v} = {res}")
        # Coercion: specialize for a statically typed Ident target,
        # otherwise go through the runtime-typed path.
        binding = None
        if isinstance(expr.target, N.Ident):
            _acc, binding = self._make_accessor(
                expr.target.name, expr.target.line
            )
        if binding is not None and binding.ctype is not None:
            lines += self._gen_coerce(binding.ctype, v)
        else:
            lines.append(f"{v} = _coerce_value(rt, {v}, {ct})")
        lines += self._chg(2)
        lines += self._lv_store(lv, v, ct)
        lines += self._gen_observer(expr.target, lv)
        if not want_result:
            return lines, "None"
        t = self._tmp()
        return lines + [f"{t} = {self._lv_stored(lv)}"], t

    def _gen_cond(self, expr: N.Cond) -> Tuple[List[str], str]:
        cls, ca = self.gen_expr(expr.cond)
        tls, ta = self.gen_expr(expr.then)
        els, ea = self.gen_expr(expr.other)
        kt = self.pool.add((expr.uid, True))
        kf = self.pool.add((expr.uid, False))
        tk = self._tmp()
        t = self._tmp()
        return cls + [
            f"{tk} = {self._truth_of(ca)}",
            f"cov_add({kt} if {tk} else {kf})",
        ] + self._chg(1) + [
            f"if {tk}:",
        ] + _blk(tls + [f"{t} = {ta}"]) + [
            "else:",
        ] + _blk(els + [f"{t} = {ea}"]), t

    def _gen_index_rvalue(self, expr: N.Index) -> Tuple[List[str], str]:
        lv = self.gen_lvalue(expr)
        t = self._tmp()
        # gen_lvalue already ran block.check(off), and block.load() would
        # re-check the same untouched block, so the direct cell read is
        # observably identical.
        return lv.lines + self._chg(2) + [
            f"{t} = {lv.base}.cells[{lv.where}]",
            f"if type({t}) is MemBlock: {t} = Pointer({t}, 0)",
        ], t

    def _gen_member_rvalue(self, expr: N.Member) -> Tuple[List[str], str]:
        lv = self._gen_member_lvalue(expr)
        t = self._tmp()
        return lv.lines + self._chg(2) + self._lv_load(lv, t), t

    def _gen_cast(self, expr: N.Cast) -> Tuple[List[str], str]:
        lines, a = self.gen_expr(expr.expr)
        v = self._tmp()
        return lines + [f"{v} = {a}"] + self._gen_coerce(expr.to_type, v), v

    # -- calls -------------------------------------------------------------

    def _gen_call(self, expr: N.Call) -> Tuple[List[str], str]:
        if isinstance(expr.func, N.Member):
            return self._gen_method_call(expr)
        name = expr.callee_name
        if name is None:
            return [
                "raise InterpError('indirect calls are not supported')",
            ], "None"
        lines, atoms = self._seq(expr.args)
        args_list = f"[{', '.join(atoms)}]"
        t = self._tmp()
        cf = self.program.functions.get(name)
        if cf is not None:
            cfn = self.pool.add(cf)
            snap = ", ".join(f"_snapshot_arg({a})" for a in atoms)
            return lines + [
                f"if rt.capture_name == {name!r}:",
                f"    rt.captured.append([{snap}])",
                "rt.steps = steps",
                f"{t} = _call(rt, {cfn}, {args_list}, None)",
                "steps = rt.steps",
            ], t
        builtin = BUILTINS.get(name)
        if builtin is not None:
            bn = self.pool.add(builtin)
            return lines + self._chg(5) + [
                "rt.steps = steps",
                f"{t} = {bn}(rt, {args_list})",
                "steps = rt.steps",
            ], t
        message = f"call to undefined function {name!r} at line {expr.line}"
        return lines + [f"raise InterpError({message!r})"], "None"

    def _gen_method_call(self, expr: N.Call) -> Tuple[List[str], str]:
        assert isinstance(expr.func, N.Member)
        member = expr.func
        mname = member.name
        ols, oa = self.gen_expr(member.obj)
        r = self._tmp()
        lines = ols + [
            f"{r} = {oa}",
            f"if type({r}) is Pointer:",
            f"    if {r}.block is None: "
            "raise MemoryFault('dereference of a null pointer')",
            f"    {r} = {r}.block.load({r}.offset)",
        ]
        als, atoms = self._seq(expr.args)
        lines += als
        t = self._tmp()
        if mname == "read":
            op_lines = [f"{t} = {r}.read()"]
        elif mname == "write" and not atoms:
            # The tree-walker writes args[0] and ignores any others.
            op_lines = ["raise IndexError('list index out of range')"]
        elif mname == "write":
            op_lines = [f"{r}.write({atoms[0]})", f"{t} = None"]
        elif mname == "empty":
            op_lines = [f"{t} = int({r}.empty())"]
        elif mname == "size":
            op_lines = [f"{t} = len({r}.items)"]
        else:
            bad = f"unknown stream method {mname!r}"
            op_lines = [f"raise InterpError({bad!r})"]
        methods = self.pool.add(self.program.methods)
        cfv = self._tmp()
        missing = self.pool.add(f"struct %r has no method {mname!r}")
        nonobj = f"method call on a non-object value: {mname!r}"
        args_list = f"[{', '.join(atoms)}]"
        lines += [
            f"if type({r}) is StreamValue:",
        ] + _blk(self._chg(2) + op_lines) + [
            f"elif type({r}) is StructValue:",
            f"    {cfv} = {methods}.get(({r}.tag, {mname!r}))",
            f"    if {cfv} is None:",
            f"        raise InterpError({missing} % ({r}.tag,))",
            "    rt.steps = steps",
            f"    {t} = _call(rt, {cfv}, {args_list}, {r})",
            "    steps = rt.steps",
            "else:",
            f"    raise InterpError({nonobj!r})",
        ]
        return lines, t

    # -- statements --------------------------------------------------------

    def gen_stmt(self, stmt: N.Stmt, conditional: bool = False) -> List[str]:
        if isinstance(stmt, N.Compound):
            return self.gen_compound(stmt, charge=True)
        if isinstance(stmt, N.ExprStmt):
            return self._chg(1) + self._gen_expr_effect(stmt.expr)
        if isinstance(stmt, N.DeclStmt):
            return self._gen_decl(stmt.decl, conditional)
        if isinstance(stmt, N.If):
            return self._gen_if(stmt)
        if isinstance(stmt, N.While):
            return self._gen_while(stmt)
        if isinstance(stmt, N.DoWhile):
            return self._gen_dowhile(stmt)
        if isinstance(stmt, N.For):
            return self._gen_for(stmt)
        if isinstance(stmt, N.Return):
            if stmt.value is None:
                return self._chg(1) + ["rt.retval = None", "return _RET"]
            lines, a = self.gen_expr(stmt.value)
            return self._chg(1) + lines + [
                f"rt.retval = {a}",
                "return _RET",
            ]
        if isinstance(stmt, N.Break):
            return self._chg(1) + ["rt.steps = steps", "raise _Break()"]
        if isinstance(stmt, N.Continue):
            return self._chg(1) + ["rt.steps = steps", "raise _Continue()"]
        if isinstance(stmt, (N.Pragma, N.Empty)):
            return self._chg(1)
        message = f"cannot execute {type(stmt).__name__}"
        return self._chg(1) + [f"raise InterpError({message!r})"]

    def _gen_expr_effect(self, expr: N.Expr) -> List[str]:
        """An expression evaluated for effect: skip pure trailing loads."""
        if isinstance(expr, N.Assign):
            return self._gen_assign(expr, want_result=False)[0]
        if isinstance(expr, N.IncDec):
            return self._gen_incdec(expr, want_result=False)[0]
        return self.gen_expr(expr)[0]

    def _gen_body_stmt(self, stmt: N.Stmt) -> List[str]:
        if isinstance(stmt, N.Compound):
            return self.gen_compound(stmt, charge=True)
        return self.gen_stmt(stmt, conditional=True)

    def gen_compound(self, stmt: N.Compound, charge: bool) -> List[str]:
        self._push_scope()
        inner: List[str] = []
        for child in stmt.items:
            inner += self.gen_stmt(child)
        resets = self._pop_scope()
        lines = self._chg(1) if charge else []
        lines += [f"frame[{slot}] = _UNSET" for slot in resets]
        return lines + inner

    def _gen_cond_check(
        self, cond_atom: str, uid: int
    ) -> Tuple[List[str], str]:
        kt = self.pool.add((uid, True))
        kf = self.pool.add((uid, False))
        tk = self._tmp()
        return [
            f"{tk} = {self._truth_of(cond_atom)}",
            f"cov_add({kt} if {tk} else {kf})",
        ], tk

    def _gen_if(self, stmt: N.If) -> List[str]:
        lines = self._chg(1)
        cls, ca = self.gen_expr(stmt.cond)
        check, tk = self._gen_cond_check(ca, stmt.uid)
        lines += cls + check + [f"if {tk}:"]
        lines += _blk(self._gen_body_stmt(stmt.then))
        if stmt.other is not None:
            lines += ["else:"] + _blk(self._gen_body_stmt(stmt.other))
        return lines

    def _loop_body_try(self, body: List[str], on_continue: str) -> List[str]:
        """The body of a generated loop with signal handlers.

        ``steps = rt.steps`` in the handlers picks up charges a callee
        made before a cross-frame break/continue unwound into this loop
        (the raise sites sync ``rt.steps`` first).
        """
        return ["try:"] + _blk(body) + [
            "except _Break:",
            "    steps = rt.steps",
            "    break",
            "except _Continue:",
            "    steps = rt.steps",
            on_continue,
        ]

    def _gen_while(self, stmt: N.While) -> List[str]:
        body = self._gen_body_stmt(stmt.body)
        cls, ca = self.gen_expr(stmt.cond)
        check, tk = self._gen_cond_check(ca, stmt.uid)
        loop = cls + check + [f"if not {tk}: break"]
        loop += self._loop_body_try(body, "    continue")
        return self._chg(1) + ["while True:"] + _blk(loop)

    def _gen_dowhile(self, stmt: N.DoWhile) -> List[str]:
        body = self._gen_body_stmt(stmt.body)
        cls, ca = self.gen_expr(stmt.cond)
        check, tk = self._gen_cond_check(ca, stmt.uid)
        loop = self._loop_body_try(body, "    pass")
        loop += cls + check + [f"if not {tk}: break"]
        return self._chg(1) + ["while True:"] + _blk(loop)

    def _gen_for(self, stmt: N.For) -> List[str]:
        self._push_scope()
        init = self.gen_stmt(stmt.init) if stmt.init is not None else []
        body = self._gen_body_stmt(stmt.body)
        cond = self.gen_expr(stmt.cond) if stmt.cond is not None else None
        step = (
            self._gen_expr_effect(stmt.step)
            if stmt.step is not None else []
        )
        resets = self._pop_scope()
        lines = self._chg(1)
        lines += [f"frame[{slot}] = _UNSET" for slot in resets]
        lines += init
        loop: List[str] = []
        if cond is not None:
            cls, ca = cond
            check, tk = self._gen_cond_check(ca, stmt.uid)
            loop += cls + check + [f"if not {tk}: break"]
        loop += self._loop_body_try(body, "    pass")
        loop += step
        return lines + ["while True:"] + _blk(loop)

    # -- declarations ------------------------------------------------------

    def _gen_decl(self, decl: N.VarDecl, conditional: bool) -> List[str]:
        blk = self._tmp()
        # Generate the block *before* declaring the name: `int x = x;`
        # must resolve the initializer's x in the enclosing scope.
        make = self._gen_make(decl, blk, is_global=False)
        slot = self._declare(decl, conditional).slot
        lines = self._chg(1)
        if decl.is_static:
            uid = decl.uid
            return lines + [
                f"{blk} = rt.statics.get({uid})",
                f"if {blk} is None:",
            ] + _blk(make + [f"rt.statics[{uid}] = {blk}"]) + [
                f"frame[{slot}] = {blk}",
            ]
        lines += make + [f"frame[{slot}] = {blk}"]
        if isinstance(T.strip_typedefs(decl.type), T.ArrayType):
            return lines
        name_const = self.pool.add(decl.name)
        return lines + [
            f"observe({decl.uid}, {name_const}, {blk}.cells[0])",
        ]

    def _gen_make(self, decl: N.VarDecl, blk: str, is_global: bool) -> List[str]:
        """Build the MemBlock of one declaration into *blk*
        (``Interpreter._make_var_block``)."""
        ctype = T.strip_typedefs(decl.type)
        if isinstance(ctype, T.ArrayType):
            return self._gen_array_make(decl, ctype, blk, is_global)
        return self._gen_scalar_make(decl, blk)

    def _gen_scalar_make(self, decl: N.VarDecl, blk: str) -> List[str]:
        # The tree-walker computes the default value before looking at the
        # initializer, so an un-defaultable type raises TypeError even when
        # an initializer would have replaced the value.
        try:
            default = default_value(decl.type, self.program.structs)
        except TypeError as exc:
            return [f"raise TypeError({str(exc)!r})"]
        ty = self.pool.add(decl.type)
        nm = self.pool.add(decl.name)
        v = self._tmp()
        if decl.init is not None:
            ils, ia = self.gen_expr(decl.init)
            lines = ils + [f"{v} = {ia}"] + self._gen_coerce(decl.type, v)
        elif isinstance(default, (int, float)) or type(default) is Pointer:
            lines = [f"{v} = {self._atom_const(default)}"]
        else:
            lines = [f"{v} = default_value({ty}, rt.structs)"]
        return lines + [
            f"{blk} = MemBlock({ty}, [{v}], label={nm})",
            f"{blk}._decl_uid = {decl.uid}",
        ]

    def _gen_array_make(
        self, decl: N.VarDecl, ctype: T.ArrayType, blk: str, is_global: bool
    ) -> List[str]:
        name = decl.name
        size = ctype.size
        if size is None and decl.vla_size is not None:
            if is_global:
                message = f"global VLA {name!r} is not executable"
                return [f"raise InterpError({message!r})"]
            lines, sa = self.gen_expr(decl.vla_size)
            n = self._tmp()
            lines.append(f"{n} = int({sa})")
        elif size is None:
            message = f"array {name!r} has unknown size"
            return [f"raise InterpError({message!r})"]
        else:
            lines, n = [], repr(size)
        elem = ctype.elem
        el = self.pool.add(elem)
        try:
            proto = default_value(elem, self.program.structs)
        except TypeError:
            proto = None  # raised per cell, after the heap charge
        if isinstance(proto, (int, float)) or type(proto) is Pointer:
            cells = f"[{self._atom_const(proto)}] * {n}"
        else:
            cells = f"_fresh_cells({el}, rt.structs, {n})"
        lines += [
            f"_charge_heap(rt, {n})",
            f"{blk} = MemBlock({el}, {cells}, "
            f"label={self.pool.add(name)}, is_array=True)",
        ]
        # A global's initializer counts only when it is a brace list.
        if decl.init is not None and (
            not is_global or isinstance(decl.init, N.InitList)
        ):
            lines += self._gen_array_init(decl.init, blk, elem, size)
        return lines

    def _gen_array_init(
        self, init: N.Expr, blk: str, elem: T.CType, size: Optional[int]
    ) -> List[str]:
        """Fill array *blk* from *init* (``Interpreter._init_array``).

        *size* is the cell count when it is static (None for a VLA).
        """
        if not isinstance(init, N.InitList):
            return ["raise InterpError('array initializer must be a brace list')"]
        too_many = "raise MemoryFault('too many array initializer items')"
        cells = self._tmp()
        el = self.pool.add(elem)
        lines = [f"{cells} = {blk}.cells"]
        for i, item in enumerate(init.items):
            if size is None:
                lines.append(f"if {i} >= len({cells}): {too_many}")
            elif i >= size:
                return lines + [too_many]
            if isinstance(item, N.InitList):
                lines += self._gen_nested_init(item, f"{cells}[{i}]", elem)
            else:
                ils, ia = self.gen_expr(item)
                lines += ils + [
                    f"{cells}[{i}] = _coerce_value(rt, {ia}, {el})",
                ]
        return lines

    def _gen_nested_init(
        self, item: N.InitList, cell: str, elem: T.CType
    ) -> List[str]:
        """A brace list for one default-initialized cell of type *elem*."""
        resolved = T.strip_typedefs(elem)
        inner = self._tmp()
        if isinstance(resolved, T.ArrayType):
            return [f"{inner} = {cell}"] + self._gen_array_init(
                item, inner, resolved.elem, resolved.size or 0
            )
        if not isinstance(resolved, T.StructType):
            return ["raise InterpError('nested initializer for a scalar')"]
        struct_type = self.program.structs.get(resolved.tag)
        if struct_type is None:
            # The tree-walker reads the fields of a missing definition.
            return ["raise AttributeError("
                    "\"'NoneType' object has no attribute 'fields'\")"]
        lines = [f"{inner} = {cell}.fields"]
        for fld, fexpr in zip(struct_type.fields, item.items):
            fls, fa = self.gen_expr(fexpr)
            ft = self.pool.add(fld.type)
            lines += fls + [
                f"{inner}[{fld.name!r}] = _coerce_value(rt, {fa}, {ft})",
            ]
        return lines

    # -- entry points ------------------------------------------------------

    def gen_function(self, func: N.FunctionDef, cf: CompiledFunction) -> None:
        """Populate *cf* with binders, slot count, and a generated body."""
        self._push_scope()
        for param in func.params:
            binding = self._declare_param(param)
            cf.binders.append(self._make_param_binder(param))
            assert binding.slot == len(cf.binders) - 1
        if func.owner_struct:
            this_binding = _Binding(
                kind="local", slot=self._new_slot(), is_array=False,
                observe_uid=None, ctype=T.PointerType(T.VOID),
                maybe_unset=False,
            )
            self.scopes[-1]["this"] = this_binding
            cf.this_slot = this_binding.slot
        assert func.body is not None
        # The tree-walker enters the body via _exec_block directly, so the
        # top-level compound is not charged as a statement.
        body = self.gen_compound(func.body, charge=False)
        self._pop_scope()
        cf.n_slots = self.n_slots
        cf.body = self._emit(body, f"<batch:{cf.name}>")

    def gen_globals(self, unit: N.TranslationUnit) -> Callable[..., Any]:
        """Generate the unit's global initializer (``_init_globals``).

        Each global is registered in ``program.global_bindings`` only
        after its own initializer is generated, so an initializer sees
        just the globals declared before it.
        """
        bindings = self.program.global_bindings
        body = ["gframe = rt.gframe"]
        slot = 0
        for decl in unit.decls:
            if not isinstance(decl, N.VarDecl):
                continue
            blk = self._tmp()
            body += self._gen_make(decl, blk, is_global=True)
            body.append(f"gframe.append({blk})")
            ctype = T.strip_typedefs(decl.type)
            is_array = isinstance(ctype, T.ArrayType)
            bindings[decl.name] = _Binding(
                kind="global",
                slot=slot,
                is_array=is_array,
                observe_uid=None if is_array else decl.uid,
                ctype=ctype.elem if is_array else decl.type,
                maybe_unset=False,
            )
            slot += 1
        if not slot:
            return _no_globals
        return self._emit(body, "<batch:globals>")

    def _emit(self, body: List[str], filename: str) -> Callable[..., Any]:
        """Compile *body* as ``(rt, frame)`` function into the pool."""
        src_lines = [
            "def _batch_body(rt, frame):",
            "    steps = rt.steps",
            "    max_steps = rt.max_steps",
        ]
        joined = "\n".join(body)
        if "cov_add(" in joined:
            src_lines.append("    cov_add = rt.cov_add")
        if "observe(" in joined:
            src_lines.append("    observe = rt.observe")
        src_lines += ["    try:"]
        src_lines += ["        " + line for line in body] or ["        pass"]
        src_lines += [
            "    finally:",
            "        if steps > rt.steps:",
            "            rt.steps = steps",
            "    return None",
        ]
        src = "\n".join(src_lines) + "\n"
        code = _CODE_MEMO.get_or_compute(
            lambda: (
                filename,
                hashlib.blake2b(src.encode(), digest_size=16).digest(),
            ),
            lambda: compile(src, filename, "exec"),
        )
        ns = self.pool.ns
        exec(code, ns)
        return ns.pop("_batch_body")


# --------------------------------------------------------------------------
# Whole-unit batch compilation
# --------------------------------------------------------------------------


class BatchProgram:
    """All functions of one unit, and its global initializer, lowered to
    flat generated Python."""

    def __init__(self, unit: N.TranslationUnit) -> None:
        self.unit = unit
        self.structs: Dict[str, T.StructType] = {}
        self.global_bindings: Dict[str, _Binding] = {}
        self.functions: Dict[str, CompiledFunction] = {}
        self.methods: Dict[Tuple[str, str], CompiledFunction] = {}
        # Create every shell first so generated call sites (including
        # recursion and method dispatch) and global initializers that
        # call a function can pool the callee.
        shells: List[Tuple[N.FunctionDef, CompiledFunction]] = []
        for decl in unit.decls:
            if isinstance(decl, N.FunctionDef) and decl.body is not None:
                cf = CompiledFunction(decl)
                self.functions[decl.name] = cf
                shells.append((decl, cf))
            elif isinstance(decl, N.StructDef):
                assert isinstance(decl.type, T.StructType)
                self.structs[decl.tag] = decl.type
                for method in decl.methods:
                    if method.body is not None:
                        cf = CompiledFunction(method)
                        self.methods[(decl.tag, method.name)] = cf
                        shells.append((method, cf))
        pool = _ConstPool()
        self.global_init = _BatchCompiler(self, pool).gen_globals(unit)
        for func, cf in shells:
            _BatchCompiler(self, pool).gen_function(func, cf)
        self.poolable_globals = _poolable_globals(unit)

    def init_globals(self, rt: Runtime) -> None:
        self.global_init(rt, _NO_FRAME)


#: Lowered programs of the units run most recently, by unit identity.
#: Consumers run one unit through several engines in a row (difftest,
#: then co-simulation), so a few entries serve them all; keeping the
#: program off the unit lets a finished candidate, or a result that holds
#: its units, drop the generated code with the memo entry.  Each entry
#: holds its unit (``BatchProgram.unit``), so an ``id`` is never reused
#: while it is cached.  Sized by counting, over one pass of each
#: ``bench_e2e`` workload at seed 2022, the lowerings of a unit that had
#: been lowered before and dropped out: with 8 entries table3 re-lowers 4
#: units of 85 lowerings, repair 3 of 79, store-warm 0 of 4, generated 7
#: of 210; with 1 entry 6, 4, 0 and 22; with 16 entries 3, 3, 0 and 5.
_RECENT_PROGRAMS: "OrderedDict[int, BatchProgram]" = OrderedDict()
_RECENT_LIMIT = 8
_BATCH_CACHE_LOCK = threading.Lock()


def batch_program(unit: N.TranslationUnit) -> BatchProgram:
    """Lower *unit* for batched execution, memoized for recent units.

    Units are not mutated once they execute (edits clone), so a unit's
    lowering stays valid while it is cached."""
    key = id(unit)
    with _BATCH_CACHE_LOCK:
        program = _RECENT_PROGRAMS.get(key)
        if program is None:
            program = BatchProgram(unit)
            _RECENT_PROGRAMS[key] = program
            if len(_RECENT_PROGRAMS) > _RECENT_LIMIT:
                _RECENT_PROGRAMS.popitem(last=False)
        else:
            _RECENT_PROGRAMS.move_to_end(key)
    return program


# --------------------------------------------------------------------------
# Engines
# --------------------------------------------------------------------------


class BatchRecord:
    """Per-input outcome of :meth:`BatchEngine.run_many`.

    Exactly one of the three shapes holds: ``result`` is the
    :class:`ExecResult`; ``error`` is the fault the input raised (the
    same type and message :meth:`BatchEngine.run` raises); ``skipped`` is
    True when the batch's ``max_faults`` budget was exhausted before
    this input executed.
    """

    __slots__ = ("result", "error", "skipped")

    def __init__(
        self,
        result: Optional[ExecResult] = None,
        error: Optional[BaseException] = None,
        skipped: bool = False,
    ) -> None:
        self.result = result
        self.error = error
        self.skipped = skipped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.skipped:
            return "BatchRecord(skipped)"
        if self.error is not None:
            return f"BatchRecord(error={self.error!r})"
        return f"BatchRecord(result={self.result!r})"


class BatchEngine:
    """Drop-in engine with a batched fast path (`run_many`)."""

    def __init__(
        self,
        unit: N.TranslationUnit,
        limits: Optional[ExecLimits] = None,
        hls_mode: bool = False,
        capture_calls: str = "",
        want_out_args: bool = True,
    ) -> None:
        self.unit = unit
        self.limits = limits or ExecLimits()
        self.hls_mode = hls_mode
        self.capture_calls = capture_calls
        self.want_out_args = want_out_args
        self.program = batch_program(unit)
        self.captured: List[List[Any]] = []
        self.steps = 0

    # -- single-input path (drop-in for Interpreter.run) ------------------

    def run(self, func_name: str, args: List[Any]) -> ExecResult:
        program = self.program
        cf = program.functions.get(func_name)
        if cf is None:
            raise InterpError(f"no function named {func_name!r}")
        rt = Runtime(self.limits, program.structs, self.capture_calls)
        self.captured = rt.captured
        try:
            program.init_globals(rt)
            runtime_args = self._marshal(rt, program, cf, func_name, args)
            value = _call(rt, cf, runtime_args, None)
        except MemoryFault as exc:
            if self.hls_mode and getattr(exc, "oob_array", False):
                raise HlsSimulationFault(str(exc)) from exc
            raise
        finally:
            self.steps = rt.steps
            self.coverage = rt.coverage
            self.profile = rt.profile
        out_args = (
            [c_to_python(a) for a in runtime_args]
            if self.want_out_args else []
        )
        return ExecResult(
            value=c_to_python(value),
            out_args=out_args,
            steps=rt.steps,
            coverage=rt.coverage,
            profile=rt.profile,
            captured_args=rt.captured,
        )

    def _marshal(self, rt, program, cf, func_name, args) -> List[Any]:
        runtime_args: List[Any] = []
        params = cf.params
        for param, arg in zip(params, args):
            try:
                runtime_args.append(
                    python_to_c(arg, param.type, program.structs)
                )
            except (TypeError, ValueError) as exc:
                raise InterpError(
                    f"{func_name}: cannot marshal argument "
                    f"{param.name!r}: {exc}"
                ) from exc
        if len(args) != len(params):
            raise InterpError(
                f"{func_name} expects {len(params)} args, got {len(args)}"
            )
        return runtime_args

    # -- batched path ------------------------------------------------------

    def run_many(
        self,
        func_name: str,
        arg_sets: Sequence[Sequence[Any]],
        max_faults: Optional[int] = None,
    ) -> List[BatchRecord]:
        """Run every input through one pooled pass.

        Per-input results are bit-identical to calling
        :meth:`run` once per input: the Runtime is reset (not shared
        state) between inputs, coverage/profile recorders are handed off
        into each ExecResult, and the global frame is either rebuilt or —
        when the unit's initializers are provably effect-free — restored
        by value with the init's step/heap charges replayed.  A faulting
        input yields an error record and the batch continues; once
        *max_faults* faults have occurred, remaining inputs are marked
        ``skipped`` without executing (the difftest abort contract).
        """
        program = self.program
        cf = program.functions.get(func_name)
        rt = Runtime(self.limits, program.structs, self.capture_calls)
        want_out = self.want_out_args
        hls_mode = self.hls_mode
        records: List[BatchRecord] = []
        faults = 0
        pristine: Optional[List[List[Any]]] = None
        g_steps = g_heap = 0
        for args in arg_sets:
            if max_faults is not None and faults >= max_faults:
                records.append(BatchRecord(skipped=True))
                continue
            rt.steps = 0
            rt.heap_cells = 0
            rt.depth = 0
            rt.coverage = CoverageRecorder()
            rt.cov_add = rt.coverage.hits.add
            rt.profile = ValueProfile()
            rt.observe = rt.profile.observe
            if rt.active:
                rt.active.clear()
            if rt.statics:
                rt.statics.clear()
            rt.captured = []
            rt.retval = None
            error: Optional[BaseException] = None
            value: Any = None
            runtime_args: List[Any] = []
            try:
                if cf is None:
                    raise InterpError(f"no function named {func_name!r}")
                if pristine is not None:
                    # Replay the init charges with one-shot budget checks:
                    # the messages carry no running totals, so a crossing
                    # raises identically to the incremental charges.
                    rt.steps = g_steps
                    if rt.steps > rt.max_steps:
                        _over_steps(rt)
                    rt.heap_cells = g_heap
                    if rt.heap_cells > rt.max_heap:
                        raise InterpLimitExceeded("heap budget exceeded")
                    for block, cells in zip(rt.gframe, pristine):
                        block.cells[:] = cells
                        block.alive = True
                else:
                    rt.gframe.clear()
                    program.init_globals(rt)
                    # Snapshot only when init provably had no observable
                    # effects beyond cell values and step/heap charges:
                    # the AST whitelist rules out branching/calling
                    # initializers, the runtime check (belt and braces)
                    # rules out anything the whitelist missed, and the
                    # int/float restriction rules out mutable values
                    # (struct/stream/pointer) that a kernel could alias.
                    if (
                        program.poolable_globals
                        and not rt.coverage.hits
                        and not rt.profile.ranges
                        and not rt.profile.call_depths
                        and not rt.statics
                        and not rt.captured
                        and all(
                            type(c) in (int, float)
                            for b in rt.gframe for c in b.cells
                        )
                    ):
                        pristine = [list(b.cells) for b in rt.gframe]
                        g_steps = rt.steps
                        g_heap = rt.heap_cells
                runtime_args = self._marshal(rt, program, cf, func_name, args)
                value = _call(rt, cf, runtime_args, None)
            except MemoryFault as exc:
                if hls_mode and getattr(exc, "oob_array", False):
                    error = HlsSimulationFault(str(exc))
                    error.__cause__ = exc
                else:
                    error = exc
            except InterpError as exc:
                error = exc
            self.steps = rt.steps
            self.coverage = rt.coverage
            self.profile = rt.profile
            self.captured = rt.captured
            if error is not None:
                faults += 1
                records.append(BatchRecord(error=error))
                continue
            out_args = (
                [c_to_python(a) for a in runtime_args] if want_out else []
            )
            records.append(BatchRecord(result=ExecResult(
                value=c_to_python(value),
                out_args=out_args,
                steps=rt.steps,
                coverage=rt.coverage,
                profile=rt.profile,
                captured_args=rt.captured,
            )))
        return records


class BackendMismatch(AssertionError):
    """The batch backend diverged from the tree-walker."""


def _identical(left: Any, right: Any) -> bool:
    """Exact structural equality, with NaN equal to NaN."""
    if isinstance(left, float) and isinstance(right, float):
        return left == right or (left != left and right != right)
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(
            _identical(a, b) for a, b in zip(left, right)
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _identical(v, right[k]) for k, v in left.items()
        )
    return type(left) is type(right) and left == right


def _profile_key(profile: ValueProfile) -> Tuple[Dict[int, Tuple], Dict[str, int]]:
    ranges = {
        uid: (r.name, repr(r.min_value), repr(r.max_value),
              r.is_integer, r.samples)
        for uid, r in profile.ranges.items()
    }
    return ranges, dict(profile.call_depths)


class BatchCrossCheckEngine:
    """Runs the tree-walker and batch on every input, asserting identity.

    Observables, step counts, coverage hits, value profiles, captured
    arguments and faults (type and message) must all agree; the batch
    result is returned.
    """

    def __init__(
        self,
        unit: N.TranslationUnit,
        limits: Optional[ExecLimits] = None,
        hls_mode: bool = False,
        capture_calls: str = "",
        want_out_args: bool = True,
    ) -> None:
        self.tree = Interpreter(
            unit, limits=limits, hls_mode=hls_mode,
            capture_calls=capture_calls, want_out_args=want_out_args,
        )
        self.batch = BatchEngine(
            unit, limits=limits, hls_mode=hls_mode,
            capture_calls=capture_calls, want_out_args=want_out_args,
        )
        self.unit = unit
        self.limits = self.batch.limits
        self.hls_mode = hls_mode
        self.capture_calls = capture_calls
        self.want_out_args = want_out_args
        self.captured: List[List[Any]] = []

    def run(self, func_name: str, args: List[Any]) -> ExecResult:
        tree_result = tree_exc = None
        batch_result = batch_exc = None
        try:
            tree_result = self.tree.run(func_name, args)
        except Exception as exc:
            tree_exc = exc
        try:
            batch_result = self.batch.run(func_name, args)
        except Exception as exc:
            batch_exc = exc
        where = f"{func_name}{args!r}"
        if tree_exc is not None or batch_exc is not None:
            if tree_exc is None or batch_exc is None:
                raise BackendMismatch(
                    f"{where}: tree raised {tree_exc!r} but batch raised "
                    f"{batch_exc!r}"
                )
            if type(tree_exc) is not type(batch_exc) \
                    or str(tree_exc) != str(batch_exc):
                raise BackendMismatch(
                    f"{where}: fault mismatch — tree {tree_exc!r}, "
                    f"batch {batch_exc!r}"
                )
            # Calls captured before the fault are salvaged by callers
            # (get_kernel_seed), so they must agree too.
            tree_captured = getattr(self.tree, "captured", [])
            if not _identical(tree_captured, self.batch.captured):
                raise BackendMismatch(
                    f"{where}: captured-args mismatch before the fault — "
                    f"tree {tree_captured!r}, batch {self.batch.captured!r}"
                )
            self.captured = self.batch.captured
            raise tree_exc
        assert tree_result is not None and batch_result is not None
        checks = (
            ("observable", tree_result.observable(),
             batch_result.observable()),
            ("step", tree_result.steps, batch_result.steps),
            ("coverage", tree_result.coverage.hits,
             batch_result.coverage.hits),
            ("value-profile", _profile_key(tree_result.profile),
             _profile_key(batch_result.profile)),
            ("captured-args", tree_result.captured_args,
             batch_result.captured_args),
        )
        for what, expected, actual in checks:
            if not _identical(expected, actual):
                raise BackendMismatch(
                    f"{where}: {what} mismatch — tree {expected!r}, "
                    f"batch {actual!r}"
                )
        self.captured = batch_result.captured_args
        return batch_result


def engine_run_many(
    engine: Any,
    func_name: str,
    arg_sets: Sequence[Sequence[Any]],
    max_faults: Optional[int] = None,
) -> List[BatchRecord]:
    """Run a batch of inputs on any engine.

    Uses the engine's native ``run_many`` when it has one (the batch
    backend's pooled pass); otherwise loops ``run`` with the same
    record/fault-isolation/abort contract, so consumers have a single
    code path across all backends.
    """
    native = getattr(engine, "run_many", None)
    if native is not None:
        return native(func_name, arg_sets, max_faults=max_faults)
    records: List[BatchRecord] = []
    faults = 0
    for args in arg_sets:
        if max_faults is not None and faults >= max_faults:
            records.append(BatchRecord(skipped=True))
            continue
        try:
            result = engine.run(func_name, args)
        except InterpError as exc:
            faults += 1
            records.append(BatchRecord(error=exc))
        else:
            records.append(BatchRecord(result=result))
    return records


# --------------------------------------------------------------------------
# Backend selection
# --------------------------------------------------------------------------

#: ``tree`` is the oracle, ``batch`` the default, ``batch-cross`` checks
#: the one against the other on every input.
BACKENDS = ("tree", "batch", "batch-cross")

_ENGINES = {
    "tree": Interpreter,
    "batch": BatchEngine,
    "batch-cross": BatchCrossCheckEngine,
}

_default_backend = os.environ.get("REPRO_INTERP_BACKEND", "batch")


def default_backend() -> str:
    """The backend used when no explicit choice is given."""
    return _default_backend


def set_default_backend(name: str) -> None:
    global _default_backend
    if name not in BACKENDS:
        raise ValueError(
            f"unknown interpreter backend {name!r}; choose from {BACKENDS}"
        )
    _default_backend = name


def make_engine(
    unit: N.TranslationUnit,
    backend: Optional[str] = None,
    limits: Optional[ExecLimits] = None,
    hls_mode: bool = False,
    capture_calls: str = "",
    want_out_args: bool = True,
):
    """Construct an execution engine for *unit* with the chosen backend."""
    name = backend or _default_backend
    engine = _ENGINES.get(name)
    if engine is None:
        raise ValueError(
            f"unknown interpreter backend {name!r}; choose from {BACKENDS}"
        )
    return engine(
        unit, limits=limits, hls_mode=hls_mode,
        capture_calls=capture_calls, want_out_args=want_out_args,
    )
