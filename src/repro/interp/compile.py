"""Runtime, call protocol and expression closures shared by the batch engine.

The batch backend (:mod:`.batch`) lowers every function into one flat
generated Python function.  This module holds what that code runs on and
what it falls back to:

* :class:`Runtime`, the per-run mutable state (step and heap budgets,
  coverage and value-profile recorders, the global frame, statics), and
  :func:`_call`, the call protocol every generated call site uses;
* :class:`CompiledFunction`, one function's shell: parameter binders,
  frame size, return coercer and the generated body;
* :class:`_FunctionCompiler`, which resolves every local variable at
  compile time to a *slot* in a flat per-call frame list and lowers a
  single expression, lvalue or declaration's block maker to nested
  closures.  The batch code generator subclasses it, so scope state is
  shared: an expression the generator declines is served by its closure,
  and the unit's global initializers are block-maker closures.

The closures charge the tree-walker's step costs at the same program
points, fold pure-literal arithmetic subtrees to constants (charging the
exact cost the tree-walker would have charged), pre-bind coverage probe
keys ``(uid, outcome)`` and value-profile hooks, and raise the same
faults in CPU and HLS mode, so a fallback is observably identical to
the tree-walker.
"""

from __future__ import annotations

import math
import struct as _struct
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import (
    InterpError,
    InterpLimitExceeded,
    MemoryFault,
)
from ..cfront import nodes as N
from ..cfront import typesys as T
from .builtins import BUILTINS, RawAlloc
from .coverage import CoverageRecorder, ValueProfile
from .interpreter import (
    ExecLimits,
    Interpreter,
    _Break,
    _Continue,
)
from .memory import (
    LValue,
    MemBlock,
    NULL,
    Pointer,
    StreamValue,
    StructValue,
    _quantize_float,
    c_shift,
    coerce,
    default_value,
)

# Abstract step costs — must stay in lockstep with interpreter.py.
_COST_INT_OP = 1
_COST_FLOAT_OP = 4
_COST_DIV = 8
_COST_MEM = 2
_COST_CALL = 5
_COST_BRANCH = 1


#: Returned by a function body that executed a ``return`` (the value is
#: in ``Runtime.retval``); a body that runs off its end returns None.
_RET = object()

#: Frame sentinel for a slot whose declaration has not executed yet.
_UNSET = object()

_NO_FRAME: List[Any] = []


class Runtime:
    """Per-run mutable state shared by all compiled closures."""

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


def _charge_heap(rt: Runtime, cells: int) -> None:
    rt.heap_cells += cells
    if rt.heap_cells > rt.max_heap:
        raise InterpLimitExceeded("heap budget exceeded")


def _truth(value: Any) -> bool:
    if type(value) is Pointer:
        return value.block is not None
    return bool(value)


# --------------------------------------------------------------------------
# Binary operators — one pre-charged applier per operator, mirroring
# Interpreter._apply_binop exactly (charge before the op, float/int cost
# split, C-style truncating division).
# --------------------------------------------------------------------------


def _ap_add(rt, l, r):
    rt.steps += 4 if (type(l) is float or type(r) is float) else 1
    if rt.steps > rt.max_steps:
        _over_steps(rt)
    return l + r


def _ap_sub(rt, l, r):
    rt.steps += 4 if (type(l) is float or type(r) is float) else 1
    if rt.steps > rt.max_steps:
        _over_steps(rt)
    return l - r


def _ap_mul(rt, l, r):
    rt.steps += 4 if (type(l) is float or type(r) is float) else 1
    if rt.steps > rt.max_steps:
        _over_steps(rt)
    return l * r


def _ap_div(rt, l, r):
    is_float = type(l) is float or type(r) is float
    rt.steps += 8
    if rt.steps > rt.max_steps:
        _over_steps(rt)
    if r == 0:
        raise MemoryFault("division by zero")
    if is_float:
        return l / r
    quotient = abs(l) // abs(r)
    return quotient if (l < 0) == (r < 0) else -quotient


def _ap_mod(rt, l, r):
    is_float = type(l) is float or type(r) is float
    rt.steps += 8
    if rt.steps > rt.max_steps:
        _over_steps(rt)
    if r == 0:
        raise MemoryFault("modulo by zero")
    if is_float:
        return math.fmod(l, r)
    magnitude = abs(l) % abs(r)
    return magnitude if l >= 0 else -magnitude


def _cmp(pyop):
    def apply(rt, l, r):
        rt.steps += 4 if (type(l) is float or type(r) is float) else 1
        if rt.steps > rt.max_steps:
            _over_steps(rt)
        return int(pyop(l, r))

    return apply


def _bitop(pyop):
    def apply(rt, l, r):
        rt.steps += 4 if (type(l) is float or type(r) is float) else 1
        if rt.steps > rt.max_steps:
            _over_steps(rt)
        return pyop(int(l), int(r))

    return apply


_ARITH_APPLY: Dict[str, Callable[..., Any]] = {
    "+": _ap_add,
    "-": _ap_sub,
    "*": _ap_mul,
    "/": _ap_div,
    "%": _ap_mod,
    "<": _cmp(lambda l, r: l < r),
    "<=": _cmp(lambda l, r: l <= r),
    ">": _cmp(lambda l, r: l > r),
    ">=": _cmp(lambda l, r: l >= r),
    "==": _cmp(lambda l, r: l == r),
    "!=": _cmp(lambda l, r: l != r),
    "<<": _bitop(lambda l, r: c_shift("<<", l, r)),
    ">>": _bitop(lambda l, r: c_shift(">>", l, r)),
    "&": _bitop(lambda l, r: l & r),
    "|": _bitop(lambda l, r: l | r),
    "^": _bitop(lambda l, r: l ^ r),
}


def _apply_binop(rt: Runtime, op: str, left: Any, right: Any) -> Any:
    if type(left) is Pointer or type(right) is Pointer:
        return _pointer_binop(rt, op, left, right)
    apply = _ARITH_APPLY.get(op)
    if apply is None:
        rt.steps += 4 if (type(left) is float or type(right) is float) else 1
        if rt.steps > rt.max_steps:
            _over_steps(rt)
        raise InterpError(f"unknown binary operator {op!r}")
    return apply(rt, left, right)


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
            [default_value(resolved.pointee, rt.structs) for _ in range(count)],
            label="heap",
        )
        return Pointer(block, 0)
    if isinstance(resolved, T.StructType) and isinstance(value, StructValue):
        return value
    return coerce(value, ctype)


def _make_coercer(ctype: T.CType) -> Callable[[Runtime, Any], Any]:
    """Compile a coercion closure specialized to *ctype*."""
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
                        [default_value(pointee, rt.structs)
                         for _ in range(count)],
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


def _snapshot_arg(value: Any) -> Any:
    return Interpreter._snapshot_arg(value)


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


def _try_fold(expr: N.Expr) -> Optional[Tuple[Any, int]]:
    """Return ``(value, step_cost)`` if *expr* is a pure literal subtree.

    The cost accumulates exactly the charges the tree-walker would make,
    so the folded closure can charge it in one shot (the intermediate
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
        except Exception:
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
        except Exception:
            return None
        return (value, lc + rc + op_cost)
    return None


# --------------------------------------------------------------------------
# Name resolution — compile-time lexical scopes mapped onto frame slots.
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
    """One function lowered to closures; execution state lives in Runtime."""

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


class _FunctionCompiler:
    """Compile-time scopes over a slot frame, and expression closures.

    *program* is a :class:`~.batch.BatchProgram`: the compiler reads its
    ``functions``, ``methods``, ``structs`` and ``global_bindings``.
    """

    def __init__(self, program: Any) -> None:
        self.program = program
        self.scopes: List[Dict[str, _Binding]] = []
        self.scope_resets: List[List[int]] = []
        self.n_slots = 0

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
            # entry never leak into the dynamic-scope fallback.
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

    def _resolution_chain(self, name: str) -> List[_Binding]:
        chain: List[_Binding] = []
        for scope in reversed(self.scopes):
            binding = scope.get(name)
            if binding is not None:
                chain.append(binding)
        return chain

    def _make_accessor(
        self, name: str, line: int
    ) -> Tuple[Callable[[Runtime, List[Any]], MemBlock], Optional[_Binding]]:
        """Compile a block accessor for *name*.

        Returns ``(accessor, binding)`` where *binding* is non-None only
        when the innermost resolution is statically certain, so callers
        can specialize on is_array / observe_uid / ctype.
        """
        chain = self._resolution_chain(name)
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

    # -- parameters and declarations ---------------------------------------

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

    def _compile_var_block(
        self, decl: N.VarDecl, is_global: bool = False
    ) -> Callable[[Runtime, List[Any]], MemBlock]:
        """Compile the MemBlock constructor for one declaration."""
        ctype = T.strip_typedefs(decl.type)
        name = decl.name
        if isinstance(ctype, T.ArrayType):
            return self._compile_array_block(decl, ctype, is_global)
        decl_type = decl.type
        uid = decl.uid
        # The tree-walker computes the default value before looking at the
        # initializer, so an un-defaultable type raises TypeError even when
        # an initializer would have replaced the value — replicate that.
        default: Any = None
        immutable = False
        default_error: Optional[str] = None
        try:
            default = default_value(decl.type, self.program.structs)
            immutable = isinstance(default, (int, float)) \
                or type(default) is Pointer
        except TypeError as exc:
            default_error = str(exc)
        if default_error is not None:
            message = default_error

            def make_undefaultable(rt, frame):
                raise TypeError(message)

            return make_undefaultable
        if decl.init is not None and not (
            is_global and isinstance(decl.init, N.InitList)
        ):
            init_c = self.compile_expr(decl.init)
            co = _make_coercer(decl.type)

            def make_init(rt, frame):
                value = co(rt, init_c(rt, frame))
                block = MemBlock(decl_type, [value], label=name)
                block._decl_uid = uid  # type: ignore[attr-defined]
                return block

            return make_init
        if immutable:

            def make_const(rt, frame):
                block = MemBlock(decl_type, [default], label=name)
                block._decl_uid = uid  # type: ignore[attr-defined]
                return block

            return make_const

        def make_fresh(rt, frame):
            block = MemBlock(
                decl_type, [default_value(decl_type, rt.structs)], label=name
            )
            block._decl_uid = uid  # type: ignore[attr-defined]
            return block

        return make_fresh

    def _compile_array_block(
        self, decl: N.VarDecl, ctype: T.ArrayType, is_global: bool
    ) -> Callable[[Runtime, List[Any]], MemBlock]:
        name = decl.name
        elem = ctype.elem
        size = ctype.size
        size_c = None
        if size is None and decl.vla_size is not None:
            if is_global:
                message = f"global VLA {name!r} is not executable"

                def make_bad(rt, frame):
                    raise InterpError(message)

                return make_bad
            size_c = self.compile_expr(decl.vla_size)
        elif size is None:
            message = f"array {name!r} has unknown size"

            def make_unknown(rt, frame):
                raise InterpError(message)

            return make_unknown
        proto: Any = None
        immutable = False
        try:
            proto = default_value(elem, self.program.structs)
            immutable = isinstance(proto, (int, float)) \
                or type(proto) is Pointer
        except TypeError:
            proto = None
        init_c = None
        if decl.init is not None and (not is_global or
                                      isinstance(decl.init, N.InitList)):
            init_c = self._compile_array_init(decl.init)

        def make(rt, frame):
            n = size if size_c is None else int(size_c(rt, frame))
            _charge_heap(rt, n)
            if immutable:
                cells = [proto] * n
            else:
                cells = [default_value(elem, rt.structs) for _ in range(n)]
            block = MemBlock(elem, cells, label=name, is_array=True)
            if init_c is not None:
                init_c(rt, frame, block)
            return block

        return make

    def _compile_array_init(self, init: N.Expr):
        """Compile an array initializer, mirroring Interpreter._init_array."""
        if not isinstance(init, N.InitList):
            message = "array initializer must be a brace list"

            def apply_bad(rt, frame, block):
                raise InterpError(message)

            return apply_bad
        entries: List[Tuple[str, Any, Any]] = []
        for item in init.items:
            if isinstance(item, N.InitList):
                nested = self._compile_array_init(item)
                field_cs = [self.compile_expr(e) for e in item.items]
                entries.append(("nested", nested, field_cs))
            else:
                entries.append(("expr", self.compile_expr(item), None))
        frozen = tuple(entries)

        def apply(rt, frame, block):
            cells = block.cells
            for i, (kind, payload, field_cs) in enumerate(frozen):
                if i >= len(cells):
                    raise MemoryFault("too many array initializer items")
                if kind == "expr":
                    cells[i] = _coerce_value(
                        rt, payload(rt, frame), block.elem_type
                    )
                    continue
                inner = cells[i]
                if isinstance(inner, MemBlock):
                    payload(rt, frame, inner)
                elif isinstance(inner, StructValue):
                    struct_type = rt.structs.get(inner.tag)
                    for fld, fc in zip(struct_type.fields, field_cs):
                        inner.fields[fld.name] = _coerce_value(
                            rt, fc(rt, frame), fld.type
                        )
                else:
                    raise InterpError("nested initializer for a scalar")

        return apply

    # -- expressions -------------------------------------------------------

    def compile_expr(self, expr: N.Expr):
        if isinstance(expr, (N.IntLit, N.FloatLit, N.CharLit, N.StringLit)):
            value = expr.value

            def c_lit(rt, frame):
                return value

            return c_lit
        if isinstance(expr, N.Ident):
            return self._compile_ident(expr)
        if isinstance(expr, N.BinOp):
            return self._compile_binop(expr)
        if isinstance(expr, N.UnOp):
            return self._compile_unop(expr)
        if isinstance(expr, N.IncDec):
            return self._compile_incdec(expr)
        if isinstance(expr, N.Assign):
            return self._compile_assign(expr)
        if isinstance(expr, N.Cond):
            return self._compile_cond(expr)
        if isinstance(expr, N.Call):
            return self._compile_call(expr)
        if isinstance(expr, N.Index):
            return self._compile_index_rvalue(expr)
        if isinstance(expr, N.Member):
            lv_c = self.compile_lvalue(expr)

            def c_member(rt, frame):
                lval = lv_c(rt, frame)
                rt.steps += 2
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                return lval.load()

            return c_member
        if isinstance(expr, N.Cast):
            inner_c = self.compile_expr(expr.expr)
            co = _make_coercer(expr.to_type)

            def c_cast(rt, frame):
                return co(rt, inner_c(rt, frame))

            return c_cast
        if isinstance(expr, N.SizeofType):
            size = expr.of_type.sizeof()

            def c_sizeof(rt, frame):
                return size

            return c_sizeof
        if isinstance(expr, N.SizeofExpr):
            inner_c = self.compile_expr(expr.expr)

            def c_sizeof_expr(rt, frame):
                value = inner_c(rt, frame)
                if isinstance(value, Pointer):
                    return 8
                if isinstance(value, float):
                    return 8
                return 4

            return c_sizeof_expr
        if isinstance(expr, N.InitList):
            item_cs = tuple(self.compile_expr(item) for item in expr.items)

            def c_initlist(rt, frame):
                return [c(rt, frame) for c in item_cs]

            return c_initlist
        message = f"cannot evaluate {type(expr).__name__}"

        def c_bad(rt, frame):
            raise InterpError(message)

        return c_bad

    def _compile_ident(self, expr: N.Ident):
        acc, binding = self._make_accessor(expr.name, expr.line)
        if binding is not None and binding.kind == "local" \
                and not binding.maybe_unset:
            slot = binding.slot
            if binding.is_array:

                def c_local_array(rt, frame):
                    rt.steps += 2
                    if rt.steps > rt.max_steps:
                        _over_steps(rt)
                    return Pointer(frame[slot], 0)

                return c_local_array

            def c_local(rt, frame):
                rt.steps += 2
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                return frame[slot].cells[0]

            return c_local
        if binding is not None and binding.kind == "global":
            gslot = binding.slot
            if binding.is_array:

                def c_global_array(rt, frame):
                    rt.steps += 2
                    if rt.steps > rt.max_steps:
                        _over_steps(rt)
                    return Pointer(rt.gframe[gslot], 0)

                return c_global_array

            def c_global(rt, frame):
                rt.steps += 2
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                return rt.gframe[gslot].cells[0]

            return c_global

        def c_dynamic(rt, frame):
            block = acc(rt, frame)
            rt.steps += 2
            if rt.steps > rt.max_steps:
                _over_steps(rt)
            if block.is_array:
                return Pointer(block, 0)
            return block.cells[0]

        return c_dynamic

    def _compile_binop(self, expr: N.BinOp):
        op = expr.op
        if op == "&&":
            left_c = self.compile_expr(expr.left)
            right_c = self.compile_expr(expr.right)
            key_t = (expr.uid, True)
            key_f = (expr.uid, False)

            def c_and(rt, frame):
                value = left_c(rt, frame)
                left = (value.block is not None) \
                    if type(value) is Pointer else bool(value)
                rt.cov_add(key_t if left else key_f)
                if not left:
                    return 0
                return 1 if _truth(right_c(rt, frame)) else 0

            return c_and
        if op == "||":
            left_c = self.compile_expr(expr.left)
            right_c = self.compile_expr(expr.right)
            key_t = (expr.uid, True)
            key_f = (expr.uid, False)

            def c_or(rt, frame):
                value = left_c(rt, frame)
                left = (value.block is not None) \
                    if type(value) is Pointer else bool(value)
                rt.cov_add(key_t if left else key_f)
                if left:
                    return 1
                return 1 if _truth(right_c(rt, frame)) else 0

            return c_or
        if op == ",":
            left_c = self.compile_expr(expr.left)
            right_c = self.compile_expr(expr.right)

            def c_comma(rt, frame):
                left_c(rt, frame)
                return right_c(rt, frame)

            return c_comma
        folded = _try_fold(expr)
        if folded is not None:
            value, cost = folded

            def c_const(rt, frame):
                rt.steps += cost
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                return value

            return c_const
        left_c = self.compile_expr(expr.left)
        right_c = self.compile_expr(expr.right)
        apply = _ARITH_APPLY.get(op)
        if apply is None:
            bad_op = op

            def c_unknown(rt, frame):
                return _apply_binop(rt, bad_op, left_c(rt, frame),
                                    right_c(rt, frame))

            return c_unknown

        def c_binop(rt, frame):
            left = left_c(rt, frame)
            right = right_c(rt, frame)
            if type(left) is Pointer or type(right) is Pointer:
                return _pointer_binop(rt, op, left, right)
            return apply(rt, left, right)

        return c_binop

    def _compile_unop(self, expr: N.UnOp):
        op = expr.op
        if op == "&":
            lv_c = self.compile_lvalue(expr.operand)

            def c_addr(rt, frame):
                lval = lv_c(rt, frame)
                if lval.struct is not None:
                    raise InterpError(
                        "address-of a struct field is unsupported"
                    )
                return Pointer(lval.block, lval.offset)

            return c_addr
        if op == "*":
            operand_c = self.compile_expr(expr.operand)

            def c_deref(rt, frame):
                value = operand_c(rt, frame)
                if type(value) is not Pointer:
                    raise MemoryFault("dereference of a non-pointer value")
                block = value.block
                if block is None:
                    raise MemoryFault("dereference of a null pointer")
                rt.steps += 2
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                return block.load(value.offset)

            return c_deref
        folded = _try_fold(expr)
        if folded is not None:
            value, cost = folded

            def c_const(rt, frame):
                rt.steps += cost
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                return value

            return c_const
        operand_c = self.compile_expr(expr.operand)
        if op == "-":

            def c_neg(rt, frame):
                value = operand_c(rt, frame)
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                return -value

            return c_neg
        if op == "+":

            def c_pos(rt, frame):
                value = operand_c(rt, frame)
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                return value

            return c_pos
        if op == "!":

            def c_not(rt, frame):
                value = operand_c(rt, frame)
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                return int(not _truth(value))

            return c_not
        if op == "~":

            def c_inv(rt, frame):
                value = operand_c(rt, frame)
                rt.steps += 1
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                return ~int(value)

            return c_inv
        message = f"unknown unary operator {op!r}"

        def c_bad(rt, frame):
            operand_c(rt, frame)
            rt.steps += 1
            if rt.steps > rt.max_steps:
                _over_steps(rt)
            raise InterpError(message)

        return c_bad

    def _make_observer(self, target: N.Expr):
        """Store-profiling hook for named targets (Interpreter._observe_lvalue)."""
        if not isinstance(target, N.Ident):
            return None
        acc, binding = self._make_accessor(target.name, target.line)
        name = target.name
        if binding is not None:
            uid = binding.observe_uid
            if uid is None:
                return None

            def obs_static(rt, frame, lval):
                rt.observe(uid, name, lval.load())

            return obs_static

        def obs_dynamic(rt, frame, lval):
            try:
                block = acc(rt, frame)
            except InterpError:
                return
            decl_uid = getattr(block, "_decl_uid", None)
            if decl_uid is not None:
                rt.observe(decl_uid, name, lval.load())

        return obs_dynamic

    def _compile_incdec(self, expr: N.IncDec):
        lv_c = self.compile_lvalue(expr.operand)
        delta = 1 if expr.op == "++" else -1
        observer = self._make_observer(expr.operand)
        postfix = expr.postfix

        def c_incdec(rt, frame):
            lval = lv_c(rt, frame)
            old = lval.load()
            if type(old) is Pointer:
                new = old.add(delta)
            else:
                new = old + delta
            lval.store(new)
            if observer is not None:
                observer(rt, frame, lval)
            rt.steps += 1
            if rt.steps > rt.max_steps:
                _over_steps(rt)
            return old if postfix else lval.load()

        return c_incdec

    def _compile_assign(self, expr: N.Assign):
        lv_c = self.compile_lvalue(expr.target)
        value_c = self.compile_expr(expr.value)
        observer = self._make_observer(expr.target)
        # Specialize the coercion when the target's type is known statically.
        static_co = None
        if isinstance(expr.target, N.Ident):
            _acc, binding = self._make_accessor(
                expr.target.name, expr.target.line
            )
            if binding is not None and binding.ctype is not None:
                static_co = _make_coercer(binding.ctype)
        if expr.op == "=":

            def c_assign(rt, frame):
                lval = lv_c(rt, frame)
                value = value_c(rt, frame)
                if static_co is not None:
                    value = static_co(rt, value)
                else:
                    value = _coerce_value(rt, value, lval.ctype)
                rt.steps += 2
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                lval.store(value)
                if observer is not None:
                    observer(rt, frame, lval)
                return lval.load()

            return c_assign
        op = expr.op[:-1]

        def c_compound(rt, frame):
            lval = lv_c(rt, frame)
            value = value_c(rt, frame)
            value = _apply_binop(rt, op, lval.load(), value)
            if static_co is not None:
                value = static_co(rt, value)
            else:
                value = _coerce_value(rt, value, lval.ctype)
            rt.steps += 2
            if rt.steps > rt.max_steps:
                _over_steps(rt)
            lval.store(value)
            if observer is not None:
                observer(rt, frame, lval)
            return lval.load()

        return c_compound

    def _compile_cond(self, expr: N.Cond):
        cond_c = self.compile_expr(expr.cond)
        then_c = self.compile_expr(expr.then)
        else_c = self.compile_expr(expr.other)
        key_t = (expr.uid, True)
        key_f = (expr.uid, False)

        def c_ternary(rt, frame):
            value = cond_c(rt, frame)
            taken = (value.block is not None) \
                if type(value) is Pointer else bool(value)
            rt.cov_add(key_t if taken else key_f)
            rt.steps += 1
            if rt.steps > rt.max_steps:
                _over_steps(rt)
            return then_c(rt, frame) if taken else else_c(rt, frame)

        return c_ternary

    def _compile_index_rvalue(self, expr: N.Index):
        base_c = self.compile_expr(expr.base)
        index_c = self.compile_expr(expr.index)

        def c_index(rt, frame):
            base = base_c(rt, frame)
            index = int(index_c(rt, frame))
            tb = type(base)
            if tb is MemBlock:
                base = Pointer(base, 0)
            elif tb is not Pointer:
                raise MemoryFault("indexing a non-array value")
            block = base.block
            if block is None:
                raise MemoryFault("dereference of a null pointer")
            offset = base.offset + index
            block.check(offset)
            rt.steps += 2
            if rt.steps > rt.max_steps:
                _over_steps(rt)
            value = block.load(offset)
            if type(value) is MemBlock:
                return Pointer(value, 0)
            return value

        return c_index

    # -- lvalues -----------------------------------------------------------

    def compile_lvalue(self, expr: N.Expr):
        if isinstance(expr, N.Ident):
            acc, binding = self._make_accessor(expr.name, expr.line)
            if binding is not None and binding.kind == "local" \
                    and not binding.maybe_unset:
                slot = binding.slot

                def lv_local(rt, frame):
                    block = frame[slot]
                    return LValue(block.elem_type, block=block, offset=0)

                return lv_local

            def lv_ident(rt, frame):
                block = acc(rt, frame)
                return LValue(block.elem_type, block=block, offset=0)

            return lv_ident
        if isinstance(expr, N.Index):
            base_c = self.compile_expr(expr.base)
            index_c = self.compile_expr(expr.index)

            def lv_index(rt, frame):
                base = base_c(rt, frame)
                index = int(index_c(rt, frame))
                tb = type(base)
                if tb is MemBlock:
                    base = Pointer(base, 0)
                elif tb is not Pointer:
                    raise MemoryFault("indexing a non-array value")
                block = base.block
                if block is None:
                    raise MemoryFault("dereference of a null pointer")
                offset = base.offset + index
                block.check(offset)
                return LValue(block.elem_type, block=block, offset=offset)

            return lv_index
        if isinstance(expr, N.Member):
            return self._compile_member_lvalue(expr)
        if isinstance(expr, N.UnOp) and expr.op == "*":
            operand_c = self.compile_expr(expr.operand)

            def lv_deref(rt, frame):
                value = operand_c(rt, frame)
                if type(value) is not Pointer:
                    raise MemoryFault("dereference of a non-pointer value")
                block = value.block
                if block is None:
                    raise MemoryFault("dereference of a null pointer")
                return LValue(block.elem_type, block=block,
                              offset=value.offset)

            return lv_deref
        if isinstance(expr, N.Cast):
            return self.compile_lvalue(expr.expr)
        message = f"{type(expr).__name__} is not an lvalue"

        def lv_bad(rt, frame):
            raise InterpError(message)

        return lv_bad

    def _compile_member_lvalue(self, expr: N.Member):
        obj_c = self.compile_expr(expr.obj)
        name = expr.name
        arrow = expr.arrow

        def lv_member(rt, frame):
            if arrow:
                obj = obj_c(rt, frame)
                if isinstance(obj, StructValue):
                    target = obj
                elif type(obj) is Pointer:
                    block = obj.block
                    if block is None:
                        raise MemoryFault("dereference of a null pointer")
                    target = block.load(obj.offset)
                else:
                    raise MemoryFault("-> on a non-pointer value")
            else:
                target = obj_c(rt, frame)
                if type(target) is Pointer:
                    block = target.block
                    if block is None:
                        raise MemoryFault("dereference of a null pointer")
                    target = block.load(target.offset)
            if isinstance(target, StreamValue):
                raise InterpError("stream members have no lvalue")
            if not isinstance(target, StructValue):
                raise MemoryFault(
                    f"member access {name!r} on a non-struct value"
                )
            struct_type = rt.structs.get(target.tag)
            ctype = (
                struct_type.field_map().get(name, T.INT)
                if struct_type is not None else T.INT
            )
            return LValue(ctype, struct=target, field_name=name)

        return lv_member

    # -- calls -------------------------------------------------------------

    def _compile_call(self, expr: N.Call):
        if isinstance(expr.func, N.Member):
            return self._compile_method_call(expr)
        name = expr.callee_name
        if name is None:
            message = "indirect calls are not supported"

            def c_indirect(rt, frame):
                raise InterpError(message)

            return c_indirect
        arg_cs = tuple(self.compile_expr(a) for a in expr.args)
        cf = self.program.functions.get(name)
        if cf is not None:
            fname = name

            def c_call(rt, frame):
                args = [a(rt, frame) for a in arg_cs]
                if rt.capture_name == fname:
                    rt.captured.append([_snapshot_arg(a) for a in args])
                return _call(rt, cf, args, None)

            return c_call
        builtin = BUILTINS.get(name)
        if builtin is not None:

            def c_builtin(rt, frame):
                args = [a(rt, frame) for a in arg_cs]
                rt.steps += 5
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                return builtin(rt, args)

            return c_builtin
        message = f"call to undefined function {name!r} at line {expr.line}"

        def c_undef(rt, frame):
            for a in arg_cs:
                a(rt, frame)
            raise InterpError(message)

        return c_undef

    def _compile_method_call(self, expr: N.Call):
        assert isinstance(expr.func, N.Member)
        member = expr.func
        obj_c = self.compile_expr(member.obj)
        arg_cs = tuple(self.compile_expr(a) for a in expr.args)
        mname = member.name
        methods = self.program.methods
        if mname == "read":
            def stream_op(rt, receiver, args):
                return receiver.read()
        elif mname == "write":
            def stream_op(rt, receiver, args):
                receiver.write(args[0])
                return None
        elif mname == "empty":
            def stream_op(rt, receiver, args):
                return int(receiver.empty())
        elif mname == "size":
            def stream_op(rt, receiver, args):
                return len(receiver.items)
        else:
            bad = f"unknown stream method {mname!r}"

            def stream_op(rt, receiver, args):
                raise InterpError(bad)

        def c_method(rt, frame):
            receiver = obj_c(rt, frame)
            if type(receiver) is Pointer:
                block = receiver.block
                if block is None:
                    raise MemoryFault("dereference of a null pointer")
                receiver = block.load(receiver.offset)
            args = [a(rt, frame) for a in arg_cs]
            if isinstance(receiver, StreamValue):
                rt.steps += 2
                if rt.steps > rt.max_steps:
                    _over_steps(rt)
                return stream_op(rt, receiver, args)
            if isinstance(receiver, StructValue):
                cf = methods.get((receiver.tag, mname))
                if cf is None:
                    raise InterpError(
                        f"struct {receiver.tag!r} has no method {mname!r}"
                    )
                return _call(rt, cf, args, receiver)
            raise InterpError(
                f"method call on a non-object value: {mname!r}"
            )

        return c_method
