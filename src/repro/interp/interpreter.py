"""Tree-walking interpreter for the C/HLS-C subset.

One engine executes both sides of HeteroGen's differential test:

* **CPU mode** runs the original C program with conventional semantics
  (unbounded heap, 32/64-bit integer wrap-around);
* **HLS mode** (``hls_mode=True``) runs a transpiled candidate with the
  finite semantics of hardware: ``fpga_int<N>`` wrap-around, bounded
  static arrays whose overflow raises :class:`HlsSimulationFault`.

Every execution produces an :class:`ExecResult` carrying the returned
value, the final state of array/pointer arguments (kernels commonly write
results in place), branch coverage, a value-range profile for bitwidth
estimation, and an abstract step count used as the CPU latency model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import (
    HlsSimulationFault,
    InterpError,
    InterpLimitExceeded,
    MemoryFault,
)
from ..cfront import nodes as N
from ..cfront import typesys as T
from .builtins import BUILTINS, RawAlloc
from .coverage import CoverageRecorder, ValueProfile
from .memory import (
    LValue,
    MemBlock,
    Pointer,
    StreamValue,
    StructValue,
    c_shift,
    c_to_python,
    coerce,
    default_value,
    python_to_c,
)


@dataclass
class ExecLimits:
    """Budgets protecting the harness from runaway candidate programs."""

    max_steps: int = 5_000_000
    max_depth: int = 256
    max_heap_cells: int = 1_000_000


@dataclass
class ExecResult:
    value: Any
    out_args: List[Any]
    steps: int
    coverage: CoverageRecorder
    profile: ValueProfile
    captured_args: List[List[Any]] = field(default_factory=list)

    def observable(self) -> Tuple[Any, Tuple[Any, ...]]:
        """The behaviour differential testing compares."""
        return (self.value, tuple(_freeze(a) for a in self.out_args))


def _freeze(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


# Abstract per-operation costs (arbitrary "steps"; CPU latency is modelled
# as steps * a fixed ns/step scale in repro.difftest).
_COST_INT_OP = 1
_COST_FLOAT_OP = 4
_COST_DIV = 8
_COST_MEM = 2
_COST_CALL = 5
_COST_BRANCH = 1


class Interpreter:
    """Executes functions of one translation unit."""

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
        # Budgets are read on every charge; hoist them out of the dataclass
        # so the hot path is a plain int compare on instance slots.
        self._max_steps = self.limits.max_steps
        self._max_depth = self.limits.max_depth
        self._max_heap = self.limits.max_heap_cells
        self.hls_mode = hls_mode
        self.capture_calls = capture_calls
        self.want_out_args = want_out_args
        self.functions: Dict[str, N.FunctionDef] = {}
        self.methods: Dict[Tuple[str, str], N.FunctionDef] = {}
        self.structs: Dict[str, T.StructType] = {}
        for decl in unit.decls:
            if isinstance(decl, N.FunctionDef) and decl.body is not None:
                self.functions[decl.name] = decl
            elif isinstance(decl, N.StructDef):
                assert isinstance(decl.type, T.StructType)
                self.structs[decl.tag] = decl.type
                for method in decl.methods:
                    if method.body is not None:
                        self.methods[(decl.tag, method.name)] = method

    # -- public API -----------------------------------------------------------

    def run(self, func_name: str, args: List[Any]) -> ExecResult:
        """Execute *func_name* with plain-Python *args*; fresh global state."""
        func = self.functions.get(func_name)
        if func is None:
            raise InterpError(f"no function named {func_name!r}")
        self.steps = 0
        self.depth = 0
        self.heap_cells = 0
        self.coverage = CoverageRecorder()
        self.profile = ValueProfile()
        self.captured: List[List[Any]] = []
        self.globals: Dict[str, MemBlock] = {}
        self.statics: Dict[int, MemBlock] = {}
        try:
            self._init_globals()
            runtime_args: List[Any] = []
            for param, arg in zip(func.params, args):
                try:
                    runtime_args.append(
                        python_to_c(arg, param.type, self.structs)
                    )
                except (TypeError, ValueError) as exc:
                    # A test tuple shaped for a different signature (the
                    # search retargeting the top function, say) is a
                    # faulty candidate, not a harness crash.
                    raise InterpError(
                        f"{func_name}: cannot marshal argument "
                        f"{param.name!r}: {exc}"
                    ) from exc
            if len(args) != len(func.params):
                raise InterpError(
                    f"{func_name} expects {len(func.params)} args, got {len(args)}"
                )
            value = self._call_function(func, runtime_args, this=None)
        except MemoryFault as exc:
            if self.hls_mode and getattr(exc, "oob_array", False):
                # Finite hardware semantics: indexing past the end of a
                # static array is a simulation fault, not a soft memory error.
                raise HlsSimulationFault(str(exc)) from exc
            raise
        # Materializing out-args deep-copies every array argument; callers
        # that only consume coverage (the fuzzer) opt out.
        out_args = (
            [c_to_python(a) for a in runtime_args] if self.want_out_args else []
        )
        return ExecResult(
            value=c_to_python(value),
            out_args=out_args,
            steps=self.steps,
            coverage=self.coverage,
            profile=self.profile,
            captured_args=self.captured,
        )

    # -- setup ------------------------------------------------------------------

    def _init_globals(self) -> None:
        for decl in self.unit.decls:
            if not isinstance(decl, N.VarDecl):
                continue
            block = self._make_var_block(decl, env=None)
            self.globals[decl.name] = block

    def _make_var_block(
        self, decl: N.VarDecl, env: Optional[List[Dict[str, MemBlock]]]
    ) -> MemBlock:
        ctype = T.strip_typedefs(decl.type)
        if isinstance(ctype, T.ArrayType):
            size = ctype.size
            if size is None and decl.vla_size is not None:
                if env is None:
                    raise InterpError(f"global VLA {decl.name!r} is not executable")
                size = int(self._eval(decl.vla_size, env))
            if size is None:
                raise InterpError(f"array {decl.name!r} has unknown size")
            self._charge_heap(size)
            block = MemBlock(
                ctype.elem,
                [default_value(ctype.elem, self.structs) for _ in range(size)],
                label=decl.name,
                is_array=True,
            )
            if decl.init is not None and env is not None:
                self._init_array(block, decl.init, env)
            elif isinstance(decl.init, N.InitList):
                self._init_array(block, decl.init, [])
            return block
        value = default_value(decl.type, self.structs)
        if decl.init is not None:
            init_env = env if env is not None else []
            raw = self._eval(decl.init, init_env)
            value = self._coerce(raw, decl.type)
        block = MemBlock(decl.type, [value], label=decl.name)
        block._decl_uid = decl.uid  # type: ignore[attr-defined]
        return block

    def _init_array(self, block: MemBlock, init: N.Expr, env: List[Dict[str, MemBlock]]) -> None:
        if not isinstance(init, N.InitList):
            raise InterpError("array initializer must be a brace list")
        for i, item in enumerate(init.items):
            if i >= len(block.cells):
                raise MemoryFault("too many array initializer items")
            if isinstance(item, N.InitList):
                inner = block.cells[i]
                if isinstance(inner, MemBlock):
                    self._init_array(inner, item, env)
                elif isinstance(inner, StructValue):
                    struct_type = self.structs.get(inner.tag)
                    for fld, fexpr in zip(struct_type.fields, item.items):
                        inner.fields[fld.name] = self._coerce(
                            self._eval(fexpr, env), fld.type
                        )
                else:
                    raise InterpError("nested initializer for a scalar")
            else:
                block.cells[i] = self._coerce(self._eval(item, env), block.elem_type)

    # -- bookkeeping ---------------------------------------------------------------

    def _charge(self, cost: int) -> None:
        self.steps += cost
        if self.steps > self._max_steps:
            raise InterpLimitExceeded(
                f"step budget of {self._max_steps} exceeded"
            )

    def _charge_heap(self, cells: int) -> None:
        self.heap_cells += cells
        if self.heap_cells > self._max_heap:
            raise InterpLimitExceeded("heap budget exceeded")

    def _coerce(self, value: Any, ctype: T.CType) -> Any:
        resolved = T.strip_typedefs(ctype)
        if isinstance(value, RawAlloc) and isinstance(resolved, T.PointerType):
            pointee = T.strip_typedefs(resolved.pointee)
            elem_size = max(1, pointee.sizeof())
            count = max(1, value.size // elem_size)
            self._charge_heap(count)
            block = MemBlock(
                resolved.pointee,
                [default_value(resolved.pointee, self.structs) for _ in range(count)],
                label="heap",
            )
            return Pointer(block, 0)
        if isinstance(resolved, T.StructType) and isinstance(value, StructValue):
            return value
        return coerce(value, ctype)

    # -- calls -----------------------------------------------------------------------

    def _call_function(
        self, func: N.FunctionDef, args: List[Any], this: Optional[StructValue]
    ) -> Any:
        self.depth += 1
        if self.depth > self._max_depth:
            self.depth -= 1
            raise InterpLimitExceeded(
                f"recursion depth {self._max_depth} exceeded in {func.name!r}"
            )
        self._charge(_COST_CALL)
        scope: Dict[str, MemBlock] = {}
        for param, arg in zip(func.params, args):
            ptype = T.strip_typedefs(param.type)
            if isinstance(ptype, T.ArrayType):
                if isinstance(arg, MemBlock):
                    value: Any = Pointer(arg, 0)
                else:
                    value = arg
            elif isinstance(ptype, T.ReferenceType):
                value = arg  # shared mutable object (stream/struct)
            else:
                value = self._coerce(arg, param.type)
            scope[param.name] = MemBlock(param.type, [value], label=param.name)
        if this is not None:
            scope["this"] = MemBlock(T.PointerType(T.VOID), [this], label="this")
        env = [scope]
        try:
            assert func.body is not None
            self._exec_block(func.body, env)
        except _Return as ret:
            return self._coerce(ret.value, func.return_type) if ret.value is not None else None
        finally:
            self.depth -= 1
        return None

    # -- statements ---------------------------------------------------------------------

    def _exec_block(self, block: N.Compound, env: List[Dict[str, MemBlock]]) -> None:
        env.append({})
        try:
            for stmt in block.items:
                self._exec(stmt, env)
        finally:
            env.pop()

    def _exec(self, stmt: N.Stmt, env: List[Dict[str, MemBlock]]) -> None:
        self._charge(_COST_BRANCH)
        if isinstance(stmt, N.Compound):
            self._exec_block(stmt, env)
        elif isinstance(stmt, N.ExprStmt):
            self._eval(stmt.expr, env)
        elif isinstance(stmt, N.DeclStmt):
            self._exec_decl(stmt.decl, env)
        elif isinstance(stmt, N.If):
            taken = self._truth(self._eval(stmt.cond, env))
            self.coverage.record(stmt.uid, taken)
            if taken:
                self._exec(stmt.then, env)
            elif stmt.other is not None:
                self._exec(stmt.other, env)
        elif isinstance(stmt, N.While):
            while True:
                taken = self._truth(self._eval(stmt.cond, env))
                self.coverage.record(stmt.uid, taken)
                if not taken:
                    break
                try:
                    self._exec(stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
        elif isinstance(stmt, N.DoWhile):
            while True:
                try:
                    self._exec(stmt.body, env)
                except _Break:
                    break
                except _Continue:
                    pass
                taken = self._truth(self._eval(stmt.cond, env))
                self.coverage.record(stmt.uid, taken)
                if not taken:
                    break
        elif isinstance(stmt, N.For):
            env.append({})
            try:
                if stmt.init is not None:
                    self._exec(stmt.init, env)
                while True:
                    if stmt.cond is not None:
                        taken = self._truth(self._eval(stmt.cond, env))
                        self.coverage.record(stmt.uid, taken)
                        if not taken:
                            break
                    try:
                        self._exec(stmt.body, env)
                    except _Break:
                        break
                    except _Continue:
                        pass
                    if stmt.step is not None:
                        self._eval(stmt.step, env)
            finally:
                env.pop()
        elif isinstance(stmt, N.Return):
            value = self._eval(stmt.value, env) if stmt.value is not None else None
            raise _Return(value)
        elif isinstance(stmt, N.Break):
            raise _Break()
        elif isinstance(stmt, N.Continue):
            raise _Continue()
        elif isinstance(stmt, (N.Pragma, N.Empty)):
            pass
        else:  # pragma: no cover - defensive
            raise InterpError(f"cannot execute {type(stmt).__name__}")

    def _exec_decl(self, decl: N.VarDecl, env: List[Dict[str, MemBlock]]) -> None:
        if decl.is_static:
            block = self.statics.get(decl.uid)
            if block is None:
                block = self._make_var_block(decl, env)
                self.statics[decl.uid] = block
            env[-1][decl.name] = block
            return
        block = self._make_var_block(decl, env)
        env[-1][decl.name] = block
        if len(block.cells) == 1 and not isinstance(
            T.strip_typedefs(decl.type), T.ArrayType
        ):
            self.profile.observe(decl.uid, decl.name, block.cells[0])

    # -- name lookup ------------------------------------------------------------------------

    def _lookup(self, name: str, env: List[Dict[str, MemBlock]]) -> Optional[MemBlock]:
        for scope in reversed(env):
            if name in scope:
                return scope[name]
        return self.globals.get(name)

    # -- expressions ---------------------------------------------------------------------------

    def _truth(self, value: Any) -> bool:
        if isinstance(value, Pointer):
            return not value.is_null
        return bool(value)

    def _eval(self, expr: N.Expr, env: List[Dict[str, MemBlock]]) -> Any:
        if isinstance(expr, N.IntLit):
            return expr.value
        if isinstance(expr, N.FloatLit):
            return expr.value
        if isinstance(expr, N.CharLit):
            return expr.value
        if isinstance(expr, N.StringLit):
            return expr.value
        if isinstance(expr, N.Ident):
            block = self._lookup(expr.name, env)
            if block is None:
                raise InterpError(f"undefined identifier {expr.name!r} at line {expr.line}")
            self._charge(_COST_MEM)
            if block.is_array:
                return Pointer(block, 0)
            return block.cells[0]
        if isinstance(expr, N.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, N.UnOp):
            return self._eval_unop(expr, env)
        if isinstance(expr, N.IncDec):
            lval = self._eval_lvalue(expr.operand, env)
            old = lval.load()
            delta = 1 if expr.op == "++" else -1
            if isinstance(old, Pointer):
                new: Any = old.add(delta)
            else:
                new = old + delta
            lval.store(new)
            self._observe_lvalue(expr.operand, lval, env)
            self._charge(_COST_INT_OP)
            return old if expr.postfix else lval.load()
        if isinstance(expr, N.Assign):
            return self._eval_assign(expr, env)
        if isinstance(expr, N.Cond):
            taken = self._truth(self._eval(expr.cond, env))
            self.coverage.record(expr.uid, taken)
            self._charge(_COST_BRANCH)
            return self._eval(expr.then if taken else expr.other, env)
        if isinstance(expr, N.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, N.Index):
            lval = self._eval_lvalue(expr, env)
            self._charge(_COST_MEM)
            value = lval.load()
            if isinstance(value, MemBlock):
                return Pointer(value, 0)
            return value
        if isinstance(expr, N.Member):
            lval = self._eval_lvalue(expr, env)
            self._charge(_COST_MEM)
            return lval.load()
        if isinstance(expr, N.Cast):
            value = self._eval(expr.expr, env)
            return self._coerce(value, expr.to_type)
        if isinstance(expr, N.SizeofType):
            return expr.of_type.sizeof()
        if isinstance(expr, N.SizeofExpr):
            # Approximate: size of the value's runtime representation.
            value = self._eval(expr.expr, env)
            if isinstance(value, Pointer):
                return 8
            if isinstance(value, float):
                return 8
            return 4
        if isinstance(expr, N.InitList):
            return [self._eval(item, env) for item in expr.items]
        raise InterpError(f"cannot evaluate {type(expr).__name__}")

    def _eval_binop(self, expr: N.BinOp, env: List[Dict[str, MemBlock]]) -> Any:
        op = expr.op
        if op == "&&":
            left = self._truth(self._eval(expr.left, env))
            self.coverage.record(expr.uid, left)
            if not left:
                return 0
            return 1 if self._truth(self._eval(expr.right, env)) else 0
        if op == "||":
            left = self._truth(self._eval(expr.left, env))
            self.coverage.record(expr.uid, left)
            if left:
                return 1
            return 1 if self._truth(self._eval(expr.right, env)) else 0
        if op == ",":
            self._eval(expr.left, env)
            return self._eval(expr.right, env)
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        return self._apply_binop(op, left, right)

    def _apply_binop(self, op: str, left: Any, right: Any) -> Any:
        if isinstance(left, Pointer) or isinstance(right, Pointer):
            return self._pointer_binop(op, left, right)
        is_float = isinstance(left, float) or isinstance(right, float)
        self._charge(_COST_DIV if op in ("/", "%") else
                     _COST_FLOAT_OP if is_float else _COST_INT_OP)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise MemoryFault("division by zero")
            if is_float:
                return left / right
            quotient = abs(left) // abs(right)
            return quotient if (left < 0) == (right < 0) else -quotient
        if op == "%":
            if right == 0:
                raise MemoryFault("modulo by zero")
            if is_float:
                import math

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
        raise InterpError(f"unknown binary operator {op!r}")

    def _pointer_binop(self, op: str, left: Any, right: Any) -> Any:
        self._charge(_COST_INT_OP)
        if op == "+" and isinstance(left, Pointer):
            return left.add(int(right))
        if op == "+" and isinstance(right, Pointer):
            return right.add(int(left))
        if op == "-" and isinstance(left, Pointer) and isinstance(right, Pointer):
            if left.block is not right.block:
                raise MemoryFault("subtraction of pointers into different blocks")
            return left.offset - right.offset
        if op == "-" and isinstance(left, Pointer):
            return left.add(-int(right))
        if op in ("==", "!="):
            same = (
                isinstance(left, Pointer)
                and isinstance(right, Pointer)
                and left.block is right.block
                and left.offset == right.offset
            )
            if isinstance(left, Pointer) and not isinstance(right, Pointer):
                same = left.is_null and right == 0
            if isinstance(right, Pointer) and not isinstance(left, Pointer):
                same = right.is_null and left == 0
            return int(same if op == "==" else not same)
        if op in ("<", "<=", ">", ">="):
            if not (isinstance(left, Pointer) and isinstance(right, Pointer)):
                raise MemoryFault("ordered comparison of pointer and integer")
            if left.block is not right.block:
                raise MemoryFault("ordered comparison across blocks")
            return self._apply_binop(op, left.offset, right.offset)
        raise MemoryFault(f"invalid pointer operation {op!r}")

    def _eval_unop(self, expr: N.UnOp, env: List[Dict[str, MemBlock]]) -> Any:
        if expr.op == "&":
            lval = self._eval_lvalue(expr.operand, env)
            if lval.struct is not None:
                # Address of a struct field: box it in a view block.
                raise InterpError("address-of a struct field is unsupported")
            assert lval.block is not None
            return Pointer(lval.block, lval.offset)
        if expr.op == "*":
            value = self._eval(expr.operand, env)
            if not isinstance(value, Pointer):
                raise MemoryFault("dereference of a non-pointer value")
            block = value.deref_block()
            self._charge(_COST_MEM)
            return block.load(value.offset)
        value = self._eval(expr.operand, env)
        self._charge(_COST_INT_OP)
        if expr.op == "-":
            return -value
        if expr.op == "+":
            return value
        if expr.op == "!":
            return int(not self._truth(value))
        if expr.op == "~":
            return ~int(value)
        raise InterpError(f"unknown unary operator {expr.op!r}")

    def _eval_assign(self, expr: N.Assign, env: List[Dict[str, MemBlock]]) -> Any:
        lval = self._eval_lvalue(expr.target, env)
        value = self._eval(expr.value, env)
        if expr.op != "=":
            current = lval.load()
            value = self._apply_binop(expr.op[:-1], current, value)
        value = self._coerce(value, lval.ctype)
        self._charge(_COST_MEM)
        lval.store(value)
        self._observe_lvalue(expr.target, lval, env)
        return lval.load()

    def _observe_lvalue(
        self, target: N.Expr, lval: LValue, env: List[Dict[str, MemBlock]]
    ) -> None:
        """Feed stores to named locals into the value profiler."""
        if isinstance(target, N.Ident):
            decl_uid = self._decl_uid_for(target.name, env)
            if decl_uid is not None:
                self.profile.observe(decl_uid, target.name, lval.load())

    def _decl_uid_for(self, name: str, env: List[Dict[str, MemBlock]]) -> Optional[int]:
        block = self._lookup(name, env)
        if block is None:
            return None
        uid = getattr(block, "_decl_uid", None)
        return uid

    def _eval_lvalue(self, expr: N.Expr, env: List[Dict[str, MemBlock]]) -> LValue:
        if isinstance(expr, N.Ident):
            block = self._lookup(expr.name, env)
            if block is None:
                raise InterpError(f"undefined identifier {expr.name!r} at line {expr.line}")
            return LValue(block.elem_type, block=block, offset=0)
        if isinstance(expr, N.Index):
            base = self._eval(expr.base, env)
            index = int(self._eval(expr.index, env))
            if isinstance(base, MemBlock):
                base = Pointer(base, 0)
            if not isinstance(base, Pointer):
                raise MemoryFault("indexing a non-array value")
            block = base.deref_block()
            offset = base.offset + index
            # Multi-dimensional arrays: the cell itself holds a sub-block.
            block.check(offset)
            return LValue(block.elem_type, block=block, offset=offset)
        if isinstance(expr, N.Member):
            if expr.arrow:
                obj = self._eval(expr.obj, env)
                if isinstance(obj, StructValue):
                    # `this->field`: `this` is bound to the object itself.
                    target: Any = obj
                elif isinstance(obj, Pointer):
                    target = obj.deref_block().load(obj.offset)
                else:
                    raise MemoryFault("-> on a non-pointer value")
            else:
                target = self._eval(expr.obj, env)
                if isinstance(target, Pointer):
                    target = target.deref_block().load(target.offset)
            if isinstance(target, StreamValue):
                raise InterpError("stream members have no lvalue")
            if not isinstance(target, StructValue):
                raise MemoryFault(
                    f"member access {expr.name!r} on a non-struct value"
                )
            ctype = self._field_type(target.tag, expr.name)
            return LValue(ctype, struct=target, field_name=expr.name)
        if isinstance(expr, N.UnOp) and expr.op == "*":
            value = self._eval(expr.operand, env)
            if not isinstance(value, Pointer):
                raise MemoryFault("dereference of a non-pointer value")
            block = value.deref_block()
            return LValue(block.elem_type, block=block, offset=value.offset)
        if isinstance(expr, N.Cast):
            # `*(T*)p = …` style writes; rare, delegate to the inner lvalue.
            return self._eval_lvalue(expr.expr, env)
        raise InterpError(f"{type(expr).__name__} is not an lvalue")

    def _field_type(self, tag: str, name: str) -> T.CType:
        struct_type = self.structs.get(tag)
        if struct_type is not None and struct_type.has_field(name):
            return struct_type.field_type(name)
        return T.INT

    # -- calls ------------------------------------------------------------------------------------

    def _eval_call(self, expr: N.Call, env: List[Dict[str, MemBlock]]) -> Any:
        # Method call: stream ops or struct member functions.
        if isinstance(expr.func, N.Member):
            return self._eval_method_call(expr, env)
        name = expr.callee_name
        if name is None:
            raise InterpError("indirect calls are not supported")
        args = [self._eval(a, env) for a in expr.args]
        if name in self.functions:
            if name == self.capture_calls:
                self.captured.append([self._snapshot_arg(a) for a in args])
            return self._call_function(self.functions[name], args, this=None)
        builtin = BUILTINS.get(name)
        if builtin is not None:
            self._charge(_COST_CALL)
            return builtin(self, args)
        raise InterpError(f"call to undefined function {name!r} at line {expr.line}")

    @staticmethod
    def _snapshot_arg(value: Any) -> Any:
        """Deep-copy an argument value for kernel-seed capture.

        Pointers into arrays are snapshotted as the *contents* from the
        pointed-at offset, because that is what a regenerated test input
        must supply (getKernelSeed, Algorithm 1 line 2).
        """
        if isinstance(value, Pointer):
            if value.is_null:
                return None
            block = value.deref_block()
            return [c_to_python(v) for v in block.cells[value.offset :]]
        return c_to_python(value)

    def _eval_method_call(self, expr: N.Call, env: List[Dict[str, MemBlock]]) -> Any:
        assert isinstance(expr.func, N.Member)
        member = expr.func
        if member.arrow:
            receiver = self._eval(member.obj, env)
            if isinstance(receiver, Pointer):
                receiver = receiver.deref_block().load(receiver.offset)
        else:
            receiver = self._eval(member.obj, env)
            if isinstance(receiver, Pointer):
                receiver = receiver.deref_block().load(receiver.offset)
        args = [self._eval(a, env) for a in expr.args]
        if isinstance(receiver, StreamValue):
            self._charge(_COST_MEM)
            if member.name == "read":
                return receiver.read()
            if member.name == "write":
                receiver.write(args[0])
                return None
            if member.name == "empty":
                return int(receiver.empty())
            if member.name == "size":
                return len(receiver.items)
            raise InterpError(f"unknown stream method {member.name!r}")
        if isinstance(receiver, StructValue):
            method = self.methods.get((receiver.tag, member.name))
            if method is None:
                raise InterpError(
                    f"struct {receiver.tag!r} has no method {member.name!r}"
                )
            return self._call_function(method, args, this=receiver)
        raise InterpError(f"method call on a non-object value: {member.name!r}")


def run_program(
    unit: N.TranslationUnit,
    func_name: str,
    args: List[Any],
    limits: Optional[ExecLimits] = None,
    hls_mode: bool = False,
    capture_calls: str = "",
    backend: Optional[str] = None,
    want_out_args: bool = True,
) -> ExecResult:
    """One-shot convenience wrapper around an execution engine.

    *backend* selects tree / batch / batch-cross (defaulting to the
    process default, see :func:`repro.interp.batch.default_backend`).
    """
    from .batch import make_engine  # deferred: batch imports this module

    engine = make_engine(
        unit,
        backend=backend,
        limits=limits,
        hls_mode=hls_mode,
        capture_calls=capture_calls,
        want_out_args=want_out_args,
    )
    return engine.run(func_name, args)
