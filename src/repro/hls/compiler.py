"""Synthesizability checking — the simulated Vivado HLS front end.

Given a translation unit and a solution configuration, ``compile_unit``
returns a :class:`CompileReport` whose diagnostics reproduce the six
error families of the paper's forum study (Table 1):

* **Dynamic Data Structures** — recursion, ``malloc``/``free``, arrays of
  unknown size (VLAs);
* **Unsupported Data Types** — non-interface pointers, ``long double``,
  implicit conversions on custom HLS float types;
* **Dataflow Optimization** — an array feeding two concurrent dataflow
  stages, array_partition factors that do not divide the array size;
* **Loop Parallelization** — unroll/dataflow pragma interaction (factor
  ≥ 50 under dataflow, post 721719), unrolling variable-bound loops
  without a tripcount, device resource exhaustion;
* **Struct and Union** — structs with member functions but no explicit
  constructor, non-static streams connecting dataflow processes;
* **Top Function** — missing top function, invalid device/clock
  configuration.

A full compile charges minutes of simulated time proportional to design
size; style checks (see :mod:`.stylecheck`) charge half a second.  This
asymmetry is the subject of the Figure 9 ablation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..cfront import nodes as N
from ..cfront import typesys as T
from ..cfront.fingerprint import exact_fp, structural_fp
from ..cfront.printer import count_loc
from ..cfront.visitor import find_all
from ..obs import SPAN_HLS_COMPILE, get_recorder
from . import diagnostics as D
from .clock import ACT_HLS_COMPILE, SimulatedClock
from ..memo import AnalysisCache
from .platform import DEVICES, SolutionConfig
from .pragmas import has_dataflow, loop_pragmas, parse_pragma
from .schedule import estimate, static_tripcount

#: Simulated seconds charged per full compilation: a base plus a
#: per-line cost, landing in the "minutes" regime the paper describes.
COMPILE_BASE_SECONDS = 90.0
COMPILE_SECONDS_PER_LOC = 1.5

#: Sub-analysis memos, content-addressed by AST fingerprints (see
#: :mod:`repro.cfront.fingerprint`).  Diagnostic tuples are keyed by the
#: *exact* fingerprint — equal exact digests mean value-identical
#: subtrees, so the cached diagnostics (which embed node uids) are
#: bit-identical to a recomputation.  Callee sequences depend only on
#: semantic content and use the coarser *structural* fingerprint, which
#: also hits across re-parsed copies.
_DIAG_MEMO = AnalysisCache("compile.check_diags")
_CALLEE_SEQ_MEMO = AnalysisCache("compile.callee_seq")

#: Real (not simulated) invocations of :func:`compile_unit` since process
#: start.  The evaluation cache asserts against this: a cache hit must
#: not re-run the toolchain, so the counter stays put while the simulated
#: clock still records the replayed cost.
_invocation_tally = 0
_invocation_lock = threading.Lock()


def compile_invocations() -> int:
    """How many times the simulated toolchain has actually executed."""
    return _invocation_tally


def compile_seconds_for(unit: N.TranslationUnit) -> float:
    """The simulated cost one full compilation of *unit* will charge."""
    return COMPILE_BASE_SECONDS + COMPILE_SECONDS_PER_LOC * count_loc(unit)


def compile_unit(
    unit: N.TranslationUnit,
    config: SolutionConfig,
    clock: Optional[SimulatedClock] = None,
) -> D.CompileReport:
    """Run all synthesizability checks; charge the simulated clock."""
    global _invocation_tally
    with _invocation_lock:
        _invocation_tally += 1
    rec = get_recorder()
    with rec.span(SPAN_HLS_COMPILE, clock=clock, top=config.top_name):
        checker = _Checker(unit, config)
        report = checker.run()
        report.compile_seconds = compile_seconds_for(unit)
        if clock is not None:
            clock.charge(ACT_HLS_COMPILE, report.compile_seconds)
        if rec.enabled:
            rec.metrics.inc("hls.compile.invocations")
            rec.metrics.observe(
                "hls.compile.sim_seconds", report.compile_seconds
            )
    return report


class _Checker:
    def __init__(self, unit: N.TranslationUnit, config: SolutionConfig) -> None:
        self.unit = unit
        self.config = config
        self.diags: List[D.Diagnostic] = []
        self.functions = {f.name: f for f in unit.functions() if f.body is not None}
        # Every check walks the same call graph and declaration set; the
        # unit is immutable for the lifetime of one compilation, so both
        # are computed once and reused across all ~10 checks.
        self._reachable: Optional[List[N.FunctionDef]] = None
        self._var_decls: Optional[List[N.VarDecl]] = None

    # -- incremental helpers -----------------------------------------------------

    def _memo_diags(
        self,
        check: str,
        func: N.FunctionDef,
        context: Hashable,
        compute: Callable[[], Sequence[D.Diagnostic]],
    ) -> None:
        """Append *compute*'s per-function diagnostics, memoized by the
        function's exact fingerprint plus whatever unit-level *context*
        the check reads.  Each check keeps its own outer loop over the
        reachable functions, so the report's diagnostic order is exactly
        the legacy order whether entries hit or miss."""
        self.diags.extend(
            _DIAG_MEMO.get_or_compute(
                lambda: (check, exact_fp(self.unit, func), context),
                lambda: tuple(compute()),
            )
        )

    def _callee_seq(self, func: N.FunctionDef) -> Tuple[str, ...]:
        """Named callees of *func* in syntactic order, duplicates kept —
        reachability pushes them on a stack, so the sequence (not the
        set) determines traversal order."""

        def compute() -> Tuple[str, ...]:
            assert func.body is not None
            return tuple(
                call.callee_name
                for call in find_all(func.body, N.Call)
                if call.callee_name
            )

        return _CALLEE_SEQ_MEMO.get_or_compute(
            lambda: ("callees", structural_fp(self.unit, func)), compute
        )

    def run(self) -> D.CompileReport:
        self._check_top_function()
        top_ok = not self.diags
        self._check_recursion()
        self._check_dynamic_memory()
        self._check_unknown_arrays()
        self._check_pointers()
        self._check_unsupported_types()
        self._check_implicit_conversions()
        self._check_structs_and_streams()
        self._check_array_partition()
        self._check_dataflow_arguments()
        self._check_loop_pragmas()
        if not self.diags and top_ok:
            self._check_resources()
        return D.CompileReport(diagnostics=list(self.diags))

    # -- Top Function ---------------------------------------------------------

    def _check_top_function(self) -> None:
        problems = self.config.validate()
        for problem in problems:
            if "top function" in problem:
                self.diags.append(D.top_function_error(self.config.top_name))
            else:
                self.diags.append(D.config_error(problem))
        if self.config.top_name and self.config.top_name not in self.functions:
            self.diags.append(D.top_function_error(self.config.top_name))

    # -- Dynamic Data Structures ------------------------------------------------

    def _reachable_functions(self) -> List[N.FunctionDef]:
        """Functions reachable from the top (or all, if top is missing)."""
        if self._reachable is not None:
            return self._reachable
        self._reachable = self._compute_reachable()
        return self._reachable

    def _compute_reachable(self) -> List[N.FunctionDef]:
        start = self.config.top_name
        if start not in self.functions:
            return [f for f in self.functions.values()]
        seen: Set[str] = set()
        order: List[N.FunctionDef] = []
        stack = [start]
        while stack:
            name = stack.pop()
            if name in seen or name not in self.functions:
                continue
            seen.add(name)
            func = self.functions[name]
            order.append(func)
            stack.extend(self._callee_seq(func))
        # Struct methods are reachable whenever their struct is used.
        for decl in self.unit.decls:
            if isinstance(decl, N.StructDef):
                order.extend(m for m in decl.methods if m.body is not None)
        return order

    def _check_recursion(self) -> None:
        graph: Dict[str, Set[str]] = {}
        for func in self._reachable_functions():
            graph[func.name] = set(self._callee_seq(func))
        for name in graph:
            if self._reaches(graph, name, name):
                func = self.functions.get(name)
                uid = func.uid if func else 0
                self.diags.append(D.recursion_error(name, uid))

    @staticmethod
    def _reaches(graph: Dict[str, Set[str]], start: str, goal: str) -> bool:
        stack = list(graph.get(start, ()))
        seen: Set[str] = set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(graph.get(node, ()))
        return False

    def _check_dynamic_memory(self) -> None:
        for func in self._reachable_functions():
            self._memo_diags(
                "dynamic_memory",
                func,
                (),
                lambda f=func: self._dynamic_memory_diags(f),
            )

    def _dynamic_memory_diags(self, func: N.FunctionDef) -> List[D.Diagnostic]:
        assert func.body is not None
        return [
            D.dynamic_alloc_error(self._alloc_symbol(call, func), call.uid)
            for call in find_all(func.body, N.Call)
            if call.callee_name in ("malloc", "calloc", "realloc", "free")
        ]

    @staticmethod
    def _alloc_symbol(call: N.Call, func: N.FunctionDef) -> str:
        return func.name

    def _check_unknown_arrays(self) -> None:
        # Same decl order as the legacy `_all_var_decls` walk: globals
        # first, then each reachable function's locals.
        self.diags.extend(_unknown_array_diags(self.unit.globals()))
        for func in self._reachable_functions():
            self._memo_diags(
                "unknown_arrays",
                func,
                (),
                lambda f=func: _unknown_array_diags(_local_decls(f)),
            )

    # -- Unsupported Data Types ------------------------------------------------------

    def _all_var_decls(self) -> List[N.VarDecl]:
        if self._var_decls is not None:
            return self._var_decls
        decls = list(self.unit.globals())
        for func in self._reachable_functions():
            assert func.body is not None
            decls.extend(d.decl for d in find_all(func.body, N.DeclStmt))
        self._var_decls = decls
        return decls

    def _check_pointers(self) -> None:
        top = self.config.top_name
        for func in self._reachable_functions():
            # Whether the function is the top affects the verdict, so it
            # is part of the memo context.
            self._memo_diags(
                "pointers.params",
                func,
                func.name == top,
                lambda f=func: self._pointer_param_diags(f, f.name == top),
            )
        for decl in self.unit.globals():
            if self._contains_pointer(decl.type):
                self.diags.append(D.pointer_error(decl.name, decl.uid))
        for func in self._reachable_functions():
            self._memo_diags(
                "pointers.locals",
                func,
                (),
                lambda f=func: [
                    D.pointer_error(d.name, d.uid)
                    for d in _local_decls(f)
                    if self._contains_pointer(d.type)
                ],
            )
        for sdef in self.unit.decls:
            if isinstance(sdef, N.StructDef):
                assert isinstance(sdef.type, T.StructType)
                for fld in sdef.type.fields:
                    if self._contains_pointer(fld.type):
                        self.diags.append(
                            D.pointer_error(f"{sdef.tag}.{fld.name}", sdef.uid)
                        )

    def _pointer_param_diags(
        self, func: N.FunctionDef, is_top: bool
    ) -> List[D.Diagnostic]:
        if is_top:
            return []  # top-level pointers are hardware interfaces
        return [
            D.pointer_error(param.name, param.uid)
            for param in func.params
            if self._contains_pointer(param.type)
        ]

    @staticmethod
    def _contains_pointer(ctype: T.CType) -> bool:
        resolved = T.strip_typedefs(ctype)
        if isinstance(resolved, T.PointerType):
            return True
        if isinstance(resolved, T.ArrayType):
            return _Checker._contains_pointer(resolved.elem)
        return False

    def _check_unsupported_types(self) -> None:
        self.diags.extend(_unsupported_type_diags(self.unit.globals()))
        for func in self._reachable_functions():
            self._memo_diags(
                "unsupported.locals",
                func,
                (),
                lambda f=func: _unsupported_type_diags(_local_decls(f)),
            )
        for func in self._reachable_functions():
            self._memo_diags(
                "unsupported.signature",
                func,
                (),
                lambda f=func: self._unsupported_signature_diags(f),
            )

    @staticmethod
    def _unsupported_signature_diags(func: N.FunctionDef) -> List[D.Diagnostic]:
        out: List[D.Diagnostic] = []
        resolved = T.strip_typedefs(func.return_type)
        if isinstance(resolved, T.FloatType) and not resolved.is_synthesizable():
            out.append(D.unsupported_type_error(func.name, str(resolved), func.uid))
        for param in func.params:
            presolved = T.strip_typedefs(param.type)
            if isinstance(presolved, T.FloatType) and not presolved.is_synthesizable():
                out.append(
                    D.unsupported_type_error(param.name, str(presolved), param.uid)
                )
        return out

    def _check_implicit_conversions(self) -> None:
        """Custom HLS float types need explicit casts on mixed-type
        literals (Figure 4: ``in_ld + 1``) and explicit operator overloads
        for their arithmetic (Figure 4's ``sum_80``).

        Functions prefixed ``thls_`` are treated as vendor overload
        library code and exempted — that is where the ``op_overload``
        repair puts the helpers it generates.
        """
        for func in self._reachable_functions():
            self._memo_diags(
                "implicit_conversions",
                func,
                (),
                lambda f=func: self._implicit_conversion_diags(f),
            )

    def _implicit_conversion_diags(self, func: N.FunctionDef) -> List[D.Diagnostic]:
        out: List[D.Diagnostic] = []
        if func.name.startswith("thls_"):
            return out
        assert func.body is not None
        fpga_float_vars = self._fpga_float_vars(func)
        if not fpga_float_vars:
            return out
        for binop in find_all(func.body, N.BinOp):
            if binop.op not in ("+", "-", "*", "/"):
                continue
            sides = (binop.left, binop.right)
            custom = next(
                (
                    s.name
                    for s in sides
                    if isinstance(s, N.Ident) and s.name in fpga_float_vars
                ),
                None,
            )
            if custom is None:
                continue
            if any(isinstance(s, (N.IntLit, N.FloatLit)) for s in sides):
                out.append(D.missing_cast_error(custom, binop.uid))
            else:
                out.append(D.overload_error(custom, binop.uid))
        for assign in find_all(func.body, N.Assign):
            if assign.op == "=":
                continue
            if (
                isinstance(assign.target, N.Ident)
                and assign.target.name in fpga_float_vars
            ):
                out.append(D.overload_error(assign.target.name, assign.uid))
        return out

    def _fpga_float_vars(self, func: N.FunctionDef) -> Set[str]:
        names: Set[str] = set()
        for param in func.params:
            if isinstance(T.strip_typedefs(param.type), T.FpgaFloatType):
                names.add(param.name)
        assert func.body is not None
        for decl_stmt in find_all(func.body, N.DeclStmt):
            if isinstance(T.strip_typedefs(decl_stmt.decl.type), T.FpgaFloatType):
                names.add(decl_stmt.decl.name)
        return names

    # -- Struct and Union ----------------------------------------------------------------

    def _check_structs_and_streams(self) -> None:
        struct_defs: Dict[str, T.StructType] = {}
        for decl in self.unit.decls:
            if isinstance(decl, N.StructDef):
                assert isinstance(decl.type, T.StructType)
                struct_defs[decl.tag] = decl.type
        # The verdict for one function also reads the unit's struct
        # definitions; their canonical reprs join the memo key.
        structs_key = tuple(
            (tag, repr(stype)) for tag, stype in struct_defs.items()
        )
        for func in self._reachable_functions():
            self._memo_diags(
                "structs_streams",
                func,
                structs_key,
                lambda f=func: self._struct_stream_diags(f, struct_defs),
            )

    @staticmethod
    def _struct_stream_diags(
        func: N.FunctionDef, struct_defs: Dict[str, T.StructType]
    ) -> List[D.Diagnostic]:
        out: List[D.Diagnostic] = []
        assert func.body is not None
        in_dataflow = has_dataflow(func)
        for decl_stmt in find_all(func.body, N.DeclStmt):
            decl = decl_stmt.decl
            resolved = T.strip_typedefs(decl.type)
            if isinstance(resolved, T.StructType):
                definition = struct_defs.get(resolved.tag, resolved)
                if definition.method_names and not definition.has_constructor:
                    out.append(D.struct_error(resolved.tag, decl.uid))
            if (
                isinstance(resolved, T.StreamType)
                and in_dataflow
                and not decl.is_static
            ):
                out.append(D.stream_storage_error(decl.name, decl.uid))
        return out

    # -- Dataflow Optimization --------------------------------------------------------------

    def _check_array_partition(self) -> None:
        sizes = self._array_sizes()
        sizes_key = tuple(sorted(sizes.items()))
        for func in self._reachable_functions():
            self._memo_diags(
                "array_partition",
                func,
                sizes_key,
                lambda f=func: self._array_partition_diags(f, sizes),
            )

    @staticmethod
    def _array_partition_diags(
        func: N.FunctionDef, sizes: Dict[str, int]
    ) -> List[D.Diagnostic]:
        out: List[D.Diagnostic] = []
        assert func.body is not None
        for pragma_node in find_all(func.body, N.Pragma):
            pragma = parse_pragma(pragma_node)
            if pragma is None or pragma.directive != "array_partition":
                continue
            factor = pragma.factor
            variable = pragma.variable
            if factor <= 0 or "complete" in pragma.options:
                continue
            size = sizes.get(variable)
            if size is not None and size % factor != 0:
                out.append(
                    D.partition_factor_error(variable, size, factor, pragma_node.uid)
                )
        return out

    def _array_sizes(self) -> Dict[str, int]:
        sizes: Dict[str, int] = {}
        for decl in self._all_var_decls():
            resolved = T.strip_typedefs(decl.type)
            if isinstance(resolved, T.ArrayType) and resolved.size is not None:
                sizes[decl.name] = resolved.size
        for func in self._reachable_functions():
            for param in func.params:
                presolved = T.strip_typedefs(param.type)
                if isinstance(presolved, T.ArrayType) and presolved.size is not None:
                    sizes.setdefault(param.name, presolved.size)
        return sizes

    def _check_dataflow_arguments(self) -> None:
        """Within a dataflow region, every array channel must obey the
        single-producer/single-consumer rule: one array feeding two
        process stages as *input* fails dataflow checking (post 595161),
        as does one written by two stages.  A producer→consumer pair
        (written by one stage, read by the next) is the legal ping-pong
        channel pattern and passes."""
        for func in self._reachable_functions():
            if not has_dataflow(func):
                continue
            assert func.body is not None
            readers: Dict[str, int] = {}
            writers: Dict[str, int] = {}
            first_use_uid: Dict[str, int] = {}
            for stmt in func.body.items:
                if not (isinstance(stmt, N.ExprStmt) and isinstance(stmt.expr, N.Call)):
                    continue
                call = stmt.expr
                callee = (
                    self.functions.get(call.callee_name)
                    if call.callee_name
                    else None
                )
                for position, arg in enumerate(call.args):
                    if not isinstance(arg, N.Ident):
                        continue
                    name = arg.name
                    if not self._is_array_name(func, name):
                        continue
                    first_use_uid.setdefault(name, stmt.uid)
                    if callee is not None and self._param_is_written(
                        callee, position
                    ):
                        writers[name] = writers.get(name, 0) + 1
                    else:
                        readers[name] = readers.get(name, 0) + 1
            for name in set(readers) | set(writers):
                if readers.get(name, 0) >= 2 or writers.get(name, 0) >= 2:
                    self.diags.append(
                        D.dataflow_check_error(name, first_use_uid[name])
                    )

    @staticmethod
    def _param_is_written(callee: N.FunctionDef, position: int) -> bool:
        """Does the callee store through its *position*-th parameter?"""
        if callee.body is None or position >= len(callee.params):
            return True  # unknown: assume the worst
        param_name = callee.params[position].name
        for assign in find_all(callee.body, N.Assign):
            target = assign.target
            if (
                isinstance(target, N.Index)
                and isinstance(target.base, N.Ident)
                and target.base.name == param_name
            ):
                return True
        for incdec in find_all(callee.body, N.IncDec):
            operand = incdec.operand
            if (
                isinstance(operand, N.Index)
                and isinstance(operand.base, N.Ident)
                and operand.base.name == param_name
            ):
                return True
        return False

    def _is_array_name(self, func: N.FunctionDef, name: str) -> bool:
        for param in func.params:
            if param.name == name:
                return isinstance(
                    T.strip_typedefs(param.type), (T.ArrayType, T.PointerType)
                )
        assert func.body is not None
        for decl_stmt in find_all(func.body, N.DeclStmt):
            if decl_stmt.decl.name == name:
                return isinstance(
                    T.strip_typedefs(decl_stmt.decl.type), T.ArrayType
                )
        for decl in self.unit.globals():
            if decl.name == name:
                return isinstance(T.strip_typedefs(decl.type), T.ArrayType)
        return False

    # -- Loop Parallelization ---------------------------------------------------------------

    def _check_loop_pragmas(self) -> None:
        for func in self._reachable_functions():
            self._memo_diags(
                "loop_pragmas",
                func,
                (),
                lambda f=func: self._loop_pragma_diags(f),
            )

    @staticmethod
    def _loop_pragma_diags(func: N.FunctionDef) -> List[D.Diagnostic]:
        out: List[D.Diagnostic] = []
        assert func.body is not None
        dataflow = has_dataflow(func)
        for loop in find_all(func.body, N.For) + list(find_all(func.body, N.While)):
            body = loop.body
            pragmas = loop_pragmas(body)
            unroll = next((p for p in pragmas if p.directive == "unroll"), None)
            if unroll is None:
                continue
            factor = unroll.factor
            if dataflow and factor >= 50:
                # Post 721719: interacting dataflow + large unroll.
                out.append(
                    D.presynthesis_error(
                        f"unroll factor {factor} interacts with the "
                        "enclosing dataflow region",
                        func.name,
                        loop.uid,
                    )
                )
            static_n = static_tripcount(loop) if isinstance(loop, N.For) else None
            has_tripcount = any(p.directive == "loop_tripcount" for p in pragmas)
            if factor > 1 and static_n is None and not has_tripcount:
                out.append(D.loop_bound_error(func.name, loop.uid))
        return out

    # -- Resources ---------------------------------------------------------------------------

    def _check_resources(self) -> None:
        report = estimate(self.unit, self.config)
        device = DEVICES.get(self.config.device)
        if device is None:
            return
        for resource, used, available in report.resources.overflows(device):
            self.diags.append(D.resource_error(resource, used, available))


def _local_decls(func: N.FunctionDef) -> List[N.VarDecl]:
    assert func.body is not None
    return [d.decl for d in find_all(func.body, N.DeclStmt)]


def _unknown_array_diags(decls: Sequence[N.VarDecl]) -> List[D.Diagnostic]:
    out: List[D.Diagnostic] = []
    for decl in decls:
        resolved = T.strip_typedefs(decl.type)
        if isinstance(resolved, T.ArrayType) and resolved.size is None:
            out.append(D.unknown_size_error(decl.name, decl.uid))
    return out


def _unsupported_type_diags(decls: Sequence[N.VarDecl]) -> List[D.Diagnostic]:
    out: List[D.Diagnostic] = []
    for decl in decls:
        resolved = T.strip_typedefs(decl.type)
        if isinstance(resolved, T.FloatType) and not resolved.is_synthesizable():
            out.append(D.unsupported_type_error(decl.name, str(resolved), decl.uid))
    return out
