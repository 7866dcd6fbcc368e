"""HLS scheduling and latency/resource estimation.

This module replaces the timing side of Vivado HLS synthesis + RTL
co-simulation.  It walks the design bottom-up over the call graph and
computes, per function, an estimated cycle count and resource usage,
honouring the pragmas the repair engine experiments with:

* ``pipeline II=k``   — innermost loops run with initiation interval *k*
  (``cycles ≈ depth + (N-1)·k``) provided the body has no nested loops;
* ``unroll factor=F`` — *F* iterations execute concurrently, but the
  effective parallelism is capped by memory ports: 2 for an unpartitioned
  array, ``2·P`` once ``array_partition factor=P`` applies; resources
  scale with *F*;
* ``dataflow``        — sibling call stages overlap, so the function's
  latency is the *maximum* stage latency instead of the sum;
* narrow ``fpga_int<N>``/``fpga_float<E,M>`` types shrink both operator
  latency and LUT/DSP cost, which is why bitwidth finitization (§4) is a
  performance edit, not just a correctness one.

The absolute numbers are a model, not a measured testbed; what matters
for the reproduction is that the model rewards the same edits the real
toolchain rewards (see DESIGN.md).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..cfront import nodes as N
from ..cfront import typesys as T
from ..cfront.fingerprint import DeclRecord, decl_record, structural_fp
from ..cfront.visitor import find_all
from ..obs import SPAN_SCHEDULE, get_recorder
from ..memo import AnalysisCache
from .platform import OFFLOAD_OVERHEAD_NS, ResourceUsage, SolutionConfig
from .pragmas import function_pragmas, loop_pragmas, parse_pragma

#: Default tripcount guess for loops whose bound the model cannot see.
DEFAULT_TRIPCOUNT = 16

#: Per-function cost memo.  The value is a pure snapshot
#: ``(cycles, resource 4-tuple)``; the key (see
#: :meth:`Scheduler._cost_key`) covers the function's structural
#: fingerprint, the fingerprints of every transitive callee, and the
#: unit-level typing context.
_COST_MEMO = AnalysisCache("schedule.function_cost")


@dataclass
class ScheduleReport:
    """Outcome of scheduling one design."""

    cycles: float
    resources: ResourceUsage
    clock_period_ns: float

    @property
    def kernel_latency_ns(self) -> float:
        return self.cycles * self.clock_period_ns

    @property
    def total_latency_ns(self) -> float:
        """Kernel latency plus the CPU↔FPGA offload overhead."""
        return self.kernel_latency_ns + OFFLOAD_OVERHEAD_NS


@dataclass
class _FuncCost:
    cycles: float
    resources: ResourceUsage


class Scheduler:
    """Bottom-up static scheduler over a translation unit."""

    def __init__(self, unit: N.TranslationUnit, config: SolutionConfig) -> None:
        self.unit = unit
        self.config = config
        self.functions: Dict[str, N.FunctionDef] = {
            f.name: f for f in unit.functions() if f.body is not None
        }
        self._cost_cache: Dict[str, _FuncCost] = {}
        self._in_progress: Set[str] = set()
        self.report = ScheduleReport(
            cycles=0.0,
            resources=ResourceUsage(),
            clock_period_ns=config.clock_period_ns,
        )
        #: arrays partitioned in the current function: name -> factor
        self._partitions: Dict[str, int] = {}
        #: typing environment of the current function (set per function).
        self._env = None
        #: the functions' declaration records by uid, each read once.
        self._records: Dict[int, DeclRecord] = {
            f.uid: decl_record(unit, f)
            for f in unit.functions()
            if f.body is not None
        }
        #: per-scheduler memo of cost fingerprints; None marks functions
        #: on a recursive cycle (never memoized globally).
        self._fp_cache: Dict[str, Optional[str]] = {}
        self._env_key_cache: Optional[str] = None

    # -- public ----------------------------------------------------------------

    def schedule(self) -> ScheduleReport:
        top = self.functions.get(self.config.top_name)
        if top is None:
            # Nothing to schedule; report an "infinite" latency so an
            # unbuildable design never wins a fitness comparison.
            self.report.cycles = math.inf
            return self.report
        cost = self._function_cost(top.name)
        self.report.cycles = cost.cycles + self._io_cycles(top)
        self.report.resources = cost.resources
        self.report.resources.add(self._memory_resources())
        return self.report

    def _io_cycles(self, top: N.FunctionDef) -> float:
        """DMA transfer cost: every element of an interface array must
        cross the bus once (1 element/cycle burst)."""
        cycles = 0.0
        for param in top.params:
            resolved = T.strip_typedefs(param.type)
            if isinstance(resolved, T.ArrayType):
                cycles += resolved.size or DEFAULT_TRIPCOUNT
            elif isinstance(resolved, (T.StreamType, T.ReferenceType)):
                cycles += DEFAULT_TRIPCOUNT
        return cycles

    # -- function-level -----------------------------------------------------------

    def _function_cost(self, name: str) -> _FuncCost:
        cached = self._cost_cache.get(name)
        if cached is not None:
            return cached
        if name in self._in_progress:
            # Recursion: synthesizability checking rejects it before
            # scheduling, but stay safe if called out of order.
            return _FuncCost(cycles=math.inf, resources=ResourceUsage())
        # A hit installs a fresh resource object: callers mutate it.
        cycles, res = _COST_MEMO.get_or_compute(
            lambda: self._cost_key(name), lambda: self._measure_cost(name)
        )
        cost = _FuncCost(
            cycles=cycles,
            resources=ResourceUsage(
                luts=res[0], ffs=res[1], bram_36k=res[2], dsps=res[3]
            ),
        )
        self._cost_cache[name] = cost
        return cost

    def _measure_cost(self, name: str) -> Tuple[float, Tuple[int, int, int, int]]:
        """Walk one function and return its cost as a pure snapshot.

        Caller-scoped state (``_partitions``, ``_env``) is saved and
        restored, keeping the walk a pure function of (function content,
        callees, unit context) — the property the memo key relies on.
        """
        func = self.functions[name]
        assert func.body is not None
        saved_partitions = self._partitions
        saved_env = self._env
        self._in_progress.add(name)
        try:
            self._partitions = self._collect_partitions(func)
            from ..core.typing import TypeEnv

            self._env = TypeEnv(self.unit, func)
            if any(p.directive == "dataflow" for p in function_pragmas(func)):
                cost = self._dataflow_cost(func)
            else:
                cycles, resources = self._stmts_cost(func.body.items)
                cost = _FuncCost(cycles, resources)
        finally:
            self._in_progress.discard(name)
            self._partitions = saved_partitions
            self._env = saved_env
        res = cost.resources
        return cost.cycles, (res.luts, res.ffs, res.bram_36k, res.dsps)

    # -- cost fingerprints ---------------------------------------------------------

    def _cost_key(self, name: str) -> Optional[Tuple[str, str, str]]:
        """Global memo key for one function's cost, or None (computed
        uncached) when the function sits on (or calls into) a recursive
        cycle."""
        fp = self._cost_fp(name)
        if fp is None:
            return None
        return ("func_cost", fp, self._env_key())

    def _cost_fp(self, name: str, _stack: Optional[Set[str]] = None) -> Optional[str]:
        """Content fingerprint of everything a function's cost depends on
        below the unit context: its own structural digest plus, per call
        site, the callee's cost fingerprint (or an ``extern`` marker for
        names the scheduler treats as builtins)."""
        if name in self._fp_cache:
            return self._fp_cache[name]
        if _stack is None:
            _stack = set()
        if name in _stack:
            return None  # recursive cycle: fall back to the uncached walk
        func = self.functions.get(name)
        if func is None or func.body is None:
            return None
        _stack.add(name)
        digest = hashlib.sha256()
        record = self._records[func.uid]
        digest.update(record.structural.encode())
        acyclic = True
        for call in record.calls:
            callee = call.callee_name
            if not callee:
                continue
            if callee in self.functions:
                sub = self._cost_fp(callee, _stack)
                if sub is None:
                    acyclic = False
                    break
                digest.update(f"|{callee}={sub}".encode())
            else:
                digest.update(f"|{callee}=extern".encode())
        _stack.discard(name)
        value = digest.hexdigest() if acyclic else None
        self._fp_cache[name] = value
        return value

    def _env_key(self) -> str:
        """Digest of the unit-level context a function-cost walk reads:
        every non-function declaration (globals, structs, typedefs feed
        ``TypeEnv``/``infer_type``) and every function's name and return
        type.  Function *bodies* are deliberately excluded — they enter
        via :meth:`_cost_fp` only where actually called."""
        if self._env_key_cache is None:
            digest = hashlib.sha256()
            for decl in self.unit.decls:
                if isinstance(decl, N.FunctionDef):
                    digest.update(
                        f"f:{decl.name}:{decl.return_type!r}|".encode()
                    )
                elif not isinstance(decl, N.Pragma):
                    digest.update(structural_fp(self.unit, decl).encode())
                    digest.update(b"|")
            self._env_key_cache = digest.hexdigest()
        return self._env_key_cache

    def _collect_partitions(self, func: N.FunctionDef) -> Dict[str, int]:
        partitions: Dict[str, int] = {}
        for pragma_node in self._records[func.uid].pragmas:
            pragma = parse_pragma(pragma_node)
            if pragma is not None and pragma.directive == "array_partition":
                factor = pragma.factor or 2
                if "complete" in pragma.options:
                    factor = 1 << 16
                partitions[pragma.variable] = factor
        return partitions

    def _dataflow_cost(self, func: N.FunctionDef) -> _FuncCost:
        """Dataflow: stage latencies overlap; take the max + startup."""
        assert func.body is not None
        stage_cycles: List[float] = []
        other_cycles = 0.0
        resources = ResourceUsage()
        for stmt in func.body.items:
            cycles, res = self._stmts_cost([stmt])
            resources.add(res)
            if isinstance(stmt, N.ExprStmt) and isinstance(stmt.expr, N.Call):
                stage_cycles.append(cycles)
            else:
                other_cycles += cycles
        if not stage_cycles:
            return _FuncCost(other_cycles, resources)
        # Streaming overlap: dominated by the slowest stage; earlier
        # stages contribute a pipeline fill fraction.
        fill = sum(stage_cycles) - max(stage_cycles)
        cycles = max(stage_cycles) + 0.1 * fill + other_cycles
        return _FuncCost(cycles, resources)

    # -- statements ------------------------------------------------------------------

    def _stmts_cost(self, stmts: List[N.Stmt]) -> Tuple[float, ResourceUsage]:
        cycles = 0.0
        resources = ResourceUsage()
        for stmt in stmts:
            c, r = self._stmt_cost(stmt)
            cycles += c
            resources.add(r)
        return cycles, resources

    def _stmt_cost(self, stmt: N.Stmt) -> Tuple[float, ResourceUsage]:
        if isinstance(stmt, N.Compound):
            return self._stmts_cost(stmt.items)
        if isinstance(stmt, (N.Pragma, N.Empty, N.Break, N.Continue)):
            return 0.0, ResourceUsage()
        if isinstance(stmt, N.DeclStmt):
            if stmt.decl.init is not None:
                return self._expr_cost(stmt.decl.init)
            return 0.0, ResourceUsage()
        if isinstance(stmt, N.ExprStmt):
            return self._expr_cost(stmt.expr)
        if isinstance(stmt, N.Return):
            if stmt.value is not None:
                return self._expr_cost(stmt.value)
            return 0.0, ResourceUsage()
        if isinstance(stmt, N.If):
            cond_c, cond_r = self._expr_cost(stmt.cond)
            then_c, then_r = self._stmt_cost(stmt.then)
            else_c, else_r = (
                self._stmt_cost(stmt.other) if stmt.other else (0.0, ResourceUsage())
            )
            cond_r.add(then_r)
            cond_r.add(else_r)
            # Hardware evaluates both sides; latency is the worse one.
            return cond_c + max(then_c, else_c), cond_r
        if isinstance(stmt, (N.While, N.DoWhile)):
            return self._loop_cost(stmt, stmt.body, None)
        if isinstance(stmt, N.For):
            return self._loop_cost(stmt, stmt.body, static_tripcount(stmt))
        return 1.0, ResourceUsage()

    # -- loops ------------------------------------------------------------------------

    def _loop_cost(
        self, loop: N.Stmt, body: N.Stmt, static_n: Optional[int]
    ) -> Tuple[float, ResourceUsage]:
        pragmas = loop_pragmas(body)
        tripcount = static_n
        for pragma in pragmas:
            if pragma.directive == "loop_tripcount":
                lo = pragma.int_option("min", 0)
                hi = pragma.int_option("max", lo)
                avg = pragma.int_option("avg", (lo + hi) // 2 or DEFAULT_TRIPCOUNT)
                if tripcount is None:
                    tripcount = avg
        if tripcount is None:
            tripcount = DEFAULT_TRIPCOUNT
        body_cycles, body_res = self._stmt_cost(body)
        body_cycles = max(body_cycles, 1.0)
        has_nested_loop = any(
            isinstance(n, (N.For, N.While, N.DoWhile)) for n in body.walk()
            if n is not body
        ) or self._body_calls_loopy(body)

        pipeline = next((p for p in pragmas if p.directive == "pipeline"), None)
        unroll = next((p for p in pragmas if p.directive == "unroll"), None)

        cycles: float
        resources = body_res
        if unroll is not None:
            factor = max(1, unroll.factor or tripcount)
            factor = min(factor, max(1, tripcount))
            parallel = min(factor, self._memory_parallelism(body))
            iterations = math.ceil(tripcount / factor)
            cycles = iterations * body_cycles * (factor / max(parallel, 1))
            resources = body_res.scaled(factor)
        elif pipeline is not None and not has_nested_loop:
            ii = max(1, pipeline.int_option("ii", 1))
            cycles = body_cycles + max(0, tripcount - 1) * ii
        else:
            cycles = tripcount * (body_cycles + 1.0)  # +1: loop control
        return cycles, resources

    def _body_calls_loopy(self, body: N.Stmt) -> bool:
        for call in find_all(body, N.Call):
            func = self.functions.get(call.callee_name)
            if func is not None and self._records[func.uid].loops:
                return True
        return False

    def _memory_parallelism(self, body: N.Stmt) -> int:
        """How many concurrent iterations memory ports can feed."""
        indexed = {
            idx.base.name
            for idx in find_all(body, N.Index)
            if isinstance(idx.base, N.Ident)
        }
        if not indexed:
            return 1 << 16  # pure compute: no memory bottleneck
        best = 1 << 16
        for name in indexed:
            factor = self._partitions.get(name, 1)
            ports = 2 * factor  # dual-port BRAM per partition
            best = min(best, ports)
        return best

    # -- expressions --------------------------------------------------------------------

    def _expr_cost(self, expr: N.Expr) -> Tuple[float, ResourceUsage]:
        cycles = 0.0
        resources = ResourceUsage()
        for node in expr.walk():
            c, r = self._node_cost(node)
            cycles += c
            resources.add(r)
        return cycles, resources

    def _operand_bits(self, *operands: N.Expr) -> int:
        """Widest integer operand width, or 32 when unknown/float.

        Finitized ``fpga_int<N>`` operands make operators both faster and
        cheaper — this is why the paper's bitwidth estimation (§4) is a
        performance edit, not only a resource one.
        """
        from ..core.typing import infer_type

        env = getattr(self, "_env", None)
        if env is None:
            return 32
        widest = 0
        for operand in operands:
            if isinstance(operand, N.IntLit):
                # A constant synthesizes at its own width, not int32's.
                widest = max(widest, operand.value.bit_length() + 1)
                continue
            inferred = infer_type(operand, env)
            if inferred is None:
                return 32
            resolved = T.strip_typedefs(inferred)
            if isinstance(resolved, (T.IntType, T.FpgaIntType)):
                widest = max(widest, resolved.bits)
            else:
                return 32  # floats / pointers: full-width datapath
        return widest or 32

    def _node_cost(self, node: N.Node) -> Tuple[float, ResourceUsage]:
        if isinstance(node, N.BinOp):
            return self._op_cost(
                node.op, self._operand_bits(node.left, node.right)
            )
        if isinstance(node, N.Assign) and node.op != "=":
            return self._op_cost(
                node.op[:-1], self._operand_bits(node.target, node.value)
            )
        if isinstance(node, N.IncDec):
            return 1.0, ResourceUsage(luts=16)
        if isinstance(node, N.Index):
            name = node.base.name if isinstance(node.base, N.Ident) else ""
            partitioned = self._partitions.get(name, 0) > 0
            return (1.0 if partitioned else 2.0), ResourceUsage(luts=8)
        if isinstance(node, N.Member):
            return 1.0, ResourceUsage(luts=4)
        if isinstance(node, N.Call):
            name = node.callee_name
            if name and name in self.functions:
                cost = self._function_cost(name)
                return cost.cycles + 2.0, cost.resources
            if isinstance(node.func, N.Member):
                return 1.0, ResourceUsage(luts=8)  # stream read/write
            return self._builtin_cost(name or "")
        return 0.0, ResourceUsage()

    def _op_cost(self, op: str, bits: int = 32) -> Tuple[float, ResourceUsage]:
        # Narrow datapaths shrink linearly in area; multipliers and
        # dividers also finish in fewer cycles below one DSP column.
        scale = max(bits, 2) / 32.0
        if op in ("+", "-", "&", "|", "^", "<<", ">>", "<", "<=", ">", ">=", "==", "!="):
            return 1.0, ResourceUsage(luts=int(32 * scale) + 1,
                                      ffs=int(32 * scale) + 1)
        if op == "*":
            cycles = 3.0 if bits > 18 else 1.0
            dsps = 3 if bits > 18 else 1
            return cycles, ResourceUsage(dsps=dsps, luts=int(64 * scale) + 1)
        if op in ("/", "%"):
            cycles = max(4.0, 18.0 * scale)
            return cycles, ResourceUsage(luts=int(600 * scale) + 1,
                                         ffs=int(400 * scale) + 1)
        if op in ("&&", "||", ","):
            return 0.5, ResourceUsage(luts=4)
        return 1.0, ResourceUsage(luts=16)

    _BUILTIN_CYCLES = {
        "sqrt": 12.0, "sqrtf": 10.0, "sin": 20.0, "cos": 20.0, "tan": 24.0,
        "exp": 18.0, "log": 18.0, "pow": 30.0, "powl": 34.0,
        "fabs": 1.0, "fabsf": 1.0, "abs": 1.0, "fmin": 1.0, "fmax": 1.0,
        "floor": 2.0, "ceil": 2.0, "fmod": 20.0,
    }

    def _builtin_cost(self, name: str) -> Tuple[float, ResourceUsage]:
        cycles = self._BUILTIN_CYCLES.get(name, 2.0)
        return cycles, ResourceUsage(luts=int(cycles * 40), dsps=2 if cycles > 4 else 0)

    # -- memories ------------------------------------------------------------------------

    def _memory_resources(self) -> ResourceUsage:
        """BRAM for every static array in the design, scaled by bitwidth."""
        usage = ResourceUsage()
        arrays: List[Tuple[T.ArrayType, int]] = []
        for decl in self.unit.globals():
            resolved = T.strip_typedefs(decl.type)
            if isinstance(resolved, T.ArrayType):
                arrays.append((resolved, 1))
        for func in self.unit.functions():
            if func.body is None:
                continue
            for decl_stmt in self._records[func.uid].decl_stmts:
                resolved = T.strip_typedefs(decl_stmt.decl.type)
                if isinstance(resolved, T.ArrayType):
                    arrays.append((resolved, 1))
        for array_type, count in arrays:
            bits = _total_bits(array_type)
            usage.bram_36k += max(1, math.ceil(bits / 36_864)) * count
        return usage


def static_tripcount(loop: N.For) -> Optional[int]:
    """Recover N from the canonical ``for (i = a; i < b; i += s)``.

    Module-level (it reads nothing but the loop) so callers like the
    loop-pragma synthesizability check don't have to construct a whole
    Scheduler per loop just to ask this question."""
    start = stop = step = None
    if isinstance(loop.init, N.DeclStmt) and isinstance(loop.init.decl.init, N.IntLit):
        start = loop.init.decl.init.value
    elif (
        isinstance(loop.init, N.ExprStmt)
        and isinstance(loop.init.expr, N.Assign)
        and isinstance(loop.init.expr.value, N.IntLit)
    ):
        start = loop.init.expr.value.value
    if isinstance(loop.cond, N.BinOp) and isinstance(loop.cond.right, N.IntLit):
        if loop.cond.op in ("<", "<="):
            stop = loop.cond.right.value + (1 if loop.cond.op == "<=" else 0)
    if isinstance(loop.step, N.IncDec):
        step = 1
    elif (
        isinstance(loop.step, N.Assign)
        and loop.step.op == "+="
        and isinstance(loop.step.value, N.IntLit)
    ):
        step = loop.step.value.value
    if start is None or stop is None or not step:
        return None
    return max(0, math.ceil((stop - start) / step))


def _total_bits(array_type: T.ArrayType) -> int:
    size = array_type.size or DEFAULT_TRIPCOUNT
    elem = T.strip_typedefs(array_type.elem)
    if isinstance(elem, T.ArrayType):
        return size * _total_bits(elem)
    if isinstance(elem, (T.IntType,)):
        bits = elem.bits
    elif isinstance(elem, T.FpgaIntType):
        bits = elem.bits
    elif isinstance(elem, T.FloatType):
        bits = elem.bits
    elif isinstance(elem, T.FpgaFloatType):
        bits = 1 + elem.exp_bits + elem.mant_bits
    else:
        bits = elem.sizeof() * 8
    return size * bits


def estimate(unit: N.TranslationUnit, config: SolutionConfig) -> ScheduleReport:
    """Schedule *unit* for *config* and return the latency/resource report.

    Per-function costs come from the ``schedule.function_cost`` memo, so
    re-scheduling a candidate that differs from its parent by one edit
    recomputes only the edited function and its callers."""
    with get_recorder().span(SPAN_SCHEDULE, top=config.top_name):
        return Scheduler(unit, config).schedule()
