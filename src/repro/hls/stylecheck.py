"""Lightweight HLS coding-style checker.

This is the reproduction of HeteroGen's "LLVM front-end for HLS" (§5.3):
a *cheap* structural check that rejects candidates violating HLS coding
styles before the expensive full compilation is ever invoked.  The
``WithoutChecker`` ablation (Figure 9) simply skips this gate.

Style rules checked (all are placement/shape rules, not semantic ones):

1. every ``#pragma HLS`` names a known directive;
2. loop-scoped pragmas (``pipeline``, ``unroll``, ``loop_tripcount``)
   appear only at the head of a loop body;
3. function-scoped pragmas (``dataflow``, ``interface``, ``inline``)
   appear only at the top level of a function body;
4. ``array_partition variable=X`` names an array visible at the point of
   the pragma (same function or a global);
5. ``unroll``/``pipeline`` option values are positive integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from ..cfront import nodes as N
from ..cfront import typesys as T
from ..cfront.fingerprint import decl_record
from ..obs import SPAN_STYLE_CHECK, get_recorder
from .clock import ACT_STYLE_CHECK, SimulatedClock
from .pragmas import FUNCTION_SCOPE, KNOWN_DIRECTIVES, LOOP_SCOPE, parse_pragma

#: Simulated cost of one style check, in seconds.  Negligible next to a
#: full HLS compilation — which is the whole point (§5.3).
STYLE_CHECK_SECONDS = 0.5


@dataclass(frozen=True)
class StyleViolation:
    message: str
    node_uid: int = 0

    def __str__(self) -> str:
        return f"style: {self.message}"


def check_style(
    unit: N.TranslationUnit,
    clock: Optional[SimulatedClock] = None,
) -> List[StyleViolation]:
    """Run all style rules; an empty list means the candidate may proceed
    to full compilation.  When *clock* is given, the (cheap) simulated
    cost of the check is charged to it."""
    rec = get_recorder()
    with rec.span(SPAN_STYLE_CHECK, clock=clock):
        if clock is not None:
            clock.charge(ACT_STYLE_CHECK, STYLE_CHECK_SECONDS)
        violations: List[StyleViolation] = []
        for func in unit.functions():
            if func.body is None:
                continue
            violations.extend(_check_function(unit, func))
        # Top-level pragmas outside any function are always misplaced.
        for decl in unit.decls:
            if isinstance(decl, N.Pragma):
                parsed = parse_pragma(decl)
                if parsed is not None:
                    violations.append(
                        StyleViolation(
                            f"pragma 'HLS {parsed.directive}' outside any "
                            "function",
                            decl.uid,
                        )
                    )
        if rec.enabled:
            rec.metrics.inc("style.checks")
            if violations:
                rec.metrics.inc("style.rejections")
    return violations


def _check_function(
    unit: N.TranslationUnit, func: N.FunctionDef
) -> List[StyleViolation]:
    violations: List[StyleViolation] = []
    assert func.body is not None
    visible_arrays = _visible_arrays(unit, func)
    _walk_stmts(func.body, True, False, visible_arrays, violations)
    return violations


def _visible_arrays(unit: N.TranslationUnit, func: N.FunctionDef) -> Set[str]:
    names: Set[str] = set()
    for decl in unit.globals():
        if isinstance(T.strip_typedefs(decl.type), T.ArrayType):
            names.add(decl.name)
    for param in func.params:
        resolved = T.strip_typedefs(param.type)
        if isinstance(resolved, (T.ArrayType, T.PointerType)):
            names.add(param.name)
    for decl_stmt in decl_record(unit, func).decl_stmts:
        if isinstance(T.strip_typedefs(decl_stmt.decl.type), T.ArrayType):
            names.add(decl_stmt.decl.name)
    return names


def _walk_stmts(
    stmt: N.Stmt,
    at_function_top: bool,
    at_loop_head: bool,
    visible_arrays: Set[str],
    violations: List[StyleViolation],
) -> None:
    if isinstance(stmt, N.Compound):
        head = at_loop_head
        for item in stmt.items:
            if isinstance(item, N.Pragma):
                _check_pragma(item, at_function_top, head, visible_arrays, violations)
            else:
                head = False  # pragmas after real statements are not at head
                _walk_stmts(item, False, False, visible_arrays, violations)
        return
    if isinstance(stmt, (N.While, N.DoWhile, N.For)):
        body = stmt.body
        _walk_stmts(_as_compound(body), False, True, visible_arrays, violations)
        return
    if isinstance(stmt, N.If):
        _walk_stmts(_as_compound(stmt.then), False, False, visible_arrays, violations)
        if stmt.other is not None:
            _walk_stmts(
                _as_compound(stmt.other), False, False, visible_arrays, violations
            )
        return
    if isinstance(stmt, N.Pragma):
        _check_pragma(stmt, at_function_top, at_loop_head, visible_arrays, violations)


def _as_compound(stmt: N.Stmt) -> N.Compound:
    if isinstance(stmt, N.Compound):
        return stmt
    return N.Compound(items=[stmt])


def _check_pragma(
    node: N.Pragma,
    at_function_top: bool,
    at_loop_head: bool,
    visible_arrays: Set[str],
    violations: List[StyleViolation],
) -> None:
    pragma = parse_pragma(node)
    if pragma is None:
        return  # non-HLS pragma: none of our business
    if pragma.directive not in KNOWN_DIRECTIVES:
        violations.append(
            StyleViolation(f"unknown HLS directive '{pragma.directive}'", node.uid)
        )
        return
    if pragma.directive in LOOP_SCOPE and not at_loop_head:
        violations.append(
            StyleViolation(
                f"'HLS {pragma.directive}' must appear at the head of a loop body",
                node.uid,
            )
        )
    if pragma.directive in FUNCTION_SCOPE and not at_function_top:
        violations.append(
            StyleViolation(
                f"'HLS {pragma.directive}' must appear at function top level",
                node.uid,
            )
        )
    if pragma.directive == "array_partition":
        variable = pragma.variable
        if not variable:
            violations.append(
                StyleViolation("'HLS array_partition' requires variable=", node.uid)
            )
        elif variable not in visible_arrays:
            violations.append(
                StyleViolation(
                    f"'HLS array_partition' names unknown array '{variable}'",
                    node.uid,
                )
            )
    if pragma.directive == "unroll" and "factor" in pragma.options:
        if pragma.factor <= 0:
            violations.append(
                StyleViolation("'HLS unroll' factor must be positive", node.uid)
            )
    if pragma.directive == "pipeline" and "ii" in pragma.options:
        if pragma.int_option("ii") <= 0:
            violations.append(
                StyleViolation("'HLS pipeline' II must be positive", node.uid)
            )
