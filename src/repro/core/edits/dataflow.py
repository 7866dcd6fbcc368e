"""Edits for the *Dataflow Optimization* error family (Table 2, row 3).

* ``insert($p1:pragma, $f1:func)`` / ``delete`` / ``move`` — manipulate
  the ``dataflow`` pragma;
* ``split($a1:arr)`` — the fix from post 595161: when one array feeds two
  concurrent dataflow stages, duplicate it into an independent buffer so
  the stages can run simultaneously;
* ``partition_fix($a1:arr)`` — reconcile an ``array_partition`` factor
  with the array size, either by snapping the factor to a divisor or by
  padding the array to the next multiple (the XFORM-711 example from §2).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ...cfront import nodes as N
from ...cfront import typesys as T
from ...cfront.parser import parse_fragment_stmts
from ...cfront.visitor import find_all
from ...hls.diagnostics import ErrorType
from ...hls.pragmas import has_dataflow, parse_pragma
from .base import Candidate, Edit, EditApplication, cloned_unit


class DeleteDataflowEdit(Edit):
    """``delete($p1:pragma, $f1:func)``: drop a troublesome dataflow pragma."""

    name = "delete"
    error_type = ErrorType.DATAFLOW_OPTIMIZATION
    signature = "delete($p1:pragma, $f1:func)"

    def propose(self, candidate, diagnostics, context):
        relevant = [
            d for d in diagnostics
            if d.error_type == ErrorType.DATAFLOW_OPTIMIZATION
        ]
        if not relevant:
            return []
        out: List[EditApplication] = []
        for func in candidate.unit.functions():
            if func.body is None or not has_dataflow(func):
                continue
            label = f"delete(dataflow, {func.name})"
            if label in candidate.applied:
                continue
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, name=func.name, label=label:
                        self._apply(cand, name, label),
                    performance_hint=-1.0,  # losing dataflow costs speed
                )
            )
        return out

    def _apply(self, candidate: Candidate, func_name: str, label: str):
        unit = cloned_unit(candidate, dirty=[func_name])
        func = unit.function(func_name)
        if func is None or func.body is None:
            return None
        before = len(func.body.items)
        func.body.items = [
            stmt
            for stmt in func.body.items
            if not (
                isinstance(stmt, N.Pragma)
                and (parse_pragma(stmt) or None) is not None
                and parse_pragma(stmt).directive == "dataflow"
            )
        ]
        if len(func.body.items) == before:
            return None
        return candidate.with_unit(unit, label)


class SplitBufferEdit(Edit):
    """``split($a1:arr)``: duplicate an array shared by two dataflow stages."""

    name = "split"
    error_type = ErrorType.DATAFLOW_OPTIMIZATION
    signature = "split($a1:arr)"

    def propose(self, candidate, diagnostics, context):
        out: List[EditApplication] = []
        for diag in diagnostics:
            if diag.error_type != ErrorType.DATAFLOW_OPTIMIZATION:
                continue
            if "failed dataflow checking" not in diag.message:
                continue
            if "partition factor" in diag.message:
                continue
            label = f"split({diag.symbol})"
            if label in candidate.applied:
                continue
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, symbol=diag.symbol, label=label:
                        self._apply(cand, symbol, label),
                    performance_hint=1.0,  # keeps dataflow alive
                )
            )
        return out

    def _apply(self, candidate: Candidate, array_name: str, label: str):
        unit = cloned_unit(candidate)
        for func in unit.functions():
            if func.body is None or not has_dataflow(func):
                continue
            users = self._stage_calls_using(func, array_name)
            if len(users) < 2:
                continue
            size, elem = self._array_shape(unit, func, array_name)
            if size is None:
                return None
            copy_name = f"{array_name}_df"
            # Rewire every stage call after the first to the copy.
            for _stmt, call in users[1:]:
                for arg in call.args:
                    if isinstance(arg, N.Ident) and arg.name == array_name:
                        arg.name = copy_name
            copy_src = (
                f"static {elem} {copy_name}[{size}];\n"
                f"for (int __i = 0; __i < {size}; __i++) {{\n"
                f"    {copy_name}[__i] = {array_name}[__i];\n"
                f"}}"
            )
            new_stmts = parse_fragment_stmts(copy_src, unit)
            first_stage_stmt = users[0][0]
            index = func.body.items.index(first_stage_stmt)
            func.body.items[index:index] = new_stmts
            return candidate.with_unit(unit, label)
        return None

    @staticmethod
    def _stage_calls_using(
        func: N.FunctionDef, array_name: str
    ) -> List[Tuple[N.Stmt, N.Call]]:
        assert func.body is not None
        users: List[Tuple[N.Stmt, N.Call]] = []
        for stmt in func.body.items:
            if isinstance(stmt, N.ExprStmt) and isinstance(stmt.expr, N.Call):
                if any(
                    isinstance(a, N.Ident) and a.name == array_name
                    for a in stmt.expr.args
                ):
                    users.append((stmt, stmt.expr))
        return users

    @staticmethod
    def _array_shape(unit, func, name) -> Tuple[Optional[int], str]:
        candidates: List[N.VarDecl] = list(unit.globals())
        assert func.body is not None
        candidates.extend(d.decl for d in find_all(func.body, N.DeclStmt))
        for decl in candidates:
            if decl.name == name:
                resolved = T.strip_typedefs(decl.type)
                if isinstance(resolved, T.ArrayType) and resolved.size:
                    return resolved.size, str(resolved.elem)
        for param in func.params:
            if param.name == name:
                resolved = T.strip_typedefs(param.type)
                if isinstance(resolved, T.ArrayType) and resolved.size:
                    return resolved.size, str(resolved.elem)
        return None, ""


class PartitionFixEdit(Edit):
    """``partition_fix($a1:arr)``: make partition factor and size agree."""

    name = "partition_fix"
    error_type = ErrorType.DATAFLOW_OPTIMIZATION
    signature = "partition_fix($a1:arr)"

    def propose(self, candidate, diagnostics, context):
        out: List[EditApplication] = []
        for diag in diagnostics:
            if "partition factor" not in diag.message:
                continue
            # Two competing repairs, as §5.1 describes ("after
            # experimentation with different array sizes"):
            label_pad = f"partition_fix({diag.symbol}, pad_array)"
            label_snap = f"partition_fix({diag.symbol}, snap_factor)"
            if label_pad not in candidate.applied:
                out.append(
                    EditApplication(
                        label=label_pad,
                        transform=lambda cand, sym=diag.symbol, label=label_pad:
                            self._pad_array(cand, sym, label),
                        performance_hint=1.0,
                    )
                )
            if label_snap not in candidate.applied:
                out.append(
                    EditApplication(
                        label=label_snap,
                        transform=lambda cand, sym=diag.symbol, label=label_snap:
                            self._snap_factor(cand, sym, label),
                    )
                )
        return out

    def _find_partition_pragmas(self, unit: N.TranslationUnit, array_name: str):
        for pragma_node in find_all(unit, N.Pragma):
            pragma = parse_pragma(pragma_node)
            if (
                pragma is not None
                and pragma.directive == "array_partition"
                and pragma.variable == array_name
            ):
                yield pragma_node, pragma

    def _array_decls(self, unit: N.TranslationUnit, array_name: str):
        for decl in find_all(unit, N.VarDecl):
            if decl.name != array_name:
                continue
            resolved = T.strip_typedefs(decl.type)
            if isinstance(resolved, T.ArrayType) and resolved.size:
                yield decl, resolved

    def _pad_array(self, candidate: Candidate, array_name: str, label: str):
        unit = cloned_unit(candidate)
        factor = None
        for _node, pragma in self._find_partition_pragmas(unit, array_name):
            factor = pragma.factor
        if not factor:
            return None
        changed = False
        for decl, resolved in self._array_decls(unit, array_name):
            padded = math.ceil(resolved.size / factor) * factor
            if padded != resolved.size:
                decl.type = T.ArrayType(resolved.elem, padded)
                changed = True
        return candidate.with_unit(unit, label) if changed else None

    def _snap_factor(self, candidate: Candidate, array_name: str, label: str):
        unit = cloned_unit(candidate)
        size = None
        for _decl, resolved in self._array_decls(unit, array_name):
            size = resolved.size
        if not size:
            return None
        changed = False
        for node, pragma in self._find_partition_pragmas(unit, array_name):
            factor = pragma.factor
            if factor and size % factor != 0:
                snapped = max(
                    (d for d in range(1, factor + 1) if size % d == 0), default=1
                )
                node.text = f"HLS array_partition variable={array_name} factor={snapped}"
                changed = True
        return candidate.with_unit(unit, label) if changed else None


class MoveDataflowEdit(Edit):
    """``move($p1:pragma, $f1:func)``: move a misplaced dataflow pragma to
    the top of its function (a style-level correction)."""

    name = "move"
    error_type = ErrorType.DATAFLOW_OPTIMIZATION
    signature = "move($p1:pragma, $f1:func)"

    def propose(self, candidate, diagnostics, context):
        out: List[EditApplication] = []
        for func in candidate.unit.functions():
            if func.body is None:
                continue
            misplaced = self._misplaced_dataflow(func)
            if misplaced is None:
                continue
            label = f"move(dataflow, {func.name})"
            if label in candidate.applied:
                continue
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, name=func.name, label=label:
                        self._apply(cand, name, label),
                )
            )
        return out

    @staticmethod
    def _misplaced_dataflow(func: N.FunctionDef) -> Optional[N.Pragma]:
        assert func.body is not None
        for node in func.body.walk():
            if isinstance(node, N.Pragma):
                pragma = parse_pragma(node)
                if pragma is not None and pragma.directive == "dataflow":
                    if node not in func.body.items:
                        return node
        return None

    def _apply(self, candidate: Candidate, func_name: str, label: str):
        unit = cloned_unit(candidate, dirty=[func_name])
        func = unit.function(func_name)
        if func is None or func.body is None:
            return None
        node = self._misplaced_dataflow(func)
        if node is None:
            return None
        for compound in find_all(func.body, N.Compound):
            if node in compound.items:
                compound.items.remove(node)
                break
        func.body.items.insert(0, node)
        return candidate.with_unit(unit, label)
