"""Edits for the *Dynamic Data Structures* error family (Table 2, row 1).

* ``insert($a1:arr, $d1:dyn)`` — replace ``malloc``/``free`` of a struct
  with a static pool array plus an ``S_malloc`` index allocator
  (Figure 2b's ``Node_arr`` / ``Node_malloc``);
* ``array_static($a1:arr, $i1:int)`` — give a VLA a constant size;
* ``stack_trans($d1:dyn)`` — rewrite self-recursion into an explicit
  work-stack state machine (Figure 2c);
* ``resize($a1:arr)`` — double a finitized capacity (pool, stack or
  static array); the edit the generated tests forced in §6.2 when a
  1024-entry stack proved too small.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ...cfront import nodes as N
from ...cfront import typesys as T
from ...cfront.parser import parse_fragment_decls, parse_fragment_stmts
from ...cfront.printer import Printer
from ...cfront.visitor import find_all
from ...hls.diagnostics import ErrorType
from ..typing import TypeEnv, infer_type
from .base import Candidate, Edit, EditApplication, RepairContext, cloned_unit

#: Initial finitized capacities.  Deliberately modest: the differential
#: tests are what force a resize when they prove too small — the paper's
#: P3 went 1024 → 2048 (§6.2); our workloads are smaller, so the initial
#: stack guess is scaled down to keep the same mechanism observable.
INITIAL_POOL_SIZE = 65
INITIAL_STACK_SIZE = 4
DEFAULT_ARRAY_SIZE = 1024


class InsertPoolEdit(Edit):
    """``insert($a1:arr, $d1:dyn)``: malloc/free → static pool + allocator."""

    name = "insert"
    error_type = ErrorType.DYNAMIC_DATA_STRUCTURES
    signature = "insert($a1:arr, $d1:dyn)"

    def propose(self, candidate, diagnostics, context):
        tags = self._malloced_struct_tags(candidate.unit)
        out: List[EditApplication] = []
        for tag in sorted(tags):
            label = f"insert({tag}_pool, {tag})"
            if label in candidate.applied:
                continue
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, tag=tag, label=label: self._apply(
                        cand, tag, label
                    ),
                )
            )
        return out

    @staticmethod
    def _malloced_struct_tags(unit: N.TranslationUnit) -> Set[str]:
        tags: Set[str] = set()
        for cast in find_all(unit, N.Cast):
            to_type = T.strip_typedefs(cast.to_type)
            if (
                isinstance(to_type, T.PointerType)
                and isinstance(T.strip_typedefs(to_type.pointee), T.StructType)
                and isinstance(cast.expr, N.Call)
                and cast.expr.callee_name == "malloc"
            ):
                pointee = T.strip_typedefs(to_type.pointee)
                assert isinstance(pointee, T.StructType)
                tags.add(pointee.tag)
        return tags

    def _apply(self, candidate: Candidate, tag: str, label: str) -> Optional[Candidate]:
        unit = cloned_unit(candidate)
        struct_def = unit.struct(tag)
        if struct_def is None:
            return None
        pool_src = (
            f"static struct {tag} {tag}_pool[{INITIAL_POOL_SIZE}];\n"
            f"static int {tag}_pool_cap = {INITIAL_POOL_SIZE};\n"
            f"static int {tag}_pool_next = 1;\n"
            f"int {tag}_malloc(int nbytes) {{\n"
            f"    if ({tag}_pool_next >= {tag}_pool_cap) {{ return 0; }}\n"
            f"    int p = {tag}_pool_next;\n"
            f"    {tag}_pool_next = {tag}_pool_next + 1;\n"
            f"    return p;\n"
            f"}}\n"
        )
        new_decls = parse_fragment_decls(pool_src, unit)
        insert_at = unit.decls.index(struct_def) + 1
        unit.decls[insert_at:insert_at] = new_decls

        # Replace `(struct S *)malloc(...)` calls with `S_malloc(...)`.
        replaced = 0
        for cast in find_all(unit, N.Cast):
            to_type = T.strip_typedefs(cast.to_type)
            if not (
                isinstance(to_type, T.PointerType)
                and isinstance(T.strip_typedefs(to_type.pointee), T.StructType)
            ):
                continue
            pointee = T.strip_typedefs(to_type.pointee)
            assert isinstance(pointee, T.StructType)
            if pointee.tag != tag:
                continue
            call = cast.expr
            if isinstance(call, N.Call) and call.callee_name == "malloc":
                assert isinstance(call.func, N.Ident)
                call.func.name = f"{tag}_malloc"
                replaced += 1
        if not replaced:
            return None

        # Drop `free(p)` statements for pointers of this struct type.
        self._remove_frees(unit, tag)
        return candidate.with_unit(unit, label)

    @staticmethod
    def _remove_frees(unit: N.TranslationUnit, tag: str) -> None:
        for func in unit.functions():
            if func.body is None:
                continue
            env = TypeEnv(unit, func)
            for compound in find_all(func.body, N.Compound) + [func.body]:
                new_items: List[N.Stmt] = []
                for stmt in compound.items:
                    if (
                        isinstance(stmt, N.ExprStmt)
                        and isinstance(stmt.expr, N.Call)
                        and stmt.expr.callee_name == "free"
                        and stmt.expr.args
                    ):
                        arg_type = infer_type(stmt.expr.args[0], env)
                        resolved = T.strip_typedefs(arg_type) if arg_type else None
                        if (
                            isinstance(resolved, T.PointerType)
                            and isinstance(
                                T.strip_typedefs(resolved.pointee), T.StructType
                            )
                            and T.strip_typedefs(resolved.pointee).tag == tag
                        ):
                            continue  # pool storage is never returned
                    new_items.append(stmt)
                compound.items = new_items


class ArrayStaticEdit(Edit):
    """``array_static($a1:arr, $i1:int)``: VLA → constant-size array."""

    name = "array_static"
    error_type = ErrorType.DYNAMIC_DATA_STRUCTURES
    signature = "array_static($a1:arr, $i1:int)"

    def propose(self, candidate, diagnostics, context):
        out: List[EditApplication] = []
        seen: Set[str] = set()
        for decl in self._vla_decls(candidate.unit):
            if decl.name in seen:
                continue
            seen.add(decl.name)
            size = self._guess_size(decl, context)
            label = f"array_static({decl.name}, {size})"
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, name=decl.name, size=size, label=label:
                        self._apply(cand, name, size, label),
                )
            )
        return out

    @staticmethod
    def _vla_decls(unit: N.TranslationUnit) -> List[N.VarDecl]:
        out = []
        for decl in find_all(unit, N.VarDecl):
            resolved = T.strip_typedefs(decl.type)
            if isinstance(resolved, T.ArrayType) and resolved.size is None:
                out.append(decl)
        return out

    @staticmethod
    def _guess_size(decl: N.VarDecl, context: RepairContext) -> int:
        # Type-based over-estimation (§6.5): pick a conservatively large
        # power of two.
        return DEFAULT_ARRAY_SIZE

    def _apply(self, candidate: Candidate, name: str, size: int, label: str):
        unit = cloned_unit(candidate)
        changed = False
        for decl in find_all(unit, N.VarDecl):
            if decl.name != name:
                continue
            resolved = T.strip_typedefs(decl.type)
            if isinstance(resolved, T.ArrayType) and resolved.size is None:
                decl.type = T.ArrayType(resolved.elem, size)
                decl.vla_size = None
                changed = True
        return candidate.with_unit(unit, label) if changed else None


class StackTransEdit(Edit):
    """``stack_trans($d1:dyn)``: self-recursion → explicit work stack.

    Handles the shape the paper's Figure 2 targets: a ``void`` function
    whose recursive calls appear as top-level statements of its own body.
    The rewritten function simulates the call stack with static parallel
    arrays (one per scalar parameter, plus a resume state), bounded by
    ``<f>_stk_cap``; overflow silently drops work, which differential
    testing observes as divergence and repairs via ``resize`` (§6.2).
    """

    name = "stack_trans"
    error_type = ErrorType.DYNAMIC_DATA_STRUCTURES
    signature = "stack_trans($d1:dyn)"

    def propose(self, candidate, diagnostics, context):
        out: List[EditApplication] = []
        for diag in diagnostics:
            if diag.error_type != ErrorType.DYNAMIC_DATA_STRUCTURES:
                continue
            if "recursive" not in diag.message:
                continue
            func = candidate.unit.function(diag.symbol)
            if func is None or not self._convertible(func):
                continue
            label = f"stack_trans({func.name})"
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

    # -- applicability -------------------------------------------------------

    def _convertible(self, func: N.FunctionDef) -> bool:
        if not isinstance(T.strip_typedefs(func.return_type), T.VoidType):
            return False
        if func.body is None:
            return False
        scalar_params, array_params = self._split_params(func)
        # Recursive calls must be top-level statements passing array
        # params through unchanged.
        rec_calls = self._top_level_recursive_calls(func)
        all_rec_calls = [
            c for c in find_all(func.body, N.Call) if c.callee_name == func.name
        ]
        if not rec_calls or len(rec_calls) != len(all_rec_calls):
            return False
        array_names = {p.name for p in array_params}
        for call in rec_calls:
            if len(call.args) != len(func.params):
                return False
            for param, arg in zip(func.params, call.args):
                if param.name in array_names:
                    if not (isinstance(arg, N.Ident) and arg.name == param.name):
                        return False
        return True

    @staticmethod
    def _split_params(func: N.FunctionDef):
        scalars, arrays = [], []
        for param in func.params:
            resolved = T.strip_typedefs(param.type)
            if isinstance(resolved, (T.ArrayType, T.PointerType)):
                arrays.append(param)
            else:
                scalars.append(param)
        return scalars, arrays

    @staticmethod
    def _top_level_recursive_calls(func: N.FunctionDef) -> List[N.Call]:
        assert func.body is not None
        out = []
        for stmt in func.body.items:
            if (
                isinstance(stmt, N.ExprStmt)
                and isinstance(stmt.expr, N.Call)
                and stmt.expr.callee_name == func.name
            ):
                out.append(stmt.expr)
        return out

    # -- transformation --------------------------------------------------------

    def _apply(self, candidate: Candidate, func_name: str, label: str):
        unit = cloned_unit(candidate, dirty=[func_name])
        func = unit.function(func_name)
        if func is None or func.body is None or not self._convertible(func):
            return None
        scalar_params, array_params = self._split_params(func)
        printer = Printer()

        # 1. Static stack arrays + capacity, one slot array per scalar param.
        decl_src = [f"static int {func_name}_stk_cap = {INITIAL_STACK_SIZE};"]
        for param in scalar_params:
            decl_src.append(
                f"static int {func_name}_stk_{param.name}[{INITIAL_STACK_SIZE}];"
            )
        decl_src.append(f"static int {func_name}_stk_state[{INITIAL_STACK_SIZE}];")
        stack_decls = parse_fragment_decls("\n".join(decl_src), unit)
        func_index = unit.decls.index(func)
        unit.decls[func_index:func_index] = stack_decls

        # 2. Split the body into segments at top-level recursive calls.
        segments: List[List[N.Stmt]] = [[]]
        calls: List[N.Call] = []
        for stmt in func.body.items:
            if (
                isinstance(stmt, N.ExprStmt)
                and isinstance(stmt.expr, N.Call)
                and stmt.expr.callee_name == func_name
            ):
                calls.append(stmt.expr)
                segments.append([])
            else:
                segments[-1].append(stmt)

        # Pure top-level scalar decls must be re-established in later
        # segments (their block scope does not survive a state switch).
        pure_decl_src: List[str] = []
        for seg in segments[:-1]:
            for stmt in seg:
                if isinstance(stmt, N.DeclStmt) and self._is_pure_decl(stmt.decl):
                    pure_decl_src.append(printer.var_decl_text(stmt.decl) + ";")

        # 3. Generate the state-machine body.
        lines: List[str] = []
        lines.append("int sp = 0;")
        for param in scalar_params:
            lines.append(f"{func_name}_stk_{param.name}[sp] = {param.name};")
        lines.append(f"{func_name}_stk_state[sp] = 0;")
        lines.append("sp = sp + 1;")
        lines.append("while (sp > 0) {")
        lines.append("    sp = sp - 1;")
        for param in scalar_params:
            lines.append(
                f"    int {param.name} = {func_name}_stk_{param.name}[sp];"
            )
        lines.append(f"    int __state = {func_name}_stk_state[sp];")
        for state, segment in enumerate(segments):
            lines.append(f"    if (__state == {state}) {{")
            if state > 0:
                for src in pure_decl_src:
                    lines.append(f"        {src}")
            for stmt in segment:
                body_text = self._render_stmt(printer, stmt)
                for line in body_text.splitlines():
                    lines.append("        " + line)
            if state < len(calls):
                call = calls[state]
                lines.append(f"        if (sp + 2 <= {func_name}_stk_cap) {{")
                # resume frame for the current invocation
                for param in scalar_params:
                    lines.append(
                        f"            {func_name}_stk_{param.name}[sp] = {param.name};"
                    )
                lines.append(
                    f"            {func_name}_stk_state[sp] = {state + 1};"
                )
                lines.append("            sp = sp + 1;")
                # child frame for the recursive call
                for param, arg in zip(func.params, call.args):
                    if param in scalar_params:
                        arg_text = printer.expr(arg)
                        lines.append(
                            f"            {func_name}_stk_{param.name}[sp] = {arg_text};"
                        )
                lines.append(f"            {func_name}_stk_state[sp] = 0;")
                lines.append("            sp = sp + 1;")
                lines.append("        }")
                lines.append("        continue;")
            else:
                lines.append("        continue;")
            lines.append("    }")
        lines.append("}")
        new_body_stmts = parse_fragment_stmts("\n".join(lines), unit)
        self._returns_to_continue(new_body_stmts)
        func.body = N.Compound(items=new_body_stmts)
        return candidate.with_unit(unit, label)

    @staticmethod
    def _is_pure_decl(decl: N.VarDecl) -> bool:
        if decl.init is None:
            return True
        if not isinstance(T.strip_typedefs(decl.type), (T.IntType, T.FpgaIntType,
                                                        T.FloatType, T.FpgaFloatType)):
            return False
        for node in decl.init.walk():
            if isinstance(node, (N.Call, N.Assign, N.IncDec)):
                return False
        return True

    @staticmethod
    def _render_stmt(printer: Printer, stmt: N.Stmt) -> str:
        sub = Printer()
        sub.print_stmt(stmt)
        return "\n".join(sub.lines)

    @staticmethod
    def _returns_to_continue(stmts: List[N.Stmt]) -> None:
        """Inside the state machine, `return` means `frame done`."""
        while_loops = []
        for stmt in stmts:
            while_loops.extend(find_all(stmt, N.While))
        for loop in while_loops:
            for compound in find_all(loop, N.Compound):
                for i, item in enumerate(compound.items):
                    if isinstance(item, N.Return):
                        compound.items[i] = N.Continue()


class ResizeEdit(Edit):
    """``resize($a1:arr)``: double a finitized capacity.

    Targets the capacities previous edits introduced (pools, stacks,
    finitized VLAs), discovered from the candidate's edit history.
    """

    name = "resize"
    error_type = ErrorType.DYNAMIC_DATA_STRUCTURES
    requires_any = ("insert", "stack_trans", "array_static")
    signature = "resize($a1:arr)"
    behavior_only = True

    def propose(self, candidate, diagnostics, context):
        out: List[EditApplication] = []
        for prefix in self._resizable_prefixes(candidate):
            label = f"resize({prefix})"
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, prefix=prefix, label=label:
                        self._apply(cand, prefix, label),
                )
            )
        return out

    def blind_propose(self, candidate, diagnostics, context):
        """WithoutDependence mode: discover resizable capacities from the
        program itself (``*_cap`` convention) instead of the history."""
        prefixes = []
        for decl in find_all(candidate.unit, N.VarDecl):
            if decl.name.endswith("_cap"):
                prefixes.append(decl.name[: -len("_cap")])
        out: List[EditApplication] = []
        for prefix in prefixes:
            label = f"resize({prefix})"
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, prefix=prefix, label=label:
                        self._apply(cand, prefix, label),
                )
            )
        return out

    @staticmethod
    def _resizable_prefixes(candidate: Candidate) -> List[str]:
        prefixes: List[str] = []
        for applied in candidate.applied:
            if applied.startswith("insert("):
                pool = applied[len("insert("):].split(",")[0].strip()
                prefixes.append(pool)
            elif applied.startswith("stack_trans("):
                func = applied[len("stack_trans("):].rstrip(")")
                prefixes.append(f"{func}_stk")
            elif applied.startswith("array_static("):
                arr = applied[len("array_static("):].split(",")[0].strip()
                prefixes.append(arr)
        # Deduplicate, preserving order.
        seen: Set[str] = set()
        unique = []
        for p in prefixes:
            if p not in seen:
                seen.add(p)
                unique.append(p)
        return unique

    def _apply(self, candidate: Candidate, prefix: str, label: str):
        unit = cloned_unit(candidate)
        changed = False
        for decl in find_all(unit, N.VarDecl):
            if not decl.name.startswith(prefix):
                continue
            resolved = T.strip_typedefs(decl.type)
            if isinstance(resolved, T.ArrayType) and resolved.size:
                decl.type = T.ArrayType(resolved.elem, resolved.size * 2)
                changed = True
            elif decl.name == f"{prefix}_cap" and isinstance(decl.init, N.IntLit):
                decl.init.value *= 2
                decl.init.text = str(decl.init.value)
                changed = True
            elif decl.name.endswith("_cap") and decl.name.startswith(prefix) and isinstance(decl.init, N.IntLit):
                decl.init.value *= 2
                decl.init.text = str(decl.init.value)
                changed = True
        return candidate.with_unit(unit, label) if changed else None
