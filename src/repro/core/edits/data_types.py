"""Edits for the *Unsupported Data Types* error family (Table 2, row 2).

* ``pointer($v1:ptr)`` — eliminate ``struct S *`` by replacing every
  pointer with an integer index (``S_ptr``) into the static pool that the
  ``insert`` edit created (Figure 2b's ``Node_ptr``);
* ``type_trans($v1:var)`` — ``long double`` → ``fpga_float<8,71>``
  (Figure 4, lines 2-3);
* ``type_casting($v1:var)`` — make mixed-type literals explicit via
  ``thls::to<fpga_float<8,71>, thls::convert_policy(0xF)>`` casts
  (Figure 4, line 6);
* ``op_overload($v1:var)`` — route custom-float arithmetic through
  explicit overload helpers (Figure 4's ``sum_80``).
"""

from __future__ import annotations

from typing import List, Optional, Set

from ...cfront import nodes as N
from ...cfront import typesys as T
from ...cfront.parser import parse_fragment_decls
from ...cfront.visitor import find_all, rewrite_exprs
from ...hls.diagnostics import ErrorType
from ..typing import TypeEnv, infer_type
from .base import Candidate, Edit, EditApplication, cloned_unit

FPGA_LONG_DOUBLE = T.FpgaFloatType(8, 71)
CAST_POLICY = "thls::convert_policy(0xF)"

#: Prefix of generated overload helpers.  The synthesizability checker
#: treats ``thls_``-prefixed functions as vendor library code and does not
#: re-flag the arithmetic inside them.
HELPER_PREFIX = "thls_"

_OP_NAMES = {"+": "sum", "-": "sub", "*": "mul", "/": "div"}


def _ptr_typedef_name(tag: str) -> str:
    return f"{tag}_ptr"


def _is_ptr_index_type(ctype: Optional[T.CType], tag: str) -> bool:
    return isinstance(ctype, T.NamedType) and ctype.name == _ptr_typedef_name(tag)


class PointerEdit(Edit):
    """``pointer($v1:ptr)``: struct pointers → pool indices."""

    name = "pointer"
    error_type = ErrorType.UNSUPPORTED_DATA_TYPES
    requires_any = ("insert",)
    signature = "pointer($v1:ptr)"

    def propose(self, candidate, diagnostics, context):
        tags: Set[str] = set()
        for applied in candidate.applied:
            if applied.startswith("insert("):
                tags.add(applied.rstrip(")").split(",")[-1].strip())
        return self._proposals_for(candidate, tags)

    def blind_propose(self, candidate, diagnostics, context):
        """WithoutDependence mode: try the pointer rewrite on every struct
        with pointer usage, whether or not its pool exists yet."""
        tags = {
            s.tag
            for s in candidate.unit.decls
            if isinstance(s, N.StructDef)
            and self._has_struct_pointers(candidate.unit, s.tag)
        }
        return self._proposals_for(candidate, tags)

    def _proposals_for(self, candidate, tags):
        out: List[EditApplication] = []
        for tag in sorted(tags):
            label = f"pointer({tag})"
            if label in candidate.applied:
                continue
            if not self._has_struct_pointers(candidate.unit, tag):
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
    def _has_struct_pointers(unit: N.TranslationUnit, tag: str) -> bool:
        def is_target(ctype: T.CType) -> bool:
            resolved = T.strip_typedefs(ctype)
            return (
                isinstance(resolved, T.PointerType)
                and isinstance(T.strip_typedefs(resolved.pointee), T.StructType)
                and T.strip_typedefs(resolved.pointee).tag == tag
            )

        for decl in find_all(unit, N.VarDecl):
            if is_target(decl.type):
                return True
        for param in find_all(unit, N.ParamDecl):
            if is_target(param.type):
                return True
        struct_def = unit.struct(tag)
        if struct_def is not None:
            assert isinstance(struct_def.type, T.StructType)
            if any(is_target(f.type) for f in struct_def.type.fields):
                return True
        return False

    # -- transformation --------------------------------------------------------

    def _apply(self, candidate: Candidate, tag: str, label: str):
        unit = cloned_unit(candidate)
        struct_def = unit.struct(tag)
        if struct_def is None:
            return None
        index_type = T.NamedType(_ptr_typedef_name(tag), T.INT)

        def retype(ctype: T.CType) -> T.CType:
            resolved = T.strip_typedefs(ctype)
            if (
                isinstance(resolved, T.PointerType)
                and isinstance(T.strip_typedefs(resolved.pointee), T.StructType)
                and T.strip_typedefs(resolved.pointee).tag == tag
            ):
                return index_type
            if isinstance(resolved, T.ArrayType):
                return T.ArrayType(retype(resolved.elem), resolved.size)
            return ctype

        # 1. typedef S_ptr + rewrite declarations everywhere.
        typedef_decls = parse_fragment_decls(
            f"typedef int {_ptr_typedef_name(tag)};", unit
        )
        unit.decls[unit.decls.index(struct_def):unit.decls.index(struct_def)] = (
            typedef_decls
        )
        for decl in find_all(unit, N.VarDecl):
            decl.type = retype(decl.type)
        for param in find_all(unit, N.ParamDecl):
            param.type = retype(param.type)
        for func in unit.functions():
            func.return_type = retype(func.return_type)
        new_fields = tuple(
            T.StructField(f.name, retype(f.type)) for f in struct_def.type.fields
        )
        struct_def.type = T.StructType(
            tag=tag,
            fields=new_fields,
            is_union=struct_def.type.is_union,
            method_names=struct_def.type.method_names,
            has_constructor=struct_def.type.has_constructor,
        )

        # 2. Rewrite expressions per function, bottom-up.
        pool_name = f"{tag}_pool"
        for func in unit.functions():
            if func.body is None:
                continue
            env = TypeEnv(unit, func)

            def rewrite(expr: N.Expr) -> Optional[N.Expr]:
                if isinstance(expr, N.Member) and expr.arrow:
                    obj_type = infer_type(expr.obj, env)
                    if _is_ptr_index_type(obj_type, tag):
                        pool_elem = N.Index(
                            base=N.Ident(name=pool_name), index=expr.obj
                        )
                        return N.Member(obj=pool_elem, name=expr.name, arrow=False)
                if isinstance(expr, N.UnOp) and expr.op == "*":
                    inner_type = infer_type(expr.operand, env)
                    if _is_ptr_index_type(inner_type, tag):
                        return N.Index(base=N.Ident(name=pool_name), index=expr.operand)
                if isinstance(expr, N.Cast):
                    to_resolved = T.strip_typedefs(expr.to_type)
                    if (
                        isinstance(to_resolved, T.PointerType)
                        and isinstance(
                            T.strip_typedefs(to_resolved.pointee), T.StructType
                        )
                        and T.strip_typedefs(to_resolved.pointee).tag == tag
                    ):
                        return N.Cast(to_type=index_type, expr=expr.expr)
                return None

            rewrite_exprs(func.body, rewrite)
        return candidate.with_unit(unit, label)


class TypeTransEdit(Edit):
    """``type_trans($v1:var)``: long double → fpga_float<8,71>."""

    name = "type_trans"
    error_type = ErrorType.UNSUPPORTED_DATA_TYPES
    signature = "type_trans($v1:var)"

    def propose(self, candidate, diagnostics, context):
        targets = self._long_double_symbols(candidate.unit)
        if not targets:
            return []
        label = f"type_trans({', '.join(sorted(targets))})"
        if label in candidate.applied:
            return []
        return [
            EditApplication(
                label=label,
                transform=lambda cand, label=label: self._apply(cand, label),
            )
        ]

    @staticmethod
    def _long_double_symbols(unit: N.TranslationUnit) -> Set[str]:
        names: Set[str] = set()
        for decl in find_all(unit, N.VarDecl):
            if _is_long_double(decl.type):
                names.add(decl.name)
        for param in find_all(unit, N.ParamDecl):
            if _is_long_double(param.type):
                names.add(param.name)
        for func in unit.functions():
            if _is_long_double(func.return_type):
                names.add(func.name)
        return names

    def _apply(self, candidate: Candidate, label: str):
        unit = cloned_unit(candidate)
        changed = False
        for decl in find_all(unit, N.VarDecl):
            if _is_long_double(decl.type):
                decl.type = FPGA_LONG_DOUBLE
                changed = True
        for param in find_all(unit, N.ParamDecl):
            if _is_long_double(param.type):
                param.type = FPGA_LONG_DOUBLE
                changed = True
        for func in unit.functions():
            if _is_long_double(func.return_type):
                func.return_type = FPGA_LONG_DOUBLE
                changed = True
        return candidate.with_unit(unit, label) if changed else None


def _is_long_double(ctype: T.CType) -> bool:
    resolved = T.strip_typedefs(ctype)
    return isinstance(resolved, T.FloatType) and resolved.name == "long double"


class TypeCastingEdit(Edit):
    """``type_casting($v1:var)``: explicit casts on custom-float literals."""

    name = "type_casting"
    error_type = ErrorType.UNSUPPORTED_DATA_TYPES
    requires = ("type_trans",)
    signature = "type_casting($v1:var)"

    def propose(self, candidate, diagnostics, context):
        if not self._has_bare_literal_mix(candidate.unit):
            return []
        label = "type_casting(*)"
        if label in candidate.applied:
            return []
        return [
            EditApplication(
                label=label,
                transform=lambda cand, label=label: self._apply(cand, label),
            )
        ]

    @staticmethod
    def _mixed_binops(unit: N.TranslationUnit):
        for func in unit.functions():
            if func.body is None or func.name.startswith(HELPER_PREFIX):
                continue
            env = TypeEnv(unit, func)
            for binop in find_all(func.body, N.BinOp):
                if binop.op not in ("+", "-", "*", "/"):
                    continue
                types = (infer_type(binop.left, env), infer_type(binop.right, env))
                has_custom = any(
                    isinstance(T.strip_typedefs(t), T.FpgaFloatType)
                    for t in types
                    if t is not None
                )
                literal = next(
                    (
                        side
                        for side in (binop.left, binop.right)
                        if isinstance(side, (N.IntLit, N.FloatLit))
                    ),
                    None,
                )
                if has_custom and literal is not None:
                    yield func, binop, literal

    def _has_bare_literal_mix(self, unit: N.TranslationUnit) -> bool:
        return next(iter(self._mixed_binops(unit)), None) is not None

    def _apply(self, candidate: Candidate, label: str):
        unit = cloned_unit(candidate)
        changed = False
        for _func, binop, literal in list(self._mixed_binops(unit)):
            cast = N.Cast(
                to_type=FPGA_LONG_DOUBLE, expr=literal, explicit_policy=CAST_POLICY
            )
            if binop.left is literal:
                binop.left = cast
            else:
                binop.right = cast
            changed = True
        return candidate.with_unit(unit, label) if changed else None


class OpOverloadEdit(Edit):
    """``op_overload($v1:var)``: custom-float arithmetic → helper calls."""

    name = "op_overload"
    error_type = ErrorType.UNSUPPORTED_DATA_TYPES
    requires = ("type_trans",)
    requires_any = ("type_casting", "type_trans")
    signature = "op_overload($v1:var)"

    def propose(self, candidate, diagnostics, context):
        ops = self._custom_float_ops(candidate.unit)
        if not ops:
            return []
        label = "op_overload(*)"
        if label in candidate.applied:
            return []
        return [
            EditApplication(
                label=label,
                transform=lambda cand, label=label: self._apply(cand, label),
            )
        ]

    @staticmethod
    def _custom_float_ops(unit: N.TranslationUnit) -> Set[str]:
        """Arithmetic operators applied to fpga_float operands."""
        ops: Set[str] = set()
        for func in unit.functions():
            if func.body is None or func.name.startswith(HELPER_PREFIX):
                continue
            env = TypeEnv(unit, func)
            for binop in find_all(func.body, N.BinOp):
                if binop.op in _OP_NAMES and _involves_custom_float(binop, env):
                    ops.add(binop.op)
            for assign in find_all(func.body, N.Assign):
                if assign.op != "=" and assign.op[:-1] in _OP_NAMES:
                    target_type = infer_type(assign.target, env)
                    if isinstance(
                        T.strip_typedefs(target_type) if target_type else None,
                        T.FpgaFloatType,
                    ):
                        ops.add(assign.op[:-1])
        return ops

    def _apply(self, candidate: Candidate, label: str):
        unit = cloned_unit(candidate)
        ops = self._custom_float_ops(unit)
        if not ops:
            return None
        bits = 1 + FPGA_LONG_DOUBLE.exp_bits + FPGA_LONG_DOUBLE.mant_bits
        helper_names = {op: f"{HELPER_PREFIX}{_OP_NAMES[op]}_{bits}" for op in ops}

        # 1. Insert helper definitions at the top of the unit.
        fragments = []
        for op, helper in sorted(helper_names.items()):
            fragments.append(
                f"fpga_float<8,71> {helper}(fpga_float<8,71> a, "
                f"fpga_float<8,71> b) {{ return a {op} b; }}"
            )
        helper_decls = parse_fragment_decls("\n".join(fragments), unit)
        unit.decls[0:0] = helper_decls

        # 2. Route arithmetic through the helpers.
        for func in unit.functions():
            if func.body is None or func.name.startswith(HELPER_PREFIX):
                continue
            env = TypeEnv(unit, func)

            def rewrite(expr: N.Expr) -> Optional[N.Expr]:
                if (
                    isinstance(expr, N.BinOp)
                    and expr.op in helper_names
                    and _involves_custom_float(expr, env)
                ):
                    return N.Call(
                        func=N.Ident(name=helper_names[expr.op]),
                        args=[expr.left, expr.right],
                    )
                if (
                    isinstance(expr, N.Assign)
                    and expr.op != "="
                    and expr.op[:-1] in helper_names
                ):
                    target_type = infer_type(expr.target, env)
                    if isinstance(
                        T.strip_typedefs(target_type) if target_type else None,
                        T.FpgaFloatType,
                    ):
                        from ...cfront.nodes import clone

                        target_copy = clone(expr.target)
                        call = N.Call(
                            func=N.Ident(name=helper_names[expr.op[:-1]]),
                            args=[target_copy, expr.value],
                        )
                        return N.Assign(op="=", target=expr.target, value=call)
                return None

            rewrite_exprs(func.body, rewrite)
        return candidate.with_unit(unit, label)


class WidenEdit(Edit):
    """``type_trans($v1:var)`` in reverse gear: widen a finitized integer
    whose narrow width broke behaviour.

    Proposed during behaviour repair when differential testing finds
    divergence — the counterpart of the bitwidth-estimation step being
    driven by an incomplete profile (§6.5, "Over-Estimated Bitwidth").
    """

    name = "widen"
    error_type = None
    signature = "type_trans($v1:var)"
    behavior_only = True

    def propose(self, candidate, diagnostics, context):
        out: List[EditApplication] = []
        seen: Set[str] = set()
        for decl in find_all(candidate.unit, N.VarDecl):
            resolved = T.strip_typedefs(decl.type)
            if not isinstance(resolved, T.FpgaIntType) or resolved.bits >= 32:
                continue
            if decl.name in seen:
                continue
            seen.add(decl.name)
            new_bits = min(32, resolved.bits * 2)
            label = f"widen({decl.name}, {new_bits})"
            if label in candidate.applied:
                continue
            out.append(
                EditApplication(
                    label=label,
                    transform=lambda cand, name=decl.name, bits=new_bits,
                    label=label: self._apply(cand, name, bits, label),
                )
            )
        return out

    def _apply(self, candidate: Candidate, name: str, bits: int, label: str):
        unit = cloned_unit(candidate)
        changed = False
        for decl in find_all(unit, N.VarDecl):
            if decl.name != name:
                continue
            resolved = T.strip_typedefs(decl.type)
            if isinstance(resolved, T.FpgaIntType) and resolved.bits < bits:
                decl.type = T.FpgaIntType(bits, signed=resolved.signed)
                changed = True
        return candidate.with_unit(unit, label) if changed else None


def _involves_custom_float(binop: N.BinOp, env: TypeEnv) -> bool:
    for side in (binop.left, binop.right):
        side_type = infer_type(side, env)
        if side_type is not None and isinstance(
            T.strip_typedefs(side_type), T.FpgaFloatType
        ):
            return True
    return False
