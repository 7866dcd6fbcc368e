"""AST → C source pretty-printer.

Emits canonical, compilable-looking source for any tree the parser or the
repair edits can produce.  Used for:

* ΔLOC accounting (Table 5) — ``count_loc`` counts non-blank lines;
* human-readable diffs in transpilation reports;
* round-trip testing (``parse(print(parse(src)))`` preserves behaviour).
"""

from __future__ import annotations

from typing import List

from . import nodes as N
from . import typesys as T


class Printer:
    INDENT = "    "

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 0

    # -- helpers -------------------------------------------------------------

    def _emit(self, text: str) -> None:
        self.lines.append(self.INDENT * self.depth + text if text else "")

    def render(self, unit: N.TranslationUnit) -> str:
        for decl in unit.decls:
            self.print_decl(decl)
            self._emit("")
        while self.lines and not self.lines[-1]:
            self.lines.pop()
        return "\n".join(self.lines) + "\n"

    # -- declarations ---------------------------------------------------------

    def print_decl(self, decl: N.Decl) -> None:
        if isinstance(decl, N.FunctionDef):
            self._print_function(decl)
        elif isinstance(decl, N.StructDef):
            self._print_struct(decl)
        elif isinstance(decl, N.VarDecl):
            self._emit(self.var_decl_text(decl) + ";")
        elif isinstance(decl, N.TypedefDecl):
            assert isinstance(decl.type, T.NamedType)
            self._emit(f"typedef {self.declaration_text(decl.type.aliased, decl.name)};")
        elif isinstance(decl, N.Pragma):
            self._emit(f"#pragma {decl.text}")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown declaration node {type(decl).__name__}")

    def _print_function(self, func: N.FunctionDef) -> None:
        params = ", ".join(
            self.declaration_text(p.type, p.name) for p in func.params
        )
        static = "static " if func.is_static else ""
        if func.is_constructor:
            header = f"{func.name}({params})"
        else:
            header = f"{static}{self.declaration_text(func.return_type, func.name)}({params})"
        if func.body is None:
            self._emit(header + ";")
            return
        self._emit(header + " {")
        self.depth += 1
        for stmt in func.body.items:
            self.print_stmt(stmt)
        self.depth -= 1
        self._emit("}")

    def _print_struct(self, struct: N.StructDef) -> None:
        kw = "union" if struct.is_union else "struct"
        self._emit(f"{kw} {struct.tag} {{")
        self.depth += 1
        assert isinstance(struct.type, T.StructType)
        for fld in struct.type.fields:
            self._emit(self.declaration_text(fld.type, fld.name) + ";")
        for method in struct.methods:
            self._print_function(method)
        self.depth -= 1
        self._emit("};")

    def var_decl_text(self, decl: N.VarDecl) -> str:
        prefix = ""
        if decl.is_static:
            prefix += "static "
        if decl.is_const:
            prefix += "const "
        if decl.vla_size is not None:
            # Print the runtime size expression in place of the missing
            # constant dimension so the VLA reads back as written.
            base = T.strip_typedefs(decl.type)
            assert isinstance(base, T.ArrayType)
            inner = self.declaration_text(base.elem, decl.name)
            text = f"{prefix}{inner}[{self.expr(decl.vla_size)}]"
        else:
            text = prefix + self.declaration_text(decl.type, decl.name)
        if decl.init is not None:
            text += f" = {self.expr(decl.init)}"
        return text

    def declaration_text(self, ctype: T.CType, name: str) -> str:
        """C declarator syntax: arrays wrap the name, pointers prefix it."""
        suffix = ""
        while isinstance(ctype, T.ArrayType):
            dim = "" if ctype.size is None else str(ctype.size)
            suffix += f"[{dim}]"
            ctype = ctype.elem
        prefix = ""
        while isinstance(ctype, (T.PointerType, T.ReferenceType)):
            prefix = ("*" if isinstance(ctype, T.PointerType) else "&") + prefix
            ctype = ctype.pointee if isinstance(ctype, T.PointerType) else ctype.target
        base = str(ctype)
        decl_name = f"{prefix}{name}" if name else prefix
        return f"{base} {decl_name}{suffix}".rstrip()

    # -- statements -----------------------------------------------------------

    def print_stmt(self, stmt: N.Stmt) -> None:
        if isinstance(stmt, N.Compound):
            self._emit("{")
            self.depth += 1
            for item in stmt.items:
                self.print_stmt(item)
            self.depth -= 1
            self._emit("}")
        elif isinstance(stmt, N.DeclStmt):
            self._emit(self.var_decl_text(stmt.decl) + ";")
        elif isinstance(stmt, N.ExprStmt):
            self._emit(self.expr(stmt.expr) + ";")
        elif isinstance(stmt, N.If):
            self._emit(f"if ({self.expr(stmt.cond)}) {{")
            self._print_block_body(stmt.then)
            if stmt.other is not None:
                self._emit("} else {")
                self._print_block_body(stmt.other)
            self._emit("}")
        elif isinstance(stmt, N.While):
            self._emit(f"while ({self.expr(stmt.cond)}) {{")
            self._print_block_body(stmt.body)
            self._emit("}")
        elif isinstance(stmt, N.DoWhile):
            self._emit("do {")
            self._print_block_body(stmt.body)
            self._emit(f"}} while ({self.expr(stmt.cond)});")
        elif isinstance(stmt, N.For):
            init = ""
            if isinstance(stmt.init, N.DeclStmt):
                init = self.var_decl_text(stmt.init.decl)
            elif isinstance(stmt.init, N.ExprStmt):
                init = self.expr(stmt.init.expr)
            cond = self.expr(stmt.cond) if stmt.cond is not None else ""
            step = self.expr(stmt.step) if stmt.step is not None else ""
            self._emit(f"for ({init}; {cond}; {step}) {{")
            self._print_block_body(stmt.body)
            self._emit("}")
        elif isinstance(stmt, N.Return):
            if stmt.value is None:
                self._emit("return;")
            else:
                self._emit(f"return {self.expr(stmt.value)};")
        elif isinstance(stmt, N.Break):
            self._emit("break;")
        elif isinstance(stmt, N.Continue):
            self._emit("continue;")
        elif isinstance(stmt, N.Pragma):
            self._emit(f"#pragma {stmt.text}")
        elif isinstance(stmt, N.Empty):
            self._emit(";")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown statement node {type(stmt).__name__}")

    def _print_block_body(self, stmt: N.Stmt) -> None:
        self.depth += 1
        if isinstance(stmt, N.Compound):
            for item in stmt.items:
                self.print_stmt(item)
        else:
            self.print_stmt(stmt)
        self.depth -= 1

    # -- expressions ------------------------------------------------------------

    def expr(self, e: N.Expr) -> str:
        return self._expr(e, 0)

    _PRECEDENCE = {
        ",": 1, "=": 2, "?:": 3, "||": 4, "&&": 5, "|": 6, "^": 7, "&": 8,
        "==": 9, "!=": 9, "<": 10, "<=": 10, ">": 10, ">=": 10,
        "<<": 11, ">>": 11, "+": 12, "-": 12, "*": 13, "/": 13, "%": 13,
    }

    def _expr(self, e: N.Expr, parent_prec: int) -> str:
        text, prec = self._expr_prec(e)
        if prec < parent_prec:
            return f"({text})"
        return text

    def _expr_prec(self, e: N.Expr) -> tuple:
        if isinstance(e, N.IntLit):
            return (e.text or str(e.value), 100)
        if isinstance(e, N.FloatLit):
            return (e.text or repr(e.value), 100)
        if isinstance(e, N.CharLit):
            return (e.text and f"'{e.text}'" or str(e.value), 100)
        if isinstance(e, N.StringLit):
            escaped = e.value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
            return (f'"{escaped}"', 100)
        if isinstance(e, N.Ident):
            return (e.name, 100)
        if isinstance(e, N.BinOp):
            prec = self._PRECEDENCE[e.op]
            left = self._expr(e.left, prec)
            right = self._expr(e.right, prec + 1)
            sep = f"{e.op} " if e.op == "," else f" {e.op} "
            return (f"{left}{sep}{right}", prec)
        if isinstance(e, N.Assign):
            target = self._expr(e.target, 3)
            value = self._expr(e.value, 2)
            return (f"{target} {e.op} {value}", 2)
        if isinstance(e, N.Cond):
            return (
                f"{self._expr(e.cond, 4)} ? {self._expr(e.then, 0)} : {self._expr(e.other, 3)}",
                3,
            )
        if isinstance(e, N.UnOp):
            return (f"{e.op}{self._expr(e.operand, 14)}", 14)
        if isinstance(e, N.IncDec):
            operand = self._expr(e.operand, 15)
            return (f"{operand}{e.op}" if e.postfix else f"{e.op}{operand}", 14)
        if isinstance(e, N.Call):
            args = ", ".join(self._expr(a, 2) for a in e.args)
            return (f"{self._expr(e.func, 15)}({args})", 15)
        if isinstance(e, N.Index):
            return (f"{self._expr(e.base, 15)}[{self.expr(e.index)}]", 15)
        if isinstance(e, N.Member):
            op = "->" if e.arrow else "."
            return (f"{self._expr(e.obj, 15)}{op}{e.name}", 15)
        if isinstance(e, N.Cast):
            if e.explicit_policy:
                # Figure 4 style: thls::to<T, policy>(expr)
                return (
                    f"thls::to<{e.to_type}, {e.explicit_policy}>({self.expr(e.expr)})",
                    15,
                )
            return (f"({e.to_type}){self._expr(e.expr, 14)}", 14)
        if isinstance(e, N.SizeofType):
            return (f"sizeof({e.of_type})", 15)
        if isinstance(e, N.SizeofExpr):
            return (f"sizeof({self.expr(e.expr)})", 15)
        if isinstance(e, N.InitList):
            items = ", ".join(self.expr(i) for i in e.items)
            return (f"{{{items}}}", 100)
        raise TypeError(f"unknown expression node {type(e).__name__}")


def render(unit: N.TranslationUnit) -> str:
    """Render a translation unit back to C source text."""
    return Printer().render(unit)


def decl_loc(decl: N.Decl) -> int:
    """Non-blank source lines of one rendered declaration."""
    printer = Printer()
    printer.print_decl(decl)
    return sum(
        1 for line in "\n".join(printer.lines).splitlines() if line.strip()
    )


def count_loc(unit: N.TranslationUnit) -> int:
    """Count non-blank source lines of the rendered program (Table 5):
    the sum over its declarations, which :meth:`Printer.render` separates
    by blank lines."""
    return sum(decl_loc(decl) for decl in unit.decls)


def added_loc(original: N.TranslationUnit, converted: N.TranslationUnit) -> int:
    """ΔLOC as the paper defines it: number of added lines with respect to
    the original program (Table 5, column ΔLOC)."""
    before = set()
    counts: dict = {}
    for line in render(original).splitlines():
        stripped = line.strip()
        if stripped:
            counts[stripped] = counts.get(stripped, 0) + 1
    added = 0
    for line in render(converted).splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if counts.get(stripped, 0) > 0:
            counts[stripped] -= 1
        else:
            added += 1
    return added
