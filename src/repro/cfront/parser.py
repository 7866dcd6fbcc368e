"""Recursive-descent parser for the C/HLS-C subset.

The grammar covers what the ten subject programs and the HeteroGen repair
edits need: functions, structs/unions with member functions (the minimal
C++ flavour used by dataflow designs, Figure 5 of the paper), typedefs,
pointers, references, multi-dimensional arrays, VLAs, the full C expression
grammar, ``#pragma`` statements, and the HLS types ``fpga_int<N>``,
``fpga_uint<N>``, ``fpga_float<E,M>`` and ``hls::stream<T>``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ParseError
from . import nodes as N
from . import typesys as T
from .lexer import Token, tokenize

_TYPE_KEYWORDS = frozenset(
    ["void", "char", "short", "int", "long", "float", "double",
     "signed", "unsigned", "bool", "struct", "union"]
)

_HLS_TYPE_NAMES = frozenset(["fpga_int", "fpga_uint", "fpga_float"])

_ASSIGN_OPS = frozenset(["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="])


class Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.typedefs: Dict[str, T.CType] = {}
        self.structs: Dict[str, T.StructType] = {}

    # -- token helpers -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self._peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def _at_punct(self, text: str) -> bool:
        return self._at("punct", text)

    def _at_keyword(self, text: str) -> bool:
        return self._at("keyword", text)

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if self.pos < len(self.tokens) - 1:
            self.pos += 1
        return tok

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self._peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(
                f"expected {want!r}, found {tok.text!r}", tok.line, tok.col
            )
        return self._advance()

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._at(kind, text):
            return self._advance()
        return None

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        return ParseError(message, tok.line, tok.col)

    @staticmethod
    def _loc(tok: Token) -> Dict[str, int]:
        return {"line": tok.line, "col": tok.col}

    # -- entry point ---------------------------------------------------------

    def parse_translation_unit(self) -> N.TranslationUnit:
        first = self._peek()
        decls: List[N.Decl] = []
        while not self._at("eof"):
            if self._at("pragma"):
                tok = self._advance()
                decls.append(N.Pragma(text=tok.text, **self._loc(tok)))  # type: ignore[arg-type]
                continue
            decls.append(self._parse_external_decl())
        return N.TranslationUnit(decls=decls, **self._loc(first))

    # -- declarations ----------------------------------------------------------

    def _parse_external_decl(self) -> N.Decl:
        start = self._peek()
        if self._at_keyword("typedef"):
            return self._parse_typedef()
        if (
            (self._at_keyword("struct") or self._at_keyword("union"))
            and self._peek(1).kind == "ident"
            and self._peek(2).text == "{"
        ):
            return self._parse_struct_def()

        is_static = bool(self._accept("keyword", "static"))
        is_const = bool(self._accept("keyword", "const"))
        is_static = is_static or bool(self._accept("keyword", "static"))
        base = self._parse_type()
        ctype, name, name_tok = self._parse_declarator(base)
        if self._at_punct("("):
            return self._parse_function_def(ctype, name, name_tok, is_static)
        decl = self._finish_var_decl(ctype, name, name_tok, is_static, is_const)
        self._expect("punct", ";")
        return decl

    def _parse_typedef(self) -> N.TypedefDecl:
        start = self._expect("keyword", "typedef")
        base = self._parse_type()
        ctype, name, _ = self._parse_declarator(base)
        self._expect("punct", ";")
        self.typedefs[name] = T.NamedType(name, ctype)
        return N.TypedefDecl(name=name, type=self.typedefs[name], **self._loc(start))

    def _parse_struct_def(self) -> N.StructDef:
        start = self._advance()  # struct | union
        is_union = start.text == "union"
        tag = self._expect("ident").text
        self._expect("punct", "{")
        # Pre-register so member pointers to the same struct resolve.
        placeholder = T.StructType(tag=tag, is_union=is_union)
        self.structs[tag] = placeholder
        fields: List[T.StructField] = []
        methods: List[N.FunctionDef] = []
        while not self._at_punct("}"):
            if self._at("pragma"):
                self._advance()
                continue
            member = self._parse_struct_member(tag, is_union)
            if isinstance(member, N.FunctionDef):
                methods.append(member)
            else:
                fields.extend(member)
        self._expect("punct", "}")
        self._expect("punct", ";")
        struct_type = T.StructType(
            tag=tag,
            fields=tuple(fields),
            is_union=is_union,
            method_names=tuple(m.name for m in methods),
            has_constructor=any(m.is_constructor for m in methods),
        )
        self.structs[tag] = struct_type
        for method in methods:
            method.owner_struct = tag
        return N.StructDef(
            tag=tag, type=struct_type, methods=methods, is_union=is_union,
            **self._loc(start),
        )

    def _parse_struct_member(self, tag: str, is_union: bool):
        tok = self._peek()
        # Constructor: `Tag(params) : init-list { body }`
        if tok.kind == "ident" and tok.text == tag and self._peek(1).text == "(":
            return self._parse_constructor(tag)
        self._accept("keyword", "const")
        base = self._parse_type()
        ctype, name, name_tok = self._parse_declarator(base)
        if self._at_punct("("):
            func = self._parse_function_def(ctype, name, name_tok, is_static=False)
            func.owner_struct = tag
            return func
        fields = [T.StructField(name, ctype)]
        while self._accept("punct", ","):
            ctype2, name2, _ = self._parse_declarator(base)
            fields.append(T.StructField(name2, ctype2))
        self._expect("punct", ";")
        return fields

    def _parse_constructor(self, tag: str) -> N.FunctionDef:
        name_tok = self._expect("ident")
        params = self._parse_param_list()
        if self._accept("punct", ":"):
            # Member initializer list: `in(i), out(o)` — record as body
            # assignments so the interpreter honours them.
            inits: List[N.Stmt] = []
            while True:
                member = self._expect("ident").text
                self._expect("punct", "(")
                value = self._parse_expr()
                self._expect("punct", ")")
                target = N.Member(
                    obj=N.Ident(name="this", **self._loc(name_tok)),
                    name=member, arrow=True, **self._loc(name_tok),
                )
                assign = N.Assign(op="=", target=target, value=value,
                                  **self._loc(name_tok))
                inits.append(N.ExprStmt(expr=assign, **self._loc(name_tok)))
                if not self._accept("punct", ","):
                    break
            body = self._parse_compound()
            body.items = inits + body.items
        else:
            body = self._parse_compound()
        return N.FunctionDef(
            name=tag, return_type=T.VOID, params=params, body=body,
            owner_struct=tag, is_constructor=True, **self._loc(name_tok),
        )

    def _parse_function_def(
        self, return_type: T.CType, name: str, name_tok: Token, is_static: bool
    ) -> N.FunctionDef:
        params = self._parse_param_list()
        if self._accept("punct", ";"):
            body: Optional[N.Compound] = None  # prototype
        else:
            body = self._parse_compound()
        return N.FunctionDef(
            name=name, return_type=return_type, params=params, body=body,
            is_static=is_static, **self._loc(name_tok),
        )

    def _parse_param_list(self) -> List[N.ParamDecl]:
        self._expect("punct", "(")
        params: List[N.ParamDecl] = []
        if self._accept("punct", ")"):
            return params
        if self._at_keyword("void") and self._peek(1).text == ")":
            self._advance()
            self._expect("punct", ")")
            return params
        while True:
            self._accept("keyword", "const")
            base = self._parse_type()
            ctype, pname, ptok = self._parse_declarator(base, allow_abstract=True)
            params.append(N.ParamDecl(name=pname, type=ctype, **self._loc(ptok)))
            if not self._accept("punct", ","):
                break
        self._expect("punct", ")")
        return params

    def _finish_var_decl(
        self, ctype: T.CType, name: str, name_tok: Token,
        is_static: bool, is_const: bool,
    ) -> N.VarDecl:
        ctype, vla_size = self._strip_vla(ctype)
        init: Optional[N.Expr] = None
        if self._accept("punct", "="):
            init = self._parse_initializer()
        return N.VarDecl(
            name=name, type=ctype, init=init, is_static=is_static,
            is_const=is_const, vla_size=vla_size, **self._loc(name_tok),
        )

    def _strip_vla(self, ctype: T.CType) -> Tuple[T.CType, Optional[N.Expr]]:
        """Extract the VLA marker planted by the declarator parser."""
        vla = getattr(self, "_pending_vla", None)
        self._pending_vla = None
        return ctype, vla

    def _parse_initializer(self) -> N.Expr:
        if self._at_punct("{"):
            start = self._advance()
            items: List[N.Expr] = []
            if not self._at_punct("}"):
                while True:
                    items.append(self._parse_initializer())
                    if not self._accept("punct", ","):
                        break
                    if self._at_punct("}"):
                        break  # trailing comma
            self._expect("punct", "}")
            return N.InitList(items=items, **self._loc(start))
        return self._parse_assignment()

    # -- types -----------------------------------------------------------------

    def starts_type(self, offset: int = 0) -> bool:
        tok = self._peek(offset)
        if tok.kind == "keyword" and tok.text in _TYPE_KEYWORDS:
            return True
        if tok.kind == "ident":
            if tok.text in self.typedefs or tok.text in _HLS_TYPE_NAMES:
                return True
            if tok.text == "hls" and self._peek(offset + 1).text == "::":
                return True
        return False

    def _parse_type(self) -> T.CType:
        tok = self._peek()
        if tok.kind == "keyword" and tok.text in ("struct", "union"):
            kw = self._advance()
            tag = self._expect("ident").text
            if tag not in self.structs:
                # Forward reference (`typedef struct Node Node_t;` or a
                # self-referential pointer field).  Register an incomplete
                # placeholder; consumers resolve fields by tag through the
                # translation unit, not through this object.
                self.structs[tag] = T.StructType(
                    tag=tag, is_union=(kw.text == "union")
                )
            return self.structs[tag]
        if tok.kind == "ident" and tok.text in self.typedefs:
            self._advance()
            return self.typedefs[tok.text]
        if tok.kind == "ident" and tok.text in _HLS_TYPE_NAMES:
            return self._parse_fpga_type()
        if tok.kind == "ident" and tok.text == "hls":
            return self._parse_stream_type()
        if tok.kind == "keyword":
            return self._parse_builtin_type()
        raise self._error(f"expected a type, found {tok.text!r}")

    def _parse_fpga_type(self) -> T.CType:
        name = self._advance().text
        self._expect("punct", "<")
        first = int(self._expect("int").text, 0)
        if name == "fpga_float":
            self._expect("punct", ",")
            second = int(self._expect("int").text, 0)
            self._close_template()
            return T.FpgaFloatType(first, second)
        self._close_template()
        return T.FpgaIntType(first, signed=(name == "fpga_int"))

    def _parse_stream_type(self) -> T.CType:
        self._expect("ident", "hls")
        self._expect("punct", "::")
        self._expect("ident", "stream")
        self._expect("punct", "<")
        elem = self._parse_type()
        self._close_template()
        return T.StreamType(elem)

    def _close_template(self) -> None:
        if self._at_punct(">>"):
            # Split `>>` closing two nested templates; we never nest two
            # levels in practice, so treat it as a plain `>` plus shift
            # leftover — simplest is to reject, subjects do not use it.
            raise self._error("nested template closers '>>' are unsupported")
        self._expect("punct", ">")

    def _parse_builtin_type(self) -> T.CType:
        words: List[str] = []
        while self._peek().kind == "keyword" and self._peek().text in (
            "void", "char", "short", "int", "long", "float", "double",
            "signed", "unsigned", "bool",
        ):
            words.append(self._advance().text)
        if not words:
            raise self._error("expected a type specifier")
        key = " ".join(words)
        mapping = {
            "void": T.VOID,
            "bool": T.BOOL,
            "char": T.CHAR,
            "signed char": T.CHAR,
            "unsigned char": T.UCHAR,
            "short": T.SHORT,
            "short int": T.SHORT,
            "unsigned short": T.USHORT,
            "int": T.INT,
            "signed": T.INT,
            "signed int": T.INT,
            "unsigned": T.UINT,
            "unsigned int": T.UINT,
            "long": T.LONG,
            "long int": T.LONG,
            "long long": T.LONG,
            "long long int": T.LONG,
            "unsigned long": T.ULONG,
            "unsigned long long": T.ULONG,
            "float": T.FLOAT,
            "double": T.DOUBLE,
            "long double": T.LONG_DOUBLE,
        }
        if key not in mapping:
            raise self._error(f"unsupported type {key!r}")
        return mapping[key]

    def _parse_declarator(
        self, base: T.CType, allow_abstract: bool = False
    ) -> Tuple[T.CType, str, Token]:
        """Parse pointers, an optional name, and array suffixes."""
        ctype = base
        while self._accept("punct", "*"):
            ctype = T.PointerType(ctype)
        if self._accept("punct", "&"):
            ctype = T.ReferenceType(ctype)
        name_tok = self._peek()
        if self._at("ident"):
            name = self._advance().text
        elif allow_abstract:
            name = ""
        else:
            raise self._error(f"expected identifier, found {name_tok.text!r}")
        self._pending_vla: Optional[N.Expr] = None
        dims: List[Optional[int]] = []
        while self._accept("punct", "["):
            if self._accept("punct", "]"):
                dims.append(None)
                continue
            size_expr = self._parse_expr()
            self._expect("punct", "]")
            const = _fold_int(size_expr)
            if const is None:
                # VLA: the size is a runtime expression, which synthesis
                # rejects (post 729976).  Record the expression.
                dims.append(None)
                self._pending_vla = size_expr
            else:
                dims.append(const)
        for dim in reversed(dims):
            ctype = T.ArrayType(ctype, dim)
        return ctype, name, name_tok

    # -- statements --------------------------------------------------------------

    def _parse_compound(self) -> N.Compound:
        start = self._expect("punct", "{")
        items: List[N.Stmt] = []
        while not self._at_punct("}"):
            items.append(self._parse_stmt())
        self._expect("punct", "}")
        return N.Compound(items=items, **self._loc(start))

    def _parse_stmt(self) -> N.Stmt:
        tok = self._peek()
        if self._at("pragma"):
            self._advance()
            return N.Pragma(text=tok.text, **self._loc(tok))
        if self._at_punct("{"):
            return self._parse_compound()
        if self._at_punct(";"):
            self._advance()
            return N.Empty(**self._loc(tok))
        if self._at_keyword("if"):
            return self._parse_if()
        if self._at_keyword("while"):
            return self._parse_while()
        if self._at_keyword("do"):
            return self._parse_do_while()
        if self._at_keyword("for"):
            return self._parse_for()
        if self._at_keyword("return"):
            self._advance()
            value = None if self._at_punct(";") else self._parse_expr()
            self._expect("punct", ";")
            return N.Return(value=value, **self._loc(tok))
        if self._at_keyword("break"):
            self._advance()
            self._expect("punct", ";")
            return N.Break(**self._loc(tok))
        if self._at_keyword("continue"):
            self._advance()
            self._expect("punct", ";")
            return N.Continue(**self._loc(tok))
        if self._starts_decl():
            return self._parse_decl_stmt()
        expr = self._parse_expr()
        self._expect("punct", ";")
        return N.ExprStmt(expr=expr, **self._loc(tok))

    def _starts_decl(self) -> bool:
        if self._at_keyword("static") or self._at_keyword("const"):
            return True
        return self.starts_type()

    def _parse_decl_stmt(self) -> N.DeclStmt:
        tok = self._peek()
        is_static = bool(self._accept("keyword", "static"))
        is_const = bool(self._accept("keyword", "const"))
        is_static = is_static or bool(self._accept("keyword", "static"))
        base = self._parse_type()
        ctype, name, name_tok = self._parse_declarator(base)
        decl = self._finish_var_decl(ctype, name, name_tok, is_static, is_const)
        self._expect("punct", ";")
        return N.DeclStmt(decl=decl, **self._loc(tok))

    def _parse_if(self) -> N.If:
        tok = self._expect("keyword", "if")
        self._expect("punct", "(")
        cond = self._parse_expr()
        self._expect("punct", ")")
        then = self._parse_stmt()
        other = self._parse_stmt() if self._accept("keyword", "else") else None
        return N.If(cond=cond, then=then, other=other, **self._loc(tok))

    def _parse_while(self) -> N.While:
        tok = self._expect("keyword", "while")
        self._expect("punct", "(")
        cond = self._parse_expr()
        self._expect("punct", ")")
        body = self._parse_stmt()
        return N.While(cond=cond, body=body, **self._loc(tok))

    def _parse_do_while(self) -> N.DoWhile:
        tok = self._expect("keyword", "do")
        body = self._parse_stmt()
        self._expect("keyword", "while")
        self._expect("punct", "(")
        cond = self._parse_expr()
        self._expect("punct", ")")
        self._expect("punct", ";")
        return N.DoWhile(body=body, cond=cond, **self._loc(tok))

    def _parse_for(self) -> N.For:
        tok = self._expect("keyword", "for")
        self._expect("punct", "(")
        init: Optional[N.Stmt] = None
        if not self._accept("punct", ";"):
            if self._starts_decl():
                init = self._parse_decl_stmt()
            else:
                expr = self._parse_expr()
                self._expect("punct", ";")
                init = N.ExprStmt(expr=expr, **self._loc(tok))
        cond = None if self._at_punct(";") else self._parse_expr()
        self._expect("punct", ";")
        step = None if self._at_punct(")") else self._parse_expr()
        self._expect("punct", ")")
        body = self._parse_stmt()
        return N.For(init=init, cond=cond, step=step, body=body, **self._loc(tok))

    # -- expressions ---------------------------------------------------------------

    def _parse_expr(self) -> N.Expr:
        expr = self._parse_assignment()
        while self._at_punct(","):
            tok = self._advance()
            right = self._parse_assignment()
            expr = N.BinOp(op=",", left=expr, right=right, **self._loc(tok))
        return expr

    def _parse_assignment(self) -> N.Expr:
        left = self._parse_conditional()
        tok = self._peek()
        if tok.kind == "punct" and tok.text in _ASSIGN_OPS:
            self._advance()
            value = self._parse_assignment()
            return N.Assign(op=tok.text, target=left, value=value, **self._loc(tok))
        return left

    def _parse_conditional(self) -> N.Expr:
        cond = self._parse_binary(0)
        if self._at_punct("?"):
            tok = self._advance()
            then = self._parse_expr()
            self._expect("punct", ":")
            other = self._parse_conditional()
            return N.Cond(cond=cond, then=then, other=other, **self._loc(tok))
        return cond

    _BINARY_LEVELS: List[List[str]] = [
        ["||"],
        ["&&"],
        ["|"],
        ["^"],
        ["&"],
        ["==", "!="],
        ["<", "<=", ">", ">="],
        ["<<", ">>"],
        ["+", "-"],
        ["*", "/", "%"],
    ]

    def _parse_binary(self, level: int) -> N.Expr:
        if level >= len(self._BINARY_LEVELS):
            return self._parse_unary()
        ops = self._BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while self._peek().kind == "punct" and self._peek().text in ops:
            tok = self._advance()
            right = self._parse_binary(level + 1)
            left = N.BinOp(op=tok.text, left=left, right=right, **self._loc(tok))
        return left

    def _parse_unary(self) -> N.Expr:
        tok = self._peek()
        if tok.kind == "punct" and tok.text in ("+", "-", "!", "~", "*", "&"):
            self._advance()
            operand = self._parse_unary()
            return N.UnOp(op=tok.text, operand=operand, **self._loc(tok))
        if tok.kind == "punct" and tok.text in ("++", "--"):
            self._advance()
            operand = self._parse_unary()
            return N.IncDec(op=tok.text, operand=operand, postfix=False, **self._loc(tok))
        if self._at_keyword("sizeof"):
            self._advance()
            self._expect("punct", "(")
            if self.starts_type():
                of_type = self._parse_type()
                while self._accept("punct", "*"):
                    of_type = T.PointerType(of_type)
                self._expect("punct", ")")
                return N.SizeofType(of_type=of_type, **self._loc(tok))
            expr = self._parse_expr()
            self._expect("punct", ")")
            return N.SizeofExpr(expr=expr, **self._loc(tok))
        if self._at_punct("(") and self.starts_type(1):
            self._advance()
            to_type = self._parse_type()
            while self._accept("punct", "*"):
                to_type = T.PointerType(to_type)
            self._expect("punct", ")")
            expr = self._parse_unary()
            return N.Cast(to_type=to_type, expr=expr, **self._loc(tok))
        return self._parse_postfix()

    def _parse_postfix(self) -> N.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if self._at_punct("("):
                self._advance()
                args: List[N.Expr] = []
                if not self._at_punct(")"):
                    while True:
                        args.append(self._parse_assignment())
                        if not self._accept("punct", ","):
                            break
                self._expect("punct", ")")
                expr = N.Call(func=expr, args=args, **self._loc(tok))
            elif self._at_punct("["):
                self._advance()
                index = self._parse_expr()
                self._expect("punct", "]")
                expr = N.Index(base=expr, index=index, **self._loc(tok))
            elif self._at_punct("."):
                self._advance()
                name = self._expect("ident").text
                expr = N.Member(obj=expr, name=name, arrow=False, **self._loc(tok))
            elif self._at_punct("->"):
                self._advance()
                name = self._expect("ident").text
                expr = N.Member(obj=expr, name=name, arrow=True, **self._loc(tok))
            elif self._at_punct("++") or self._at_punct("--"):
                self._advance()
                expr = N.IncDec(op=tok.text, operand=expr, postfix=True, **self._loc(tok))
            else:
                return expr

    def _parse_primary(self) -> N.Expr:
        tok = self._peek()
        if tok.kind == "int":
            self._advance()
            return N.IntLit(value=int(tok.text.rstrip("uUlL"), 0), text=tok.text, **self._loc(tok))
        if tok.kind == "float":
            self._advance()
            return N.FloatLit(value=float(tok.text.rstrip("fFlL")), text=tok.text, **self._loc(tok))
        if tok.kind == "char":
            self._advance()
            return N.CharLit(value=ord(tok.text), text=tok.text, **self._loc(tok))
        if tok.kind == "string":
            self._advance()
            return N.StringLit(value=tok.text, **self._loc(tok))
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self._advance()
            return N.IntLit(value=1 if tok.text == "true" else 0, text=tok.text, **self._loc(tok))
        if (
            tok.kind == "ident"
            and tok.text == "thls"
            and self._peek(1).text == "::"
            and self._peek(2).text == "to"
        ):
            return self._parse_policy_cast(tok)
        if tok.kind == "ident":
            self._advance()
            return N.Ident(name=tok.text, **self._loc(tok))
        if self._at_punct("("):
            self._advance()
            expr = self._parse_expr()
            self._expect("punct", ")")
            return expr
        raise self._error(f"unexpected token {tok.text!r} in expression")

    def _parse_policy_cast(self, tok: Token) -> N.Expr:
        """``thls::to<T, policy>(expr)`` — the Figure 4 explicit-policy
        cast the ``type_casting`` repair edits emit.  The printer renders
        :class:`~repro.cfront.nodes.Cast` nodes with a non-empty
        ``explicit_policy`` in this form, so accepting it here keeps the
        render → parse round trip closed for repaired candidates (the
        HLS-C output of a repair is rendered source)."""
        self._advance()  # thls
        self._expect("punct", "::")
        self._expect("ident", "to")
        self._expect("punct", "<")
        to_type = self._parse_type()
        while self._accept("punct", "*"):
            to_type = T.PointerType(to_type)
        self._expect("punct", ",")
        # The policy is free-form (`thls::convert_policy(0xF)`): collect
        # its tokens verbatim up to the `>` closing the template.
        parts: List[str] = []
        depth = 0
        while True:
            nxt = self._peek()
            if nxt.kind == "eof":
                raise self._error("unterminated thls::to<...> policy")
            if nxt.kind == "punct" and nxt.text == "<":
                depth += 1
            elif nxt.kind == "punct" and nxt.text == ">":
                if depth == 0:
                    break
                depth -= 1
            parts.append(self._advance().text)
        self._expect("punct", ">")
        self._expect("punct", "(")
        expr = self._parse_expr()
        self._expect("punct", ")")
        return N.Cast(
            to_type=to_type,
            expr=expr,
            explicit_policy="".join(parts),
            **self._loc(tok),
        )


def _fold_int(expr: N.Expr) -> Optional[int]:
    """Evaluate an integer constant expression, or return None."""
    if isinstance(expr, N.IntLit):
        return expr.value
    if isinstance(expr, N.CharLit):
        return expr.value
    if isinstance(expr, N.UnOp):
        value = _fold_int(expr.operand)
        if value is None:
            return None
        return {"-": -value, "+": value, "~": ~value, "!": int(not value)}.get(expr.op)
    if isinstance(expr, N.BinOp):
        left, right = _fold_int(expr.left), _fold_int(expr.right)
        if left is None or right is None:
            return None
        try:
            return {
                "+": lambda: left + right,
                "-": lambda: left - right,
                "*": lambda: left * right,
                "/": lambda: left // right if right else None,
                "%": lambda: left % right if right else None,
                "<<": lambda: left << right,
                ">>": lambda: left >> right,
                "&": lambda: left & right,
                "|": lambda: left | right,
                "^": lambda: left ^ right,
            }[expr.op]()
        except KeyError:
            return None
    if isinstance(expr, N.SizeofType):
        return expr.of_type.sizeof()
    return None


def _seeded_parser(source: str, unit: Optional[N.TranslationUnit]) -> Parser:
    """A parser pre-loaded with the typedefs/struct tags of *unit*, so code
    fragments synthesized by repair edits can reference existing types."""
    parser = Parser(tokenize(source))
    if unit is not None:
        for decl in unit.decls:
            if isinstance(decl, N.TypedefDecl):
                parser.typedefs[decl.name] = decl.type  # type: ignore[assignment]
            elif isinstance(decl, N.StructDef):
                assert isinstance(decl.type, T.StructType)
                parser.structs[decl.tag] = decl.type
    return parser


def parse_fragment_decls(
    source: str, unit: Optional[N.TranslationUnit] = None
) -> List[N.Decl]:
    """Parse top-level declarations in the type context of *unit*.

    Every node gets a fresh uid, so the result can be spliced into *unit*
    directly.  Used by repair edits that synthesize support code (memory
    pools, stack machinery, operator helpers).
    """
    parser = _seeded_parser(source, unit)
    return parser.parse_translation_unit().decls


def parse_fragment_stmts(
    source: str, unit: Optional[N.TranslationUnit] = None
) -> List[N.Stmt]:
    """Parse a statement sequence in the type context of *unit*."""
    parser = _seeded_parser("void __fragment__() {\n" + source + "\n}", unit)
    fragment_unit = parser.parse_translation_unit()
    func = fragment_unit.decls[0]
    assert isinstance(func, N.FunctionDef) and func.body is not None
    return func.body.items


def parse_fragment_expr(
    source: str, unit: Optional[N.TranslationUnit] = None
) -> N.Expr:
    """Parse a single expression in the type context of *unit*."""
    stmts = parse_fragment_stmts(source + ";", unit)
    assert len(stmts) == 1 and isinstance(stmts[0], N.ExprStmt)
    return stmts[0].expr


def parse(source: str, top_name: str = "") -> N.TranslationUnit:
    """Parse *source* into a :class:`TranslationUnit`.

    :param top_name: the HLS top function name for this design, recorded on
        the unit so the Top Function checks can validate it.
    """
    unit = Parser(tokenize(source)).parse_translation_unit()
    unit.top_name = top_name
    return unit
