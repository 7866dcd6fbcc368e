"""AST node definitions for the C/HLS-C subset.

Every node carries a source location and a stable ``uid`` assigned at parse
time.  The ``uid`` is what the rest of the system keys on:

* the interpreter's coverage recorder identifies branches by the ``uid`` of
  their controlling statement;
* repair localization returns the ``uid``s of nodes an edit should touch;
* edits produce new trees, and freshly created nodes receive new ``uid``s
  from a per-tree counter so identities never collide.

Nodes are mutable dataclasses: edits clone the tree (``clone`` below) and
rewrite the copy in place, which keeps the original program intact for
differential testing.
"""

from __future__ import annotations

import itertools
import typing
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .typesys import CType


_uid_counter = itertools.count(1)


def fresh_uid() -> int:
    """Return a process-unique node id."""
    return next(_uid_counter)


@dataclass
class Node:
    """Base class for all AST nodes."""

    line: int = field(default=0, kw_only=True)
    col: int = field(default=0, kw_only=True)
    uid: int = field(default_factory=fresh_uid, kw_only=True)

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (used by generic walkers)."""
        values = self.__dict__
        try:
            names = _CHILD_FIELDS[type(self)]
        except KeyError:
            names = child_fields(type(self))
        for name in names:
            value = values[name]
            if isinstance(value, Node):
                yield value
            elif type(value) is list:
                for item in value:
                    if isinstance(item, Node):
                        yield item

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order.

        An explicit stack rather than nested generators: children are
        pushed in reverse so they pop in field order, which is the order
        a recursive pre-order walk visits them.
        """
        reversed_fields = _CHILD_FIELDS_REVERSED
        stack: List[Node] = [self]
        pop, push = stack.pop, stack.append
        while stack:
            node = pop()
            yield node
            cls = type(node)
            try:
                names = reversed_fields[cls]
            except KeyError:
                names = reversed_fields[cls] = child_fields(cls)[::-1]
            values = node.__dict__
            for name in names:
                value = values[name]
                if isinstance(value, Node):
                    push(value)
                elif type(value) is list:
                    for item in reversed(value):
                        if isinstance(item, Node):
                            push(item)


NodeT = typing.TypeVar("NodeT", bound=Node)

#: Annotations of dataclass fields that never hold a child node.
_LEAF_TYPES = (int, float, str, CType)

_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {}
_CHILD_FIELDS_REVERSED: Dict[type, Tuple[str, ...]] = {}


def child_fields(cls: type) -> Tuple[str, ...]:
    """Names of the fields of node class *cls* that can hold a child node
    or a list of them, in declaration order.

    Read once per class from the resolved field annotations: every field
    annotated with a scalar, a string or a ``CType`` is a leaf, every
    other one (a node class, ``Optional``/``List`` of one) is a candidate
    whose value the walkers still type-check.
    """
    names = _CHILD_FIELDS.get(cls)
    if names is None:
        hints = typing.get_type_hints(cls)
        names = tuple(
            name
            for name in cls.__dataclass_fields__
            if not (
                isinstance(hints[name], type)
                and issubclass(hints[name], _LEAF_TYPES)
            )
        )
        _CHILD_FIELDS[cls] = names
    return names


def copy_tree(node: NodeT) -> NodeT:
    """Structural copy of a subtree: every node and node list is new,
    everything else is shared.

    Node fields hold nodes, lists of nodes, or immutable values —
    strings, numbers and frozen ``CType`` values — so sharing the
    latter is exact, and field values (``uid``/``line``/``col``
    included) are preserved verbatim.  Unlike ``copy.deepcopy`` there is
    no memo: a parsed or edited tree never holds the same node object
    twice, so the copy has the source's shape.
    """
    cls = type(node)
    new = object.__new__(cls)
    values = new.__dict__
    values.update(node.__dict__)
    try:
        names = _CHILD_FIELDS[cls]
    except KeyError:
        names = child_fields(cls)
    for name in names:
        value = values[name]
        if isinstance(value, Node):
            values[name] = copy_tree(value)
        elif type(value) is list:
            values[name] = [
                copy_tree(item) if isinstance(item, Node) else item
                for item in value
            ]
    return new


def clone_unit_with(
    unit: "TranslationUnit", decls: List["Decl"]
) -> "TranslationUnit":
    """A clone of *unit* whose declaration list is *decls*.

    Only the dataclass fields are copied; the scalar ones are immutable
    and shared.  Every other ``__dict__`` entry is a memo of the source
    unit's content (declaration records, the unit digest), and a clone
    is made to be mutated, so it starts without them.  Edits that can
    bound their rewrite re-inherit the surviving records through
    ``edits/base.cloned_unit``.
    """
    new = object.__new__(TranslationUnit)
    values = new.__dict__
    fields = TranslationUnit.__dataclass_fields__
    for key, value in unit.__dict__.items():
        if key in fields:
            values[key] = value
    values["decls"] = decls
    return new


def decl_name(decl: "Decl") -> str:
    """The name dirty sets use for a top-level declaration: a struct's
    tag, otherwise its ``name`` ("" when it has none)."""
    if isinstance(decl, StructDef):
        return decl.tag
    return getattr(decl, "name", "")


def cow_clone_unit(
    parent: "TranslationUnit", dirty: Set[str]
) -> "TranslationUnit":
    """Clone *parent* for in-place rewriting of the *dirty* declarations
    only: dirty decls (matched by :func:`decl_name`, as fingerprint
    inheritance matches them) are copied with :func:`copy_tree`, clean
    decls are shared by reference, and the unit-level state is what
    :func:`clone` would give.  Sharing is sound under the dirty contract that already
    governs fingerprint inheritance — an edit never mutates outside its
    declared dirty set — and units are never mutated once evaluation
    starts, so sharing into evaluated candidates is read-only."""
    return clone_unit_with(parent, [
        copy_tree(decl) if decl_name(decl) in dirty else decl
        for decl in parent.decls
    ])


def clone(node: NodeT) -> NodeT:
    """Copy a subtree for in-place rewriting, preserving node uids.

    Edits operate on clones so the unedited program survives; preserved
    uids let diagnostics produced against the original still locate nodes
    in the copy.  Nodes are copied with :func:`copy_tree`; a whole unit
    also goes through :func:`clone_unit_with`, which drops its cached
    content fingerprints (see :mod:`repro.cfront.fingerprint`) — a
    mutated declaration carrying an inherited digest would be silently
    stale.
    """
    if isinstance(node, TranslationUnit):
        return clone_unit_with(node, [copy_tree(d) for d in node.decls])  # type: ignore[return-value]
    return copy_tree(node)


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLit(Expr):
    value: int = 0
    text: str = ""


@dataclass
class FloatLit(Expr):
    value: float = 0.0
    text: str = ""


@dataclass
class CharLit(Expr):
    value: int = 0
    text: str = ""


@dataclass
class StringLit(Expr):
    value: str = ""


@dataclass
class Ident(Expr):
    name: str = ""


@dataclass
class BinOp(Expr):
    op: str = "+"
    left: Expr = None  # type: ignore[assignment]
    right: Expr = None  # type: ignore[assignment]


@dataclass
class UnOp(Expr):
    """Prefix unary operator, including ``*`` (deref) and ``&`` (addr-of)."""

    op: str = "-"
    operand: Expr = None  # type: ignore[assignment]


@dataclass
class IncDec(Expr):
    op: str = "++"
    operand: Expr = None  # type: ignore[assignment]
    postfix: bool = True


@dataclass
class Assign(Expr):
    """Assignment, plain (``=``) or compound (``+=`` …)."""

    op: str = "="
    target: Expr = None  # type: ignore[assignment]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class Cond(Expr):
    """Ternary ``cond ? then : other``."""

    cond: Expr = None  # type: ignore[assignment]
    then: Expr = None  # type: ignore[assignment]
    other: Expr = None  # type: ignore[assignment]


@dataclass
class Call(Expr):
    func: Expr = None  # type: ignore[assignment]
    args: List[Expr] = field(default_factory=list)

    @property
    def callee_name(self) -> Optional[str]:
        """The plain function name if the callee is a simple identifier."""
        return self.func.name if isinstance(self.func, Ident) else None


@dataclass
class Index(Expr):
    base: Expr = None  # type: ignore[assignment]
    index: Expr = None  # type: ignore[assignment]


@dataclass
class Member(Expr):
    """``obj.name`` or ``ptr->name`` (``arrow=True``)."""

    obj: Expr = None  # type: ignore[assignment]
    name: str = ""
    arrow: bool = False


@dataclass
class Cast(Expr):
    to_type: CType = None  # type: ignore[assignment]
    expr: Expr = None  # type: ignore[assignment]
    explicit_policy: str = ""
    """Non-empty when the cast came from a ``type_casting`` repair edit,
    e.g. ``thls::convert_policy(0xF)`` (Figure 4)."""


@dataclass
class SizeofType(Expr):
    of_type: CType = None  # type: ignore[assignment]


@dataclass
class SizeofExpr(Expr):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class InitList(Expr):
    """Brace initializer ``{a, b, c}``."""

    items: List[Expr] = field(default_factory=list)


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statements."""


@dataclass
class Pragma(Stmt):
    """``#pragma HLS …`` (or any other pragma), kept verbatim.

    The structured view (directive + options) is derived lazily by
    :mod:`repro.hls.pragmas`; the AST stores only the raw text so edits can
    insert/delete/move pragmas as opaque lines, exactly as HeteroGen does.
    """

    text: str = ""


@dataclass
class Compound(Stmt):
    items: List[Stmt] = field(default_factory=list)


@dataclass
class DeclStmt(Stmt):
    decl: "VarDecl" = None  # type: ignore[assignment]


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None  # type: ignore[assignment]


@dataclass
class If(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    then: Stmt = None  # type: ignore[assignment]
    other: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None  # type: ignore[assignment]
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class DoWhile(Stmt):
    body: Stmt = None  # type: ignore[assignment]
    cond: Expr = None  # type: ignore[assignment]


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None  # type: ignore[assignment]


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Empty(Stmt):
    pass


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------


@dataclass
class Decl(Node):
    """Base class for declarations."""


@dataclass
class VarDecl(Decl):
    name: str = ""
    type: CType = None  # type: ignore[assignment]
    init: Optional[Expr] = None
    is_static: bool = False
    is_const: bool = False
    vla_size: Optional[Expr] = None
    """For arrays whose size expression is not a compile-time constant
    (``MY_DATA buf[WIDTH][cols]`` in forum post 729976): the runtime size
    expression.  Presence of a ``vla_size`` is what the synthesizability
    checker flags as dynamic allocation."""


@dataclass
class ParamDecl(Decl):
    name: str = ""
    type: CType = None  # type: ignore[assignment]


@dataclass
class FunctionDef(Decl):
    name: str = ""
    return_type: CType = None  # type: ignore[assignment]
    params: List[ParamDecl] = field(default_factory=list)
    body: Optional[Compound] = None
    is_static: bool = False
    owner_struct: str = ""
    """Tag of the struct this is a member function of, or empty."""
    is_constructor: bool = False


@dataclass
class StructDef(Decl):
    tag: str = ""
    type: "CType" = None  # type: ignore[assignment]  # a StructType
    methods: List[FunctionDef] = field(default_factory=list)
    is_union: bool = False


@dataclass
class TypedefDecl(Decl):
    name: str = ""
    type: CType = None  # type: ignore[assignment]


@dataclass
class TranslationUnit(Node):
    """A whole source file."""

    decls: List[Decl] = field(default_factory=list)
    top_name: str = ""
    """Name of the HLS top function (module entry point).  Set from the
    subject's build configuration; the Top Function error family fires when
    it does not match any defined function."""

    def functions(self) -> List[FunctionDef]:
        out: List[FunctionDef] = []
        for d in self.decls:
            if isinstance(d, FunctionDef):
                out.append(d)
            elif isinstance(d, StructDef):
                out.extend(d.methods)
        return out

    def function(self, name: str) -> Optional[FunctionDef]:
        for f in self.functions():
            if f.name == name:
                return f
        return None

    def struct(self, tag: str) -> Optional[StructDef]:
        for d in self.decls:
            if isinstance(d, StructDef) and d.tag == tag:
                return d
        return None

    def globals(self) -> List[VarDecl]:
        return [d for d in self.decls if isinstance(d, VarDecl)]


def refresh_uids(node: Node) -> None:
    """Assign fresh uids to *node* and all descendants.

    Called on subtrees synthesized by repair edits before splicing them into
    a program, so inserted code never aliases the ids of existing nodes.
    """
    for n in node.walk():
        n.uid = fresh_uid()
