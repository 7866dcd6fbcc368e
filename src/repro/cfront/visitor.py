"""Generic AST traversal helpers.

Two flavours are provided:

* :class:`Visitor` — read-only, dispatches on node class name
  (``visit_FunctionDef`` etc.), with a generic fallback that recurses.
* module-level search helpers (:func:`find_all`, :func:`find_by_uid`,
  :func:`find_parent`) used heavily by repair localization and the edits.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Type

from . import nodes as N
from .nodes import NodeT


class Visitor:
    """Dispatching read-only visitor."""

    def visit(self, node: N.Node) -> None:
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            method(node)
        else:
            self.generic_visit(node)

    def generic_visit(self, node: N.Node) -> None:
        for child in node.children():
            self.visit(child)


def find_all(root: N.Node, node_type: Type[NodeT],
             predicate: Optional[Callable[[NodeT], bool]] = None) -> List[NodeT]:
    """All descendants of *root* (inclusive) of the given type."""
    out: List[NodeT] = []
    for node in root.walk():
        if isinstance(node, node_type) and (predicate is None or predicate(node)):
            out.append(node)
    return out


def find_by_uid(root: N.Node, uid: int) -> Optional[N.Node]:
    """Locate the node with the given uid, or None."""
    for node in root.walk():
        if node.uid == uid:
            return node
    return None


def find_parent(root: N.Node, child: N.Node) -> Optional[N.Node]:
    """The node under *root* (inclusive) that holds *child* directly,
    or None."""
    for node in root.walk():
        for candidate in node.children():
            if candidate is child:
                return node
    return None


def calls_to(root: N.Node, func_name: str) -> List[N.Call]:
    """All direct calls to *func_name* under *root*."""
    return find_all(
        root, N.Call, lambda c: c.callee_name == func_name
    )


def enclosing_function(unit: N.TranslationUnit, uid: int) -> Optional[N.FunctionDef]:
    """The function definition whose body contains the node with *uid*."""
    for func in unit.functions():
        if func.body is None:
            continue
        if any(n.uid == uid for n in func.body.walk()):
            return func
    return None


def replace_stmt_in(container: N.Node, old_uid: int,
                    replacement: List[N.Stmt]) -> bool:
    """Replace the statement with *old_uid* inside any statement list under
    *container* by *replacement* (which may be empty, i.e. deletion).

    Returns True when a replacement happened.
    """
    for node in container.walk():
        items = getattr(node, "items", None)
        if not isinstance(items, list):
            continue
        for i, stmt in enumerate(items):
            if isinstance(stmt, N.Node) and stmt.uid == old_uid:
                items[i : i + 1] = replacement
                return True
    return False


def insert_before(container: N.Node, anchor_uid: int, new_stmts: List[N.Stmt]) -> bool:
    """Insert statements immediately before the statement with *anchor_uid*."""
    for node in container.walk():
        items = getattr(node, "items", None)
        if not isinstance(items, list):
            continue
        for i, stmt in enumerate(items):
            if isinstance(stmt, N.Node) and stmt.uid == anchor_uid:
                items[i:i] = new_stmts
                return True
    return False


def replace_expr(container: N.Node, old_uid: int, replacement: N.Expr) -> bool:
    """Replace the expression node with *old_uid* wherever it hangs off
    *container* (single-node field or inside a node list)."""
    for node in container.walk():
        values = node.__dict__
        for field_name in N.child_fields(type(node)):
            value = values[field_name]
            if isinstance(value, N.Node) and value.uid == old_uid:
                values[field_name] = replacement
                return True
            if isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, N.Node) and item.uid == old_uid:
                        value[i] = replacement
                        return True
    return False


def rewrite_exprs(node: N.Node, fn: Callable[[N.Expr], Optional[N.Expr]]) -> None:
    """Bottom-up expression rewriting in place.

    *fn* is called on every expression after its children were rewritten;
    returning a node substitutes it, returning None keeps the original.
    """

    def rewrite(value):
        if isinstance(value, N.Expr):
            _rewrite_children(value)
            replacement = fn(value)
            return replacement if replacement is not None else value
        if isinstance(value, N.Node):
            _rewrite_children(value)
            return value
        return value

    def _rewrite_children(owner: N.Node) -> None:
        values = owner.__dict__
        for field_name in N.child_fields(type(owner)):
            child = values[field_name]
            if isinstance(child, N.Node):
                values[field_name] = rewrite(child)
            elif isinstance(child, list):
                for i, item in enumerate(child):
                    if isinstance(item, N.Node):
                        child[i] = rewrite(item)

    _rewrite_children(node)


def insert_after(container: N.Node, anchor_uid: int, new_stmts: List[N.Stmt]) -> bool:
    """Insert statements immediately after the statement with *anchor_uid*."""
    for node in container.walk():
        items = getattr(node, "items", None)
        if not isinstance(items, list):
            continue
        for i, stmt in enumerate(items):
            if isinstance(stmt, N.Node) and stmt.uid == anchor_uid:
                items[i + 1 : i + 1] = new_stmts
                return True
    return False
