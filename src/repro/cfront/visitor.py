"""Generic AST traversal helpers: search (:func:`find_all`,
:func:`find_by_uid`, :func:`find_parent`, :func:`enclosing_function`),
used heavily by repair localization and the edits, and in-place
expression rewriting (:func:`rewrite_exprs`).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Type

from . import nodes as N
from .nodes import NodeT


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


def enclosing_function(unit: N.TranslationUnit, uid: int) -> Optional[N.FunctionDef]:
    """The function definition whose body contains the node with *uid*."""
    for func in unit.functions():
        if func.body is None:
            continue
        if any(n.uid == uid for n in func.body.walk()):
            return func
    return None


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
