"""Parsing and validation of ``#pragma HLS`` directives.

The AST keeps pragmas as raw text (so repair edits can insert/move/delete
them as opaque lines); this module derives the structured view the style
checker, synthesizability checker and scheduler need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..cfront import nodes as N

#: Directives the (simulated) toolchain understands.
KNOWN_DIRECTIVES = frozenset(
    [
        "pipeline",
        "unroll",
        "dataflow",
        "array_partition",
        "interface",
        "inline",
        "loop_tripcount",
        "stream",
    ]
)

#: Where each directive may legally appear.
FUNCTION_SCOPE = frozenset(["dataflow", "interface", "inline"])
LOOP_SCOPE = frozenset(["pipeline", "unroll", "loop_tripcount"])
VARIABLE_SCOPE = frozenset(["array_partition", "stream"])


@dataclass(frozen=True)
class HlsPragma:
    """A parsed ``#pragma HLS`` line."""

    directive: str
    options: Dict[str, str] = field(default_factory=dict)
    node_uid: int = 0

    def int_option(self, name: str, default: int = 0) -> int:
        raw = self.options.get(name)
        if raw is None:
            return default
        try:
            return int(raw, 0)
        except ValueError:
            return default

    @property
    def factor(self) -> int:
        return self.int_option("factor", 0)

    @property
    def variable(self) -> str:
        return self.options.get("variable", "")

    def render(self) -> str:
        parts = [f"HLS {self.directive}"]
        for key, value in self.options.items():
            if value == "":
                parts.append(key)
            else:
                parts.append(f"{key}={value}")
        return " ".join(parts)


def parse_pragma(node: N.Pragma) -> Optional[HlsPragma]:
    """Parse an AST pragma node.  Returns None for non-HLS pragmas."""
    words = node.text.split()
    if not words or words[0].upper() != "HLS":
        return None
    if len(words) < 2:
        return HlsPragma(directive="", node_uid=node.uid)
    directive = words[1].lower()
    options: Dict[str, str] = {}
    for word in words[2:]:
        if "=" in word:
            key, _, value = word.partition("=")
            options[key.lower()] = value
        else:
            options[word.lower()] = ""
    return HlsPragma(directive=directive, options=options, node_uid=node.uid)


def collect_pragmas(root: N.Node) -> List[HlsPragma]:
    """All HLS pragmas under *root*, in source order."""
    out: List[HlsPragma] = []
    for node in root.walk():
        if isinstance(node, N.Pragma):
            parsed = parse_pragma(node)
            if parsed is not None:
                out.append(parsed)
    return out


def function_pragmas(func: N.FunctionDef) -> List[HlsPragma]:
    """HLS pragmas at the immediate top level of a function body."""
    if func.body is None:
        return []
    out: List[HlsPragma] = []
    for stmt in func.body.items:
        if isinstance(stmt, N.Pragma):
            parsed = parse_pragma(stmt)
            if parsed is not None:
                out.append(parsed)
    return out


def loop_pragmas(loop_body: N.Stmt) -> List[HlsPragma]:
    """HLS pragmas written as the first statements of a loop body."""
    items: List[N.Stmt]
    if isinstance(loop_body, N.Compound):
        items = loop_body.items
    else:
        items = [loop_body]
    out: List[HlsPragma] = []
    for stmt in items:
        if not isinstance(stmt, N.Pragma):
            break
        parsed = parse_pragma(stmt)
        if parsed is not None:
            out.append(parsed)
    return out


def has_dataflow(func: N.FunctionDef) -> bool:
    return any(p.directive == "dataflow" for p in function_pragmas(func))
