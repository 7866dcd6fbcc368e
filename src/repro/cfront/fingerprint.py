"""Content-addressed AST fingerprints for incremental evaluation.

The repair search evaluates hundreds of candidates that each differ from
their parent by a single edit, yet every toolchain stage used to
re-process the whole translation unit.  This module gives every AST
subtree a *content hash* so downstream stages (cache keys, style checks,
synthesizability checks, scheduling, interpreter compilation) can reuse
work for subtrees whose content is unchanged.

Digests
-------

``structural``
    Hash of every semantic dataclass field (operators, literal values
    *and* spellings, types, pragma text, declaration order …) but **not**
    the ``line``/``col``/``uid`` bookkeeping fields.  Two separately
    parsed copies of the same source hash structurally equal.  This is
    the digest cache keys build on: it distinguishes at least everything
    the pretty-printer distinguishes, so it is strictly finer-or-equal
    than the legacy ``render(unit)``-based key.

``pragma_free``
    What executing the declaration can observe: the structural stream
    with every node's line and without pragmas (the co-simulation key).

Caching and invalidation
------------------------

One pre-order walk of a top-level declaration (or struct method) builds
its :class:`DeclRecord`: both digests (the structural one fed byte for
byte as before, so evaluation-store keys do not move), the walk's uid
list, the ``for``/``while`` loops, the ``Call``, ``DeclStmt`` and
``Pragma`` nodes, and, on first use, the printed line count.  Records
live in a side table on the :class:`~repro.cfront.nodes.TranslationUnit`
(``unit.__dict__['_fp_table']``) keyed by the declaration's ``uid``:
nodes are mutable dataclasses and therefore unhashable, while uids are
unique within one tree and preserved by
:func:`~repro.cfront.nodes.clone`.

Every consumer that used to walk the whole unit reads the records
instead: the candidate key (:func:`unit_fingerprint`), the co-simulation
key (:func:`pragma_free_fingerprint`), the compile cost
(:func:`unit_loc`), the canonical uid space of the evaluation cache
(the records' ``uids``), the loop edits' loop list (:func:`unit_loops`),
dirty sets (``edits/base.owning_decl_names``), the style checker's
visible arrays, the synthesizability checks, the scheduler and the
partition proposals (:func:`unit_pragmas`).

The invalidation rule is *dirty-aware cloning*:

* ``clone()`` (a raw deep copy) drops the table entirely — a clone is
  made to be mutated, and a mutated declaration with an inherited record
  would be silently wrong;
* ``edits/base.cloned_unit(candidate, dirty=names)`` re-inherits the
  published parent's records minus the declarations the edit declares
  it will touch, so only those are walked again.  Edits that cannot
  bound their rewrite pass ``dirty=None`` and inherit nothing (safe
  default: everything is recomputed lazily).  No record is read from
  a clone an edit is still rewriting.

Modes
-----

``REPRO_INCREMENTAL`` selects the mode at process start; any other value
than the ones below is an error:

* ``1``/``on`` (default) — incremental caches on;
* ``0``/``off`` — the analysis memos compute every value afresh and
  repair edits deep-copy the whole unit: the reference the other modes
  are compared against;
* ``cross`` — caches on, but every analysis-cache hit *recomputes* the
  result and asserts it equals the cached one, and so does the first
  read of every inherited record (:class:`IncrementalMismatch` on
  divergence).

Three places act on the mode: :meth:`repro.memo.AnalysisCache.get_or_compute`
for every memo, ``edits/base.cloned_unit`` for copy-on-write clones
and record inheritance, and :func:`decl_record`.  Records are computed
in every mode — the evaluation cache keys candidates by them — but in
``off`` mode only keying keeps them on the unit.

All memoized sub-results hold pure computation only — never simulated
clock charges.  Charges are always issued by the live pipeline so
cached and uncached runs stay bit-identical on the simulated clock.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from . import nodes as N
from .printer import decl_loc

#: ``unit.__dict__`` key of the per-unit record table: ``uid ->``
#: :class:`DeclRecord` for top-level declarations and struct methods.
FP_TABLE_ATTR = "_fp_table"
#: ``unit.__dict__`` key of the uids whose records were inherited and not
#: yet re-checked (``cross`` mode only).
UNVERIFIED_ATTR = "_fp_unverified"
#: ``unit.__dict__`` key of the memoized whole-unit structural digest.
UNIT_FP_ATTR = "_unit_fp"

MODES = ("on", "off", "cross")


class IncrementalMismatch(AssertionError):
    """Cross-check mode found a memoized sub-result that differs from a
    fresh recomputation — an invalidation bug."""


#: Accepted ``REPRO_INCREMENTAL`` spellings; unset or empty means ``on``.
_ENV_MODES = {
    "": "on", "1": "on", "on": "on", "true": "on", "yes": "on",
    "0": "off", "off": "off", "false": "off", "no": "off",
    "cross": "cross",
}


def _mode_from_env() -> str:
    raw = os.environ.get("REPRO_INCREMENTAL", "").strip().lower()
    mode = _ENV_MODES.get(raw)
    if mode is None:
        raise ValueError(
            f"unknown REPRO_INCREMENTAL value {raw!r}; choose from "
            f"{tuple(name for name in _ENV_MODES if name)}"
        )
    return mode


_MODE = _mode_from_env()


def incremental_mode() -> str:
    """Current mode: ``"on"``, ``"off"`` or ``"cross"``."""
    return _MODE


def incremental_enabled() -> bool:
    return _MODE != "off"


def cross_check_enabled() -> bool:
    return _MODE == "cross"


def set_incremental_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown incremental mode {mode!r}")
    global _MODE
    _MODE = mode


@contextmanager
def forced_mode(mode: str) -> Iterator[None]:
    """Temporarily force the incremental mode (tests, cross-check runs)."""
    previous = _MODE
    set_incremental_mode(mode)
    try:
        yield
    finally:
        set_incremental_mode(previous)


# --------------------------------------------------------------------------
# Per-declaration records
# --------------------------------------------------------------------------

_META_FIELDS = ("line", "col", "uid")

#: Node kinds a record walk collects, besides digests and uids.
_PLAIN, _FUNCTION, _FOR, _WHILE, _CALL, _DECL_STMT, _PRAGMA = range(7)
_KINDS = (
    (N.FunctionDef, _FUNCTION), (N.For, _FOR), (N.While, _WHILE),
    (N.Call, _CALL), (N.DeclStmt, _DECL_STMT), (N.Pragma, _PRAGMA),
)

#: ``type -> ("Name{", (("field", "field="), ...), kind)``, filled once
#: per node class.
_ClassInfo = Tuple[str, Tuple[Tuple[str, str], ...], int]
_CLASS_INFO: Dict[type, _ClassInfo] = {}


def _class_info(cls: type) -> _ClassInfo:
    info = _CLASS_INFO.get(cls)
    if info is None:
        fields = tuple(
            (name, name + "=")
            for name in cls.__dataclass_fields__
            if name not in _META_FIELDS
        )
        kind = next(
            (kind for base, kind in _KINDS if issubclass(cls, base)), _PLAIN
        )
        info = _CLASS_INFO[cls] = (cls.__name__ + "{", fields, kind)
    return info


def _same_nodes(a: list, b: list) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


class DeclRecord:
    """What one pre-order walk of a declaration yields.

    ``structural``
        The hex digest described above.
    ``pragma_free``
        Raw digest of the declaration as :func:`pragma_free_fingerprint`
        sees it (None for a top-level ``Pragma``, which it skips).
    ``uids``
        Every node's uid in :meth:`~repro.cfront.nodes.Node.walk` order.
    ``loops``
        ``(function, loop)`` for every ``for``/``while`` loop, function
        by function: a function's ``for`` loops in pre-order, then its
        ``while`` loops.
    ``calls``/``decl_stmts``/``pragmas``
        Every ``Call``, ``DeclStmt`` and ``Pragma`` node in pre-order,
        as :func:`~repro.cfront.visitor.find_all` over the declaration
        lists them (a top-level ``Pragma`` is its own pragma).
    ``loc``
        Non-blank lines the printer gives the declaration; filled on
        first use by :func:`unit_loc`, since only a compile needs it.
    """

    __slots__ = (
        "structural", "pragma_free", "uids", "loops", "calls", "decl_stmts",
        "pragmas", "loc",
    )

    def __init__(
        self, structural, pragma_free, uids, loops, calls, decl_stmts, pragmas
    ):
        self.structural: str = structural
        self.pragma_free: Optional[bytes] = pragma_free
        self.uids: List[int] = uids
        self.loops: List[Tuple[N.FunctionDef, N.Stmt]] = loops
        self.calls: List[N.Call] = calls
        self.decl_stmts: List[N.DeclStmt] = decl_stmts
        self.pragmas: List[N.Pragma] = pragmas
        self.loc: Optional[int] = None

    def same_as(self, other: "DeclRecord") -> bool:
        """Equal in every field; node lists compare by node identity and
        an unfilled ``loc`` matches anything."""
        return (
            self.structural == other.structural
            and self.pragma_free == other.pragma_free
            and self.uids == other.uids
            and len(self.loops) == len(other.loops)
            and all(
                a[0] is b[0] and a[1] is b[1]
                for a, b in zip(self.loops, other.loops)
            )
            and _same_nodes(self.calls, other.calls)
            and _same_nodes(self.decl_stmts, other.decl_stmts)
            and _same_nodes(self.pragmas, other.pragmas)
            and (self.loc is None or other.loc is None or self.loc == other.loc)
        )


def build_record(node: N.Node) -> DeclRecord:
    """Walk *node* once and build its :class:`DeclRecord`.

    The structural stream is fed byte-for-byte as ever: a node is its
    class name and ``{`` … ``}`` around ``field=value`` for every field
    but ``line``/``col``/``uid``; a child node is wrapped in ``(`` … ``)``,
    a list in ``[`` … ``]``, and any other value is its ``repr`` plus
    ``|``.  The pragma-free stream is the structural one with every
    node's line, without pragmas in lists, and with a pragma that fills
    a single-statement slot read as ``(Empty{line})``.
    """
    # Pieces are kept as text and encoded once: UTF-8 of a concatenation
    # is the concatenation of the pieces' UTF-8.
    structural: List[str] = []
    free: List[str] = []
    uids: List[int] = []
    loops: List[Tuple[N.FunctionDef, N.Stmt]] = []
    calls: List[N.Call] = []
    decl_stmts: List[N.DeclStmt] = []
    pragmas: List[N.Pragma] = []
    s_add, p_add, uid_add = structural.append, free.append, uids.append
    Node, Pragma, class_info = N.Node, N.Pragma, _CLASS_INFO.get
    # The function being walked and its ``while`` loops, which follow
    # its ``for`` loops.
    func: Optional[N.FunctionDef] = None
    whiles: List[Tuple[N.FunctionDef, N.Stmt]] = []

    def feed_node(node: N.Node, pf: bool) -> None:
        nonlocal func, whiles
        cls = type(node)
        opening, fields, kind = class_info(cls) or _class_info(cls)
        values = node.__dict__
        uid_add(values["uid"])
        s_add(opening)
        if pf:
            p_add(f"({opening}{values['line']}")
        if kind:
            if kind == _FUNCTION:
                outer = func, whiles
                func, whiles = node, []
            elif kind == _CALL:
                calls.append(node)
            elif kind == _DECL_STMT:
                decl_stmts.append(node)
            elif kind == _PRAGMA:
                pragmas.append(node)
            elif func is not None:
                if kind == _FOR:
                    loops.append((func, node))
                else:
                    whiles.append((func, node))
        for field_name, label in fields:
            value = values[field_name]
            s_add(label)
            if pf:
                p_add(label)
            if isinstance(value, Node):
                s_add("(")
                if pf and type(value) is Pragma:
                    # A pragma in a single-statement slot executes as ``;``.
                    p_add("(Empty{%d})" % value.line)
                    feed_node(value, False)
                else:
                    feed_node(value, pf)
                s_add(")")
            elif isinstance(value, (list, tuple)):
                feed_items(value, pf)
            else:
                # Primitives and CTypes.  CTypes are frozen dataclasses
                # whose default repr covers every field recursively, so
                # repr() is a canonical serialization for them too.
                text = repr(value) + "|"
                s_add(text)
                if pf:
                    p_add(text)
        s_add("}")
        if pf:
            p_add("})")
        if kind == _FUNCTION:
            loops.extend(whiles)
            func, whiles = outer

    def feed_items(items, pf: bool) -> None:
        s_add("[")
        if pf:
            p_add("[")
        for item in items:
            if isinstance(item, Node):
                s_add("(")
                feed_node(item, pf and type(item) is not Pragma)
                s_add(")")
            elif isinstance(item, (list, tuple)):
                feed_items(item, pf)
            else:
                text = repr(item) + "|"
                s_add(text)
                if pf:
                    p_add(text)
        s_add("]")
        if pf:
            p_add("]")

    pf = type(node) is not Pragma
    feed_node(node, pf)
    # The walkers reach each other through closure cells; unlinking them
    # frees the piece lists now instead of at the next cyclic collection.
    feed_node = feed_items = None
    return DeclRecord(
        hashlib.sha256("".join(structural).encode()).hexdigest(),
        hashlib.sha256("".join(free).encode()).digest() if pf else None,
        uids,
        loops,
        calls,
        decl_stmts,
        pragmas,
    )


# --------------------------------------------------------------------------
# Per-unit record table
# --------------------------------------------------------------------------


def decl_record(unit: N.TranslationUnit, node: N.Node) -> DeclRecord:
    """The record of a top-level declaration or struct method of *unit*,
    memoized in the unit's table.

    ``off`` mode creates no table of its own (only
    :func:`unit_fingerprint`, which keys candidates in every mode, does),
    so the analysis stages of an unkeyed unit compute afresh.  ``cross``
    mode recomputes an inherited record on its first read and raises
    :class:`IncrementalMismatch` if it differs.
    """
    values = unit.__dict__
    table = values.get(FP_TABLE_ATTR)
    if table is not None:
        record = table.get(node.uid)
        if record is not None:
            unverified = values.get(UNVERIFIED_ATTR)
            if unverified and node.uid in unverified:
                unverified.discard(node.uid)
                _verify(record, node)
            return record
    record = build_record(node)
    if table is None:
        if _MODE == "off":
            return record
        table = values[FP_TABLE_ATTR] = {}
    table[node.uid] = record
    return record


def _verify(record: DeclRecord, node: N.Node) -> None:
    fresh = build_record(node)
    if record.loc is not None:
        fresh.loc = decl_loc(node)
    if not record.same_as(fresh):
        raise IncrementalMismatch(
            f"inherited record of {type(node).__name__} "
            f"{N.decl_name(node)!r} (uid {node.uid}) diverges from a "
            "fresh walk: an edit mutated outside its dirty set"
        )


def structural_fp(unit: N.TranslationUnit, node: N.Node) -> str:
    return decl_record(unit, node).structural


def unit_fingerprint(unit: N.TranslationUnit) -> str:
    """Structural digest of the whole unit, combined from the cached
    per-declaration digests (memoized on the unit)."""
    values = unit.__dict__
    cached = values.get(UNIT_FP_ATTR)
    if cached is not None:
        return cached
    # Keying starts the record table in every mode (see decl_record).
    values.setdefault(FP_TABLE_ATTR, {})
    digest = hashlib.sha256()
    digest.update(b"unit|top=")
    digest.update(unit.top_name.encode())
    digest.update(b"|")
    for decl in unit.decls:
        digest.update(decl_record(unit, decl).structural.encode())
        digest.update(b",")
    combined = digest.hexdigest()
    values[UNIT_FP_ATTR] = combined
    return combined


def pragma_free_fingerprint(unit: N.TranslationUnit) -> str:
    """Digest of what executing *unit* can observe: its pragma-free
    program (see :func:`strip_pragmas`) with every node's line, since
    fault texts quote lines.  Pragmas, ``col`` and ``uid`` are left out;
    it combines the records' pragma-free digests, skipping top-level
    pragmas.
    """
    h = hashlib.sha256(b"unit{%d|%s}" % (unit.line, unit.top_name.encode()))
    for decl in unit.decls:
        if type(decl) is not N.Pragma:
            h.update(decl_record(unit, decl).pragma_free)
    return h.hexdigest()


def unit_loops(unit: N.TranslationUnit) -> List[Tuple[N.FunctionDef, N.Stmt]]:
    """Every ``for`` and ``while`` loop of *unit*, function by function:
    a function's ``for`` loops in pre-order, then its ``while`` loops."""
    loops: List[Tuple[N.FunctionDef, N.Stmt]] = []
    for decl in unit.decls:
        loops.extend(decl_record(unit, decl).loops)
    return loops


def unit_pragmas(unit: N.TranslationUnit) -> List[N.Pragma]:
    """Every pragma of *unit* in walk order."""
    return [
        pragma
        for decl in unit.decls
        for pragma in decl_record(unit, decl).pragmas
    ]


def unit_loc(unit: N.TranslationUnit) -> int:
    """:func:`~repro.cfront.printer.count_loc` of *unit*, from the
    records' per-declaration counts."""
    total = 0
    for decl in unit.decls:
        record = decl_record(unit, decl)
        if record.loc is None:
            record.loc = decl_loc(decl)
        total += record.loc
    return total


def strip_pragmas(unit: N.TranslationUnit) -> N.TranslationUnit:
    """*unit* with every :class:`~repro.cfront.nodes.Pragma` removed.

    A pragma in a statement list is dropped; one that fills a
    single-statement slot (``if (c) #pragma …``) becomes an empty
    statement with its location, which both interpreters execute alike.
    Declarations holding no pragma are shared with *unit*, as
    :func:`~repro.cfront.nodes.cow_clone_unit` shares clean ones; *unit*
    itself is returned when it holds none at all.
    """
    decls = []
    changed = False
    for decl in unit.decls:
        if type(decl) is N.Pragma:
            changed = True
        elif any(type(node) is N.Pragma for node in decl.walk()):
            decls.append(_strip_copy(decl))
            changed = True
        else:
            decls.append(decl)
    return N.clone_unit_with(unit, decls) if changed else unit


def _strip_copy(decl: N.Decl) -> N.Decl:
    copy = N.copy_tree(decl)
    for node in copy.walk():
        values = node.__dict__
        for name in N.child_fields(type(node)):
            value = values[name]
            if type(value) is N.Pragma:
                values[name] = N.Empty(
                    line=value.line, col=value.col, uid=value.uid
                )
            elif type(value) is list:
                values[name] = [
                    item for item in value if type(item) is not N.Pragma
                ]
    return copy


def inherit_fingerprints(
    child: N.TranslationUnit,
    parent: N.TranslationUnit,
    dirty: Optional[Iterable[str]] = None,
) -> None:
    """Copy *parent*'s declaration records onto *child* (a fresh clone
    of a published unit), except for declarations named in *dirty*.

    ``dirty`` names top-level declarations the edit is about to mutate:
    function names, global/typedef names, struct tags.  A dirtied struct
    tag also invalidates that struct's methods.  ``dirty=None`` means
    "unknown extent" and inherits nothing.  The whole-unit digest is
    never inherited — it is cheap to recombine from the table.  In
    ``cross`` mode every inherited record is re-checked on its first
    read (see :func:`decl_record`).
    """
    if dirty is None:
        return
    parent_table = parent.__dict__.get(FP_TABLE_ATTR)
    if not parent_table:
        return
    dirty_names = set(dirty)
    table: Dict[int, DeclRecord] = {}
    for decl in parent.decls:
        if N.decl_name(decl) in dirty_names:
            continue
        record = parent_table.get(decl.uid)
        if record is not None:
            table[decl.uid] = record
        if isinstance(decl, N.StructDef):
            for method in decl.methods:
                record = parent_table.get(method.uid)
                if record is not None:
                    table[method.uid] = record
    child.__dict__[FP_TABLE_ATTR] = table
    if _MODE == "cross":
        child.__dict__[UNVERIFIED_ATTR] = set(table)
