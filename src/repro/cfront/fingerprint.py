"""Content-addressed AST fingerprints for incremental evaluation.

The repair search evaluates hundreds of candidates that each differ from
their parent by a single edit, yet every toolchain stage used to
re-process the whole translation unit.  This module gives every AST
subtree a *content hash* so downstream stages (cache keys, style checks,
synthesizability checks, scheduling, interpreter compilation) can reuse
work for subtrees whose content is unchanged.

Two digests per node
--------------------

``structural``
    Hash of every semantic dataclass field (operators, literal values
    *and* spellings, types, pragma text, declaration order …) but **not**
    the ``line``/``col``/``uid`` bookkeeping fields.  Two separately
    parsed copies of the same source hash structurally equal.  This is
    the digest cache keys build on: it distinguishes at least everything
    the pretty-printer distinguishes, so it is strictly finer-or-equal
    than the legacy ``render(unit)``-based key.

``exact``
    The structural hash *plus* a hash over every node's
    ``(line, col, uid)`` triple in walk order.  Two subtrees with equal
    exact digests are value-identical in **all** fields, so any pure
    analysis result derived from one (diagnostics carrying ``node_uid``,
    error strings quoting line numbers, coverage keyed by statement uid)
    is bit-identical for the other.  Memoized sub-results are keyed by
    exact digests for precisely this reason.

Caching and invalidation
------------------------

Digests for top-level declarations (and struct methods) are cached in a
side table stored on the :class:`~repro.cfront.nodes.TranslationUnit`
itself (``unit.__dict__['_fp_table']``), keyed by the declaration's
``uid``.  AST nodes are mutable dataclasses and therefore unhashable, so
identity-keyed maps are not an option; uids are unique within one tree
and preserved by :func:`~repro.cfront.nodes.clone`, which makes them the
natural key.

The invalidation rule is *dirty-aware cloning*:

* ``clone()`` (a raw deep copy) drops the table entirely — a clone is
  made to be mutated, and a mutated declaration with an inherited digest
  would be silently wrong;
* ``edits/base.cloned_unit(candidate, dirty=names)`` re-inherits the
  parent's table minus the declarations the edit declares it will touch,
  so unedited declarations keep their digests across the clone.  Edits
  that cannot bound their rewrite pass ``dirty=None`` and inherit
  nothing (safe default: everything is recomputed lazily).

Modes
-----

``REPRO_INCREMENTAL`` selects the mode at process start:

* ``1`` (default) — incremental caches on;
* ``0`` — every incremental path disabled; the pipeline behaves exactly
  as the pre-incremental code (the escape hatch);
* ``cross`` — caches on, but every analysis-cache hit *recomputes* the
  result and asserts it equals the cached one
  (:class:`IncrementalMismatch` on divergence).

All memoized sub-results hold pure computation only — never simulated
clock charges.  Charges are always issued by the live pipeline so
cached and uncached runs stay bit-identical on the simulated clock.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Optional, Tuple

from . import nodes as N

#: ``unit.__dict__`` key of the per-unit digest table: ``uid -> (structural,
#: exact)`` for top-level declarations and struct methods.
FP_TABLE_ATTR = "_fp_table"
#: ``unit.__dict__`` key of the memoized whole-unit structural digest.
UNIT_FP_ATTR = "_unit_fp"

MODES = ("on", "off", "cross")


class IncrementalMismatch(AssertionError):
    """Cross-check mode found a memoized sub-result that differs from a
    fresh recomputation — an invalidation bug."""


def _mode_from_env() -> str:
    raw = os.environ.get("REPRO_INCREMENTAL", "1").strip().lower()
    if raw in ("0", "off", "false", "no"):
        return "off"
    if raw == "cross":
        return "cross"
    return "on"


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


#: Units with at most this many function definitions (free functions
#: plus struct methods) bypass the fingerprint-memo machinery: hashing,
#: table upkeep and memo locking cost more than simply re-analysing one
#: or two small functions, which is exactly the regression the P1/P2
#: benchmark rows showed.
SMALL_UNIT_FUNCTIONS = 2


def memo_worthwhile(unit: N.TranslationUnit) -> bool:
    """Is *unit* big enough for fingerprint memos to pay for themselves?

    Memoized on the unit (``clone()`` drops the flag with the other
    fingerprint state).  The verdict is structural — a function count —
    so structurally-equal units always agree, which keeps cache-key
    schemes consistent between any two candidates that could share an
    entry.
    """
    cached = unit.__dict__.get("_memo_worthwhile")
    if cached is None:
        count = 0
        for decl in unit.decls:
            if isinstance(decl, N.FunctionDef):
                count += 1
            elif isinstance(decl, N.StructDef):
                count += len(decl.methods)
        cached = count > SMALL_UNIT_FUNCTIONS
        unit.__dict__["_memo_worthwhile"] = cached
    return cached


def unit_incremental_enabled(unit: N.TranslationUnit) -> bool:
    """The per-unit memo gate: incremental mode is on AND the unit is
    large enough that memo bookkeeping beats recomputation.  Pure-result
    memos consult this instead of :func:`incremental_enabled`; the
    bypass only changes *where* a value is computed, never the value."""
    return _MODE != "off" and memo_worthwhile(unit)


# --------------------------------------------------------------------------
# Digest computation
# --------------------------------------------------------------------------

_META_FIELDS = ("line", "col", "uid")


def _feed_value(value: object, sh, mh) -> None:
    if isinstance(value, N.Node):
        sh.update(b"(")
        _feed_node(value, sh, mh)
        sh.update(b")")
    elif isinstance(value, (list, tuple)):
        sh.update(b"[")
        for item in value:
            _feed_value(item, sh, mh)
        sh.update(b"]")
    else:
        # Primitives and CTypes.  CTypes are frozen dataclasses whose
        # default repr covers every field recursively, so repr() is a
        # canonical, deterministic serialization for them too.
        sh.update(repr(value).encode())
        sh.update(b"|")


def _feed_node(node: N.Node, sh, mh) -> None:
    sh.update(type(node).__name__.encode())
    sh.update(b"{")
    mh.update(b"%d,%d,%d;" % (node.line, node.col, node.uid))
    for name in type(node).__dataclass_fields__:
        if name in _META_FIELDS:
            continue
        value = getattr(node, name)
        sh.update(name.encode())
        sh.update(b"=")
        _feed_value(value, sh, mh)
    sh.update(b"}")


def node_digests(node: N.Node) -> Tuple[str, str]:
    """Compute ``(structural, exact)`` digests of *node* in one walk."""
    sh = hashlib.sha256()
    mh = hashlib.sha256()
    _feed_node(node, sh, mh)
    structural = sh.hexdigest()
    exact = hashlib.sha256(
        structural.encode() + b":" + mh.hexdigest().encode()
    ).hexdigest()
    return structural, exact


# --------------------------------------------------------------------------
# Per-unit digest table
# --------------------------------------------------------------------------


def _table(unit: N.TranslationUnit) -> Dict[int, Tuple[str, str]]:
    table = unit.__dict__.get(FP_TABLE_ATTR)
    if table is None:
        table = {}
        unit.__dict__[FP_TABLE_ATTR] = table
    return table


def decl_digests(unit: N.TranslationUnit, node: N.Node) -> Tuple[str, str]:
    """Memoized ``(structural, exact)`` digests of a top-level declaration
    or struct method of *unit*."""
    table = _table(unit)
    entry = table.get(node.uid)
    if entry is None:
        entry = node_digests(node)
        table[node.uid] = entry
    return entry


def structural_fp(unit: N.TranslationUnit, node: N.Node) -> str:
    return decl_digests(unit, node)[0]


def exact_fp(unit: N.TranslationUnit, node: N.Node) -> str:
    return decl_digests(unit, node)[1]


def unit_fingerprint(unit: N.TranslationUnit) -> str:
    """Structural digest of the whole unit, combined from the cached
    per-declaration digests (memoized on the unit)."""
    cached = unit.__dict__.get(UNIT_FP_ATTR)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    digest.update(b"unit|top=")
    digest.update(unit.top_name.encode())
    digest.update(b"|")
    for decl in unit.decls:
        digest.update(decl_digests(unit, decl)[0].encode())
        digest.update(b",")
    combined = digest.hexdigest()
    unit.__dict__[UNIT_FP_ATTR] = combined
    return combined


def strip_fingerprints(unit: N.TranslationUnit) -> None:
    """Drop every cached digest from *unit* (used by ``clone`` so a copy
    made for in-place mutation never carries stale entries)."""
    unit.__dict__.pop(FP_TABLE_ATTR, None)
    unit.__dict__.pop(UNIT_FP_ATTR, None)


def inherit_fingerprints(
    child: N.TranslationUnit,
    parent: N.TranslationUnit,
    dirty: Optional[Iterable[str]] = None,
) -> None:
    """Copy *parent*'s cached declaration digests onto *child* (a fresh
    clone), except for declarations named in *dirty*.

    ``dirty`` names top-level declarations the edit is about to mutate:
    function names, global/typedef names, struct tags.  A dirtied struct
    tag also invalidates that struct's methods.  ``dirty=None`` means
    "unknown extent" and inherits nothing.  The whole-unit digest is
    never inherited — it is cheap to recombine from the table.
    """
    if dirty is None or not incremental_enabled():
        return
    parent_table = parent.__dict__.get(FP_TABLE_ATTR)
    if not parent_table:
        return
    dirty_names = set(dirty)
    table = _table(child)
    for decl in parent.decls:
        name = N.decl_name(decl)
        if name in dirty_names:
            continue
        entry = parent_table.get(decl.uid)
        if entry is not None:
            table[decl.uid] = entry
        if isinstance(decl, N.StructDef):
            for method in decl.methods:
                mentry = parent_table.get(method.uid)
                if mentry is not None:
                    table[method.uid] = mentry
