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

``REPRO_INCREMENTAL`` selects the mode at process start; any other value
than the ones below is an error:

* ``1``/``on`` (default) — incremental caches on;
* ``0``/``off`` — the analysis memos compute every value afresh and
  repair edits deep-copy the whole unit: the reference the other modes
  are compared against;
* ``cross`` — caches on, but every analysis-cache hit *recomputes* the
  result and asserts it equals the cached one
  (:class:`IncrementalMismatch` on divergence).

Two places act on the mode: :meth:`repro.memo.AnalysisCache.get_or_compute`
for every memo, and ``edits/base.cloned_unit`` for copy-on-write clones
and digest inheritance.  Fingerprints themselves are computed in every
mode — the evaluation cache keys candidates by them.

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


def _feed_pragma_free(value: object, h) -> None:
    if isinstance(value, N.Node):
        if type(value) is N.Pragma:
            # A pragma in a single-statement slot executes as ``;``.
            h.update(b"(Empty{%d})" % value.line)
            return
        h.update(b"(")
        h.update(type(value).__name__.encode())
        h.update(b"{%d" % value.line)
        for name in type(value).__dataclass_fields__:
            if name in _META_FIELDS:
                continue
            h.update(name.encode())
            h.update(b"=")
            _feed_pragma_free(getattr(value, name), h)
        h.update(b"})")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            if type(item) is not N.Pragma:
                _feed_pragma_free(item, h)
        h.update(b"]")
    else:
        h.update(repr(value).encode())
        h.update(b"|")


def pragma_free_fingerprint(unit: N.TranslationUnit) -> str:
    """Digest of what executing *unit* can observe: its pragma-free
    program (see :func:`strip_pragmas`) with every node's line, since
    fault texts quote lines.  Pragmas, ``col`` and ``uid`` are left out.
    """
    h = hashlib.sha256()
    _feed_pragma_free(unit, h)
    return h.hexdigest()


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
    if dirty is None:
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
