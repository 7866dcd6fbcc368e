"""Decl-grain parse elision: AST grafting from a fragment cache.

The delta wire (:mod:`repro.core.parallel`) ships a candidate as per-
declaration text blocks, yet the worker still re-parses the *whole*
reassembled unit per job — ~9 ms against ~51 µs of splicing — because
whole-unit caching almost never hits: candidates are rarely byte-
identical even when nine of their ten declarations are.  This module
caches parses at the same grain the wire (and the PR 3 fingerprints)
already use: one **declaration block** at a time.

A cached entry is a :class:`DeclTemplate` — the block parsed as a
standalone mini-unit with the node-uid counter reset to 1 and source
lines starting at 1, so every template is position-independent.
Reconstructing a unit (:func:`graft_unit`) walks the blocks in unit
order, clones each template (:func:`~repro.cfront.nodes.copy_tree`
shares the frozen ``CType`` values and copies only the mutable nodes),
and remaps the clone into place (:func:`offset_node` adds the uid and
line bases accumulated from the preceding blocks).  Only blocks without
a cached template — in steady state exactly the one or two declarations
the candidate edited — are actually parsed.

Uid-canonicalization contract
-----------------------------

The grafted unit must be **bit-identical** to ``parse(render(unit))``
under the worker's uid-counter reset: same uids, same lines/columns,
same fingerprints, same render, same diagnostics order, same evalcache
keys.  Two properties of the parser make that reachable:

* uids are assigned in construction order during recursive descent, so
  the uids consumed while parsing one declaration form a contiguous
  range — **including** uids of discarded nodes (a folded constant
  array size is parsed, consumes a uid, and is then dropped), which is
  why a template records its *uid span* (counter consumption, measured
  as the mini-unit wrapper's uid minus one), never a node count;
* the outermost declaration node is constructed last in its range, so
  spans are stable and the final unit's wrapper uid is
  ``total_span + 1`` exactly as in a full parse (the counter is left
  at ``total_span + 2`` either way).

Environment addressing
----------------------

A block's parse depends on the typedef/struct environment accumulated
by the declarations before it, so templates are content-addressed by
``(block digest, environment digest)``.  The environment digest
advances only when a declaration actually changes the environment
(typedefs, struct definitions, forward-referenced struct placeholders
— recorded on the template as *env updates* at mini-parse time), which
keeps the addressing self-validating: a candidate that edits a typedef
re-keys every downstream block automatically, while reordering two
functions leaves every key intact.

``REPRO_AST_GRAFT`` selects the mode (the parent stamps it onto every
job, so workers forked before an env change still mirror the parent):

* ``1``/``on`` (default) — graft delta jobs, full-parse everything else;
* ``0``/``off`` — escape hatch: every job full-parses as before;
* ``cross`` — graft **and** full-parse every job, asserting node-exact
  equality (:class:`GraftMismatch` on divergence).

Parent-side reuse
-----------------

:func:`cow_clone_unit` applies the same decl-grain idea to the parent's
``edits/base.cloned_unit``: an edit that declares its dirty set shares
the clean declaration subtrees by reference and copies only the dirty
ones (plus the unit ``__dict__`` residue a full ``clone()`` would
produce).  The safety argument is exactly the one fingerprint
inheritance already rests on: an edit mutating a declaration outside
its declared dirty set was already a correctness bug before any
sharing existed, and ``REPRO_INCREMENTAL=cross`` catches it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import re
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import nodes as N
from . import typesys as T
from .lexer import tokenize
from .parser import Parser, parse
from .printer import render_unit_from_blocks

#: Environment variable selecting the graft mode.
GRAFT_ENV = "REPRO_AST_GRAFT"

MODES = ("on", "off", "cross")

#: Template-cache capacity.  A template holds one parsed declaration;
#: a search touches a few dozen distinct (block, environment) pairs per
#: subject, so — like the rendered-block cache it mirrors — the bound
#: only matters to long-lived (server-style) worker processes.
_MAX_TEMPLATES = 4096

#: Seed of the environment-digest chain (an empty typedef/struct env).
_ENV_SEED = hashlib.sha256(b"repro-graft-env:1").digest()


def graft_mode() -> str:
    """Current graft mode: ``"on"``, ``"off"`` or ``"cross"``.

    Read from :data:`GRAFT_ENV` on every call so benchmarks and tests
    can flip it without re-importing; job producers stamp the resolved
    mode onto the wire so workers never consult their own environment.
    """
    raw = os.environ.get(GRAFT_ENV, "1").strip().lower()
    if raw in ("0", "off", "false", "no"):
        return "off"
    if raw == "cross":
        return "cross"
    return "on"


class GraftMismatch(AssertionError):
    """``cross`` mode found a grafted unit that differs from a full
    parse of the same blocks — a uid-span, environment-addressing or
    remap bug."""


class GraftUnsupported(Exception):
    """A block the graft path cannot (or should not) handle — the
    caller falls back to a plain full parse, which is always correct."""


# --------------------------------------------------------------------------
# Decl templates
# --------------------------------------------------------------------------


class DeclTemplate:
    """One declaration block, parsed at relative coordinates.

    ``decl`` holds uids ``1..uid_span`` (minus any consumed by
    discarded nodes) and lines ``1..line_count``; ``env_updates``
    records how parsing the block changed the typedef/struct
    environment, so a cache hit can replay the change without parsing.
    """

    __slots__ = ("decl", "uid_span", "line_count", "unit_loc", "env_updates")

    def __init__(
        self,
        decl: N.Decl,
        uid_span: int,
        line_count: int,
        unit_loc: Tuple[int, int],
        env_updates: Tuple[Tuple[str, str, object], ...],
    ) -> None:
        self.decl = decl
        self.uid_span = uid_span
        self.line_count = line_count
        self.unit_loc = unit_loc
        self.env_updates = env_updates


_TEMPLATES: "OrderedDict[Tuple[bytes, bytes], DeclTemplate]" = OrderedDict()
_TEMPLATE_STATS = {"hits": 0, "misses": 0, "warmed": 0, "hole_hits": 0}


def decl_cache_stats() -> Dict[str, int]:
    """This process's decl-template cache counters (tests, debugging)."""
    return dict(_TEMPLATE_STATS)


def clear_decl_templates() -> None:
    """Drop every cached template and reset the counters (tests)."""
    _TEMPLATES.clear()
    _HOLE_FAMILIES.clear()
    for key in _TEMPLATE_STATS:
        _TEMPLATE_STATS[key] = 0


def _remember_template(key: Tuple[bytes, bytes], template: DeclTemplate) -> None:
    _TEMPLATES[key] = template
    _TEMPLATES.move_to_end(key)
    while len(_TEMPLATES) > _MAX_TEMPLATES:
        _TEMPLATES.popitem(last=False)


def _advance_env(digest: bytes, updates: Sequence[Tuple[str, str, object]]) -> bytes:
    """Fold a declaration's environment updates into the running digest.

    Called only for non-empty updates: declarations that leave the
    environment alone must not perturb the chain, so inserting or
    reordering plain functions never re-keys unrelated blocks.
    """
    h = hashlib.sha256(digest)
    for kind, name, value in updates:
        # CTypes are frozen dataclasses; their default repr covers every
        # field recursively, so repr() is a canonical serialization
        # (the same argument fingerprint.py makes).
        h.update(f"{kind}:{name}={value!r};".encode())
    return h.digest()


def _parse_template(
    block: str,
    typedefs: Dict[str, T.CType],
    structs: Dict[str, T.StructType],
) -> DeclTemplate:
    """Mini-parse *block* as a standalone unit at relative coordinates.

    The parser is seeded with copies of the accumulated environment (a
    parse mutates its dicts); the diff against the seeds — by object
    identity, which is deterministic for a deterministic parser — is
    recorded as the template's env updates.
    """
    parser = Parser(tokenize(block))
    parser.typedefs = dict(typedefs)
    parser.structs = dict(structs)
    N._uid_counter = itertools.count(1)
    unit = parser.parse_translation_unit()
    if len(unit.decls) != 1:
        raise GraftUnsupported(
            f"block parsed to {len(unit.decls)} declarations, expected 1"
        )
    updates: List[Tuple[str, str, object]] = []
    for name, value in parser.typedefs.items():
        if typedefs.get(name) is not value:
            updates.append(("typedef", name, value))
    for tag, value in parser.structs.items():
        if structs.get(tag) is not value:
            updates.append(("struct", tag, value))
    return DeclTemplate(
        decl=unit.decls[0],
        uid_span=unit.uid - 1,
        line_count=block.count("\n") + 1,
        unit_loc=(unit.line, unit.col),
        env_updates=tuple(updates),
    )


# --------------------------------------------------------------------------
# Hole templates: decl structure modulo integer literals
# --------------------------------------------------------------------------
#
# Repair searches ladder parameters: ``array_static(buf, 512)`` and
# ``array_static(buf, 1024)`` produce dirty blocks that differ in one
# integer literal, yet each is novel *content* and misses the exact
# template tier.  The hole tier caches the parse of the *shape* — the
# block with every plain decimal integer literal replaced by a hole —
# and rebuilds a variant by patching the cached AST: new ``IntLit``
# value/text, pragma text re-derived from the variant line, and a
# uniform column shift for every node to the right of a hole whose
# literal width changed.
#
# Substitution is **proof-gated**, never assumed: a hole is trusted
# only after a full parse (that a cache miss paid for anyway) was
# compared node-for-node against the substitution that would have
# replaced it.  Literals whose value changes parse *structure* —
# array dimensions folded into ``CType``\ s, VLA sizes, anything
# without a literal-addressed AST node — fail that comparison and stay
# unproven forever, so the tier falls back to a real parse for them.

#: A plain decimal integer literal: no hex/octal prefix, no ``u``/``l``
#: suffix, not a float fragment.  Anything else stays verbatim in the
#: normalized shape (differing there simply keys a different family).
_INT_LIT = re.compile(r"(?<![\w.])\d+(?![\w.])")

#: Hole-family cache bound (families are one decl plus hole metadata).
_MAX_FAMILIES = 1024


class _Hole:
    """One literal site in a family's base block."""

    __slots__ = ("line", "col", "text", "kind", "proven")

    def __init__(self, line: int, col: int, text: str) -> None:
        self.line = line
        self.col = col
        self.text = text
        #: ``"int"`` (an IntLit node sits at the literal's loc),
        #: ``"pragma"`` (the literal lives inside a Pragma's raw text),
        #: or ``"dim"`` (an array bound baked into a declarator's
        #: CType); assigned at proof time, ``None`` until then.
        self.kind: Optional[str] = None
        self.proven = False


class _HoleFamily:
    """A decl shape: the base member's template plus its literal sites."""

    __slots__ = ("template", "holes")

    def __init__(self, template: DeclTemplate, holes: List[_Hole]) -> None:
        self.template = template
        self.holes = holes


_HOLE_FAMILIES: "OrderedDict[Tuple[bytes, bytes], _HoleFamily]" = OrderedDict()


def _block_holes(block: str) -> Tuple[str, List[_Hole]]:
    """The normalized shape of *block* and its literal sites (1-based
    line/col, matching the lexer's token coordinates)."""
    holes: List[_Hole] = []
    for m in _INT_LIT.finditer(block):
        start = m.start()
        line_start = block.rfind("\n", 0, start) + 1
        holes.append(
            _Hole(
                line=block.count("\n", 0, start) + 1,
                col=start - line_start + 1,
                text=m.group(),
            )
        )
    return _INT_LIT.sub("#", block), holes


def _hole_key(block: str, env_digest: bytes) -> Tuple[Tuple[bytes, bytes], List[_Hole]]:
    shape, holes = _block_holes(block)
    return (hashlib.sha256(shape.encode()).digest(), env_digest), holes


def _pragma_payload(line_text: str) -> Optional[str]:
    """What the lexer stores for a ``#pragma`` line: the rest of the
    line after the directive word, stripped (mirrors
    ``Lexer._directive``)."""
    stripped = line_text.lstrip()
    if not stripped.startswith("#"):
        return None
    body = stripped[1:]
    i = 0
    while i < len(body) and body[i].isalpha():
        i += 1
    if body[:i] != "pragma":
        return None
    return body[i:].strip()


def _dim_slot_lines(decl: N.Node) -> Dict[int, List[int]]:
    """Literal array bounds per source line, in declarator walk order.

    A bound like ``int buf[16]`` lives inside the declarator's frozen
    ``ArrayType`` — there is no IntLit node at the literal's location —
    so these are collected separately as positional "dim slots".
    Nested dims flatten outer-first, matching their left-to-right
    render order."""
    slots: Dict[int, List[int]] = {}
    for node in decl.walk():
        if isinstance(node, (N.VarDecl, N.ParamDecl)):
            ctype = node.type
            while isinstance(ctype, T.ArrayType):
                if isinstance(ctype.size, int):
                    slots.setdefault(node.line, []).append(ctype.size)
                ctype = ctype.elem
    return slots


def _rebuild_dims(ctype: T.CType, sizes: "itertools.chain") -> T.CType:
    """Copy an ArrayType chain, replacing literal bounds outer-first
    from *sizes* (element types and non-literal bounds are shared)."""
    if not isinstance(ctype, T.ArrayType):
        return ctype
    size = next(sizes) if isinstance(ctype.size, int) else ctype.size
    return dataclasses.replace(
        ctype, elem=_rebuild_dims(ctype.elem, sizes), size=size
    )


def _substitute_family(
    family: _HoleFamily, block: str, holes_new: List[_Hole]
) -> Optional[DeclTemplate]:
    """Rebuild *block*'s template from its family without parsing.

    Returns None unless every changed hole is proven; any inconsistency
    (missing node, unparseable literal) also returns None and the
    caller falls back to a real parse.
    """
    base = family.holes
    if len(base) != len(holes_new):
        return None
    changed = [
        i for i in range(len(base)) if base[i].text != holes_new[i].text
    ]
    if not changed:
        return None  # exact-tier territory; nothing to substitute
    if any(not base[i].proven for i in changed):
        return None
    if family.template.env_updates:
        return None
    try:
        decl = N.copy_tree(family.template.decl)
        int_nodes: Dict[Tuple[int, int], N.Node] = {}
        pragma_nodes: Dict[int, N.Node] = {}
        for node in decl.walk():
            if isinstance(node, N.IntLit):
                int_nodes[(node.line, node.col)] = node
            elif isinstance(node, N.Pragma):
                pragma_nodes[node.line] = node
        lines: Optional[List[str]] = None
        col_shifts: Dict[int, List[Tuple[int, int]]] = {}
        dim_lines: Set[int] = set()
        for i in changed:
            hole, new = base[i], holes_new[i]
            if hole.kind == "int":
                node = int_nodes.get((hole.line, hole.col))
                if node is None or node.text != hole.text:
                    return None
                node.value = int(new.text, 0)
                node.text = new.text
                delta = len(new.text) - len(hole.text)
                if delta:
                    col_shifts.setdefault(hole.line, []).append(
                        (hole.col, delta)
                    )
            elif hole.kind == "pragma":
                node = pragma_nodes.get(hole.line)
                if node is None:
                    return None
                if lines is None:
                    lines = block.split("\n")
                payload = _pragma_payload(lines[hole.line - 1])
                if payload is None:
                    return None
                node.text = payload
            elif hole.kind == "dim":
                int(new.text, 0)  # unparseable literal -> fall back
                dim_lines.add(hole.line)
                delta = len(new.text) - len(hole.text)
                if delta:
                    col_shifts.setdefault(hole.line, []).append(
                        (hole.col, delta)
                    )
            else:
                return None
        slot_map = _dim_slot_lines(decl) if dim_lines else {}
        for line in dim_lines:
            # Positional mapping: the line's dim holes (col order) are
            # its dim slots (walk order), verified against the base
            # texts in full before any replacement.
            pairs = [
                (base[j], holes_new[j])
                for j in range(len(base))
                if base[j].kind == "dim" and base[j].line == line
            ]
            slot_nodes = [
                node
                for node in decl.walk()
                if isinstance(node, (N.VarDecl, N.ParamDecl))
                and node.line == line
                and isinstance(node.type, T.ArrayType)
            ]
            slots = slot_map.get(line, [])
            if len(slots) != len(pairs):
                return None
            if any(
                int(b.text, 0) != size for (b, _), size in zip(pairs, slots)
            ):
                return None
            sizes = iter([int(n.text, 0) for _, n in pairs])
            for node in slot_nodes:
                node.type = _rebuild_dims(node.type, sizes)
            if next(sizes, None) is not None:
                return None
        if col_shifts:
            for node in decl.walk():
                shifts = col_shifts.get(node.line)
                if shifts:
                    node.col += sum(d for c, d in shifts if c < node.col)
    except Exception:
        return None
    return DeclTemplate(
        decl=decl,
        uid_span=family.template.uid_span,
        line_count=family.template.line_count,
        unit_loc=family.template.unit_loc,
        env_updates=(),
    )


def _register_hole_member(
    key: Tuple[bytes, bytes],
    holes: List[_Hole],
    block: str,
    template: DeclTemplate,
) -> None:
    """Fold a freshly *parsed* member into the hole tier.

    First member of a shape becomes the family base.  Later members
    attempt the substitution their parse makes verifiable: if patching
    the base reproduces the parsed template node-for-node, every hole
    that differed is proven and future members changing only those
    holes skip the parse entirely.  The comparison uses the parse the
    cache miss already paid for — proof never costs an extra parse.
    """
    if template.env_updates:
        return
    family = _HOLE_FAMILIES.get(key)
    if family is None:
        if holes:
            _HOLE_FAMILIES[key] = _HoleFamily(template, holes)
            _HOLE_FAMILIES.move_to_end(key)
            while len(_HOLE_FAMILIES) > _MAX_FAMILIES:
                _HOLE_FAMILIES.popitem(last=False)
        return
    _HOLE_FAMILIES.move_to_end(key)
    base = family.holes
    if len(base) != len(holes):
        return
    changed = [i for i in range(len(base)) if base[i].text != holes[i].text]
    if not changed or all(base[i].proven for i in changed):
        return
    # Classify unproven changed holes against the base decl, then let
    # the already-parsed template arbitrate the substitution.
    int_locs = set()
    pragma_lines = set()
    for node in family.template.decl.walk():
        if isinstance(node, N.IntLit):
            int_locs.add((node.line, node.col, node.text))
        elif isinstance(node, N.Pragma):
            pragma_lines.add(node.line)
    leftover: Dict[int, List[_Hole]] = {}
    for hole in base:
        if hole.kind is not None:
            continue
        if (hole.line, hole.col, hole.text) in int_locs:
            hole.kind = "int"
        elif hole.line in pragma_lines:
            hole.kind = "pragma"
        else:
            leftover.setdefault(hole.line, []).append(hole)
    # A line's leftover literals are its array bounds iff they match the
    # line's dim slots positionally and in full — anything extra (say a
    # digit inside a string) breaks the sequence and nothing classifies.
    if leftover:
        dim_slots = _dim_slot_lines(family.template.decl)
        for line, candidates in leftover.items():
            slots = dim_slots.get(line)
            if slots is None or len(slots) != len(candidates):
                continue
            try:
                values = [int(h.text, 0) for h in candidates]
            except ValueError:
                continue
            if values == slots:
                for hole in candidates:
                    hole.kind = "dim"
    was_proven = [base[i].proven for i in changed]
    for i in changed:
        base[i].proven = True
    candidate = _substitute_family(family, block, holes)
    if (
        candidate is not None
        and candidate.decl == template.decl
        and candidate.uid_span == template.uid_span
        and candidate.line_count == template.line_count
    ):
        return  # substitution reproduces the parse: holes stay proven
    for i, prior in zip(changed, was_proven):
        base[i].proven = prior


# --------------------------------------------------------------------------
# Clone and remap
# --------------------------------------------------------------------------


def offset_node(root: N.Node, uid_base: int, line_base: int) -> None:
    """Shift a relative-coordinate subtree into unit position: every
    node's ``uid`` advances by *uid_base* and ``line`` by *line_base*
    (columns are position-independent).  This is the deterministic
    renumbering pass that makes grafted units uid-exact."""
    if not uid_base and not line_base:
        return
    stack = [root]
    while stack:
        node = stack.pop()
        node.uid += uid_base
        node.line += line_base
        stack.extend(node.children())


# --------------------------------------------------------------------------
# Unit reconstruction
# --------------------------------------------------------------------------


class GraftStats:
    """Wall-clock and cache-tier breakdown of one reconstruction."""

    __slots__ = ("parse_seconds", "graft_seconds", "remap_seconds",
                 "hits", "misses")

    def __init__(self) -> None:
        self.parse_seconds = 0.0
        self.graft_seconds = 0.0
        self.remap_seconds = 0.0
        self.hits = 0
        self.misses = 0


def graft_unit(
    blocks: Sequence[str], top_name: str = ""
) -> Tuple[N.TranslationUnit, GraftStats]:
    """Reconstruct the unit ``parse(render_unit_from_blocks(blocks))``
    would produce, parsing only the blocks without a cached template.

    Raises :class:`GraftUnsupported` when a block resists the template
    shape (callers fall back to a full parse) and propagates
    :class:`~repro.errors.ParseError` untouched for invalid source.
    """
    if not blocks:
        raise GraftUnsupported("no blocks to graft")
    typedefs: Dict[str, T.CType] = {}
    structs: Dict[str, T.StructType] = {}
    env_digest = _ENV_SEED
    stats = GraftStats()
    decls: List[N.Decl] = []
    unit_loc = (0, 0)
    uid_base = 0
    line_base = 0
    for index, block in enumerate(blocks):
        key = (hashlib.sha256(block.encode()).digest(), env_digest)
        template = _TEMPLATES.get(key)
        if template is None:
            hole_key, holes = _hole_key(block, env_digest)
            family = _HOLE_FAMILIES.get(hole_key)
            substituted = None
            if family is not None:
                started = time.perf_counter()
                substituted = _substitute_family(family, block, holes)
                stats.graft_seconds += time.perf_counter() - started
            if substituted is not None:
                # Shape hit: the variant is rebuilt by literal patching,
                # no parse.  Cached under its exact key so repeats hit
                # the first tier directly.
                _HOLE_FAMILIES.move_to_end(hole_key)
                template = substituted
                stats.hits += 1
                _TEMPLATE_STATS["hits"] += 1
                _TEMPLATE_STATS["hole_hits"] += 1
                _remember_template(key, template)
            else:
                started = time.perf_counter()
                template = _parse_template(block, typedefs, structs)
                stats.parse_seconds += time.perf_counter() - started
                stats.misses += 1
                _TEMPLATE_STATS["misses"] += 1
                _remember_template(key, template)
                started = time.perf_counter()
                _register_hole_member(hole_key, holes, block, template)
                stats.graft_seconds += time.perf_counter() - started
        else:
            _TEMPLATES.move_to_end(key)
            stats.hits += 1
            _TEMPLATE_STATS["hits"] += 1
        started = time.perf_counter()
        decl = N.copy_tree(template.decl)
        stats.graft_seconds += time.perf_counter() - started
        started = time.perf_counter()
        offset_node(decl, uid_base, line_base)
        stats.remap_seconds += time.perf_counter() - started
        decls.append(decl)
        if index == 0:
            unit_loc = template.unit_loc
        if template.env_updates:
            for kind, name, value in template.env_updates:
                (typedefs if kind == "typedef" else structs)[name] = value  # type: ignore[index]
            env_digest = _advance_env(env_digest, template.env_updates)
        uid_base += template.uid_span
        line_base += template.line_count + 1  # blocks are joined by "\n\n"
    # Leave the counter exactly where a full parse would: decl parsing
    # consumed 1..uid_base, the wrapper unit takes uid_base + 1.
    N._uid_counter = itertools.count(uid_base + 1)
    unit = N.TranslationUnit(
        decls=decls, line=unit_loc[0], col=unit_loc[1]
    )
    unit.top_name = top_name
    return unit, stats


def warm_templates(blocks: Sequence[str]) -> int:
    """Pre-populate the template cache for a unit's blocks (no graft).

    Called once per worker context with the *baseline's* blocks —
    context construction already pays a full original parse and a
    reference run, so baseline templates are context state exactly like
    the rendered-block cache.  The first delta job of a search then
    starts warm, and per-job parse time only pays for genuinely novel
    (edited) declarations.  Parses count as ``warmed``, not job misses.
    Stops quietly at the first unsupported block: warming is an
    optimization, never a correctness dependency.

    Returns the number of blocks actually parsed.
    """
    typedefs: Dict[str, T.CType] = {}
    structs: Dict[str, T.StructType] = {}
    env_digest = _ENV_SEED
    parsed = 0
    for block in blocks:
        key = (hashlib.sha256(block.encode()).digest(), env_digest)
        template = _TEMPLATES.get(key)
        if template is None:
            try:
                template = _parse_template(block, typedefs, structs)
            except GraftUnsupported:
                return parsed
            parsed += 1
            _TEMPLATE_STATS["warmed"] += 1
            _remember_template(key, template)
            hole_key, holes = _hole_key(block, env_digest)
            _register_hole_member(hole_key, holes, block, template)
        else:
            _TEMPLATES.move_to_end(key)
        if template.env_updates:
            for kind, name, value in template.env_updates:
                (typedefs if kind == "typedef" else structs)[name] = value  # type: ignore[index]
            env_digest = _advance_env(env_digest, template.env_updates)
    return parsed


def graft_unit_cross(
    blocks: Sequence[str], top_name: str = ""
) -> Tuple[N.TranslationUnit, GraftStats]:
    """``cross`` mode: graft, then full-parse the identical source and
    assert node-exact equality.  Returns the grafted unit so the rest
    of the pipeline exercises the graft path end to end."""
    unit, stats = graft_unit(blocks, top_name)
    started = time.perf_counter()
    N._uid_counter = itertools.count(1)
    full = parse(render_unit_from_blocks(blocks), top_name=top_name)
    stats.parse_seconds += time.perf_counter() - started
    assert_units_identical(unit, full)
    return unit, stats


def assert_units_identical(
    grafted: N.TranslationUnit, full: N.TranslationUnit
) -> None:
    """Raise :class:`GraftMismatch` unless the two units are value-
    identical in every field, bookkeeping included."""
    grafted_nodes = list(grafted.walk())
    full_nodes = list(full.walk())
    if len(grafted_nodes) != len(full_nodes):
        raise GraftMismatch(
            f"graft produced {len(grafted_nodes)} nodes, "
            f"full parse {len(full_nodes)}"
        )
    for g, f in zip(grafted_nodes, full_nodes):
        if (type(g), g.uid, g.line, g.col) != (type(f), f.uid, f.line, f.col):
            raise GraftMismatch(
                "graft diverged at walk position "
                f"{full_nodes.index(f)}: grafted "
                f"{type(g).__name__}(uid={g.uid}, {g.line}:{g.col}) vs "
                f"full {type(f).__name__}(uid={f.uid}, {f.line}:{f.col})"
            )
    if grafted != full:  # field-exact, recursive dataclass equality
        raise GraftMismatch(
            "grafted unit is walk-isomorphic but not field-identical "
            "to the full parse"
        )


# --------------------------------------------------------------------------
# Parent-side copy-on-write clone (edits/base.cloned_unit)
# --------------------------------------------------------------------------

def _decl_name(decl: N.Decl) -> str:
    if isinstance(decl, N.StructDef):
        return decl.tag
    return getattr(decl, "name", "")


def cow_clone_unit(
    parent: N.TranslationUnit, dirty: Set[str]
) -> N.TranslationUnit:
    """Clone *parent* for in-place rewriting of the *dirty* declarations
    only: dirty decls (matched by the same name/tag rule fingerprint
    inheritance uses) are copied with :func:`~repro.cfront.nodes.copy_tree`,
    clean decls are shared by reference, and the unit-level state is
    what :func:`~repro.cfront.nodes.clone` would give.  Sharing is sound
    under the dirty contract that already governs fingerprint
    inheritance — an edit never mutates outside its declared dirty set —
    and units are never mutated once evaluation starts, so sharing into
    evaluated candidates is read-only."""
    return N.clone_unit_with(parent, [
        N.copy_tree(decl) if _decl_name(decl) in dirty else decl
        for decl in parent.decls
    ])
