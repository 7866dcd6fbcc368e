"""The structural copier and the cached-field walkers in ``cfront/nodes``.

``clone``/``copy_tree`` replace ``copy.deepcopy`` on AST subtrees: they
copy every node and node list and share the immutable payload (frozen
``CType`` values, strings, numbers).  ``Node.walk`` is an explicit-stack
pre-order walk over a per-class table of child fields.  These tests pin
both against the generic reference they replaced, on the ten subjects
and the generated corpus.
"""

from __future__ import annotations

import copy
from typing import Iterator, List

import pytest

from repro.cfront import nodes as N
from repro.cfront.fingerprint import unit_fingerprint
from repro.cfront.parser import parse
from repro.cfront.printer import render
from repro.interp.batch import batch_program
from repro.subjects import all_subjects, generated_subjects

PROGRAMS = [(s.id, s.parse) for s in all_subjects()] + [
    (g.name, g.parse) for g in generated_subjects()
]
IDS = [name for name, _ in PROGRAMS]


def reference_walk(node: N.Node) -> Iterator[N.Node]:
    """Recursive pre-order walk reflecting over every dataclass field."""
    yield node
    for name in node.__dataclass_fields__:
        value = getattr(node, name)
        if isinstance(value, N.Node):
            yield from reference_walk(value)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, N.Node):
                    yield from reference_walk(item)


#: The ``TranslationUnit`` dataclass fields: all a clone carries.
UNIT_FIELDS = set(N.TranslationUnit.__dataclass_fields__)


def with_memos(unit: N.TranslationUnit) -> N.TranslationUnit:
    """Populate the unit-level caches a clone must drop."""
    unit_fingerprint(unit)
    batch_program(unit)
    return unit


def ctypes_of(unit: N.TranslationUnit) -> List[object]:
    out: List[object] = []
    for node in unit.walk():
        for name in ("type", "return_type", "to_type", "of_type"):
            value = node.__dict__.get(name)
            if value is not None:
                out.append(value)
    return out


@pytest.mark.parametrize("name,load", PROGRAMS, ids=IDS)
def test_clone_matches_deepcopy(name, load):
    unit = with_memos(load())
    assert set(unit.__dict__) > UNIT_FIELDS  # the memos are there to drop
    cloned = N.clone(unit)
    reference = copy.deepcopy(unit)
    for key in set(reference.__dict__) - UNIT_FIELDS:
        reference.__dict__.pop(key)
    assert cloned == reference
    assert list(cloned.__dict__) == list(reference.__dict__)
    for a, b in zip(cloned.walk(), reference.walk(), strict=True):
        assert type(a) is type(b)
        assert a.__dict__.keys() == b.__dict__.keys()
    # A clone carries its fields and nothing else: no memo of the source
    # unit's content, and no lowered program (batch keeps those off the
    # unit, keyed by identity).
    assert set(cloned.__dict__) == UNIT_FIELDS
    assert batch_program(cloned) is not batch_program(unit)


@pytest.mark.parametrize("name,load", PROGRAMS, ids=IDS)
def test_clone_shares_ctypes_but_no_node(name, load):
    unit = load()
    cloned = N.clone(unit)
    source_ids = {id(n) for n in unit.walk()}
    assert not source_ids & {id(n) for n in cloned.walk()}
    source_types = ctypes_of(unit)
    cloned_types = ctypes_of(cloned)
    assert len(source_types) == len(cloned_types)
    assert all(a is b for a, b in zip(source_types, cloned_types))


@pytest.mark.parametrize("name,load", PROGRAMS, ids=IDS)
def test_walk_matches_recursive_reference(name, load):
    unit = load()
    assert [id(n) for n in unit.walk()] == [id(n) for n in reference_walk(unit)]
    for node in unit.walk():
        direct = [c for c in reference_walk(node) if parent_of(c, node)]
        assert [id(c) for c in node.children()] == [id(c) for c in direct]


def parent_of(child: N.Node, node: N.Node) -> bool:
    for name in node.__dataclass_fields__:
        value = getattr(node, name)
        if value is child or (
            isinstance(value, list) and any(v is child for v in value)
        ):
            return True
    return False


@pytest.mark.parametrize("name,load", PROGRAMS, ids=IDS)
def test_parsed_tree_holds_each_node_once(name, load):
    # The invariant that lets copy_tree drop deepcopy's memo: without
    # aliasing, copying each reference separately preserves the shape.
    nodes = list(load().walk())
    assert len({id(n) for n in nodes}) == len(nodes)


def test_child_fields_skip_leaf_annotations():
    assert N.child_fields(N.BinOp) == ("left", "right")
    assert N.child_fields(N.Cast) == ("expr",)
    assert N.child_fields(N.VarDecl) == ("init", "vla_size")
    assert N.child_fields(N.StructDef) == ("methods",)
    assert N.child_fields(N.IntLit) == ()


def test_copy_tree_of_subtree_matches_deepcopy():
    unit = all_subjects()[0].parse()
    for func in unit.functions():
        assert N.copy_tree(func) == copy.deepcopy(func)
        assert N.clone(func.body) == copy.deepcopy(func.body)


@pytest.mark.parametrize("subject", all_subjects(), ids=lambda s: s.id)
def test_cow_clone_copies_exactly_the_dirty_decls(subject):
    unit = with_memos(subject.parse())
    names = [N.decl_name(d) for d in unit.decls]
    dirty = {names[-1], names[0]}
    child = N.cow_clone_unit(unit, dirty)
    assert child == N.clone(unit)
    assert list(child.__dict__) == list(N.clone(unit).__dict__)
    for name, old, new in zip(names, unit.decls, child.decls, strict=True):
        if name in dirty:
            assert new is not old
            assert not {id(n) for n in old.walk()} & {id(n) for n in new.walk()}
        else:
            assert new is old


class TestCowClone:
    """The copy-on-write unit clone used by ``cloned_unit``."""

    SRC = (
        "int helper(int x) {\n    return x + 1;\n}\n\n"
        "int kernel(int a) {\n    return helper(a);\n}\n"
    )

    def test_shares_clean_and_copies_dirty(self):
        parent = parse(self.SRC, top_name="kernel")
        child = N.cow_clone_unit(parent, {"kernel"})
        assert child.decls[0] is parent.decls[0]
        assert child.decls[1] is not parent.decls[1]
        assert child == parent  # value-identical before any rewrite
        assert child.decls is not parent.decls

    def test_drops_unit_bookkeeping(self):
        parent = parse(self.SRC, top_name="kernel")
        unit_fingerprint(parent)  # populates _fp_table/_unit_fp
        assert "_fp_table" in parent.__dict__
        child = N.cow_clone_unit(parent, {"kernel"})
        fields = set(N.TranslationUnit.__dataclass_fields__)
        assert set(child.__dict__) == fields
        assert child.top_name == "kernel"

    def test_render_and_fingerprints_match_deepcopy(self):
        parent = parse(self.SRC, top_name="kernel")
        cow = N.cow_clone_unit(parent, {"kernel"})
        deep = N.clone(parent)
        assert render(cow) == render(deep)
        assert unit_fingerprint(cow) == unit_fingerprint(deep)
