"""Every value read from a declaration record equals the whole-unit
computation it replaced.

The references below are the walks the consumers used to make: a render
for the LOC count, ``unit.walk()`` for the canonical uid space, a
per-function walk for the loop list, a per-declaration walk for the
owning declaration and for the call, declaration and pragma lists, a
streamed hash for the pragma-free digest, and, for the HLS model, a
compile and a schedule of a fresh clone that inherits no record.  They
run over the ten subjects, the generated programs, and every child a
default-config P3 and P5 search builds.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import pytest

from repro.baselines.variants import default_config, run_variant
from repro.cfront import fingerprint as fp
from repro.cfront import nodes as N
from repro.cfront import typesys as T
from repro.cfront.printer import count_loc, render
from repro.cfront.visitor import find_all
from repro.core import evalcache
from repro.core.edits.base import Candidate, owning_decl_names
from repro.core.edits.loops import _clone_at_loop, _find_loop
from repro.hls import stylecheck
from repro.hls.compiler import COMPILE_BASE_SECONDS, COMPILE_SECONDS_PER_LOC
from repro.hls.compiler import compile_seconds_for, compile_unit
from repro.hls.platform import SolutionConfig
from repro.hls.schedule import estimate
from repro.subjects import all_subjects, generated_subjects, get_subject

#: Search children are large in number; the quadratic references check
#: every this-many-th uid of theirs (and every uid of the programs).
CHILD_UID_STRIDE = 17


@pytest.fixture(scope="module")
def programs() -> List[N.TranslationUnit]:
    return [s.parse() for s in all_subjects()] + [
        g.parse() for g in generated_subjects()
    ]


@pytest.fixture(scope="module")
def children() -> List[N.TranslationUnit]:
    """Every unit an edit hands back during default-config P3 and P5
    searches (``Candidate.with_unit`` is where each child is published).
    The searches run in ``cross`` mode, so every inherited record they
    read is also rebuilt and compared."""
    built: List[N.TranslationUnit] = []
    publish = Candidate.with_unit

    def recording(self, unit, label):
        built.append(unit)
        return publish(self, unit, label)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Candidate, "with_unit", recording)
        with fp.forced_mode("cross"):
            for subject_id in ("P3", "P5"):
                run_variant(
                    get_subject(subject_id), "HeteroGen", default_config()
                )
    assert len(built) > 50
    return built


@pytest.fixture(scope="module")
def units(programs, children) -> List[N.TranslationUnit]:
    return programs + children


def _sampled_uids(unit, programs) -> List[int]:
    uids = [node.uid for node in unit.walk()]
    if any(unit is program for program in programs):
        return uids
    return uids[::CHILD_UID_STRIDE] + [loop.uid for _, loop in fp.unit_loops(unit)]


# -- references -------------------------------------------------------------


def reference_loops(unit):
    out = []
    for func in unit.functions():
        if func.body is None:
            continue
        whiles = []
        for node in func.body.walk():
            if isinstance(node, N.For):
                out.append((func, node))
            elif isinstance(node, N.While):
                whiles.append((func, node))
        out.extend(whiles)
    return out


def reference_owner(unit, uid):
    for decl in unit.decls:
        for node in decl.walk():
            if node.uid == uid:
                if isinstance(decl, N.StructDef):
                    return [decl.tag]
                name = getattr(decl, "name", "")
                return [name] if name else None
    return None


def reference_visible_arrays(unit, func):
    names = set()
    for decl in unit.globals():
        if isinstance(T.strip_typedefs(decl.type), T.ArrayType):
            names.add(decl.name)
    for param in func.params:
        if isinstance(T.strip_typedefs(param.type), (T.ArrayType, T.PointerType)):
            names.add(param.name)
    for decl_stmt in find_all(func.body, N.DeclStmt):
        if isinstance(T.strip_typedefs(decl_stmt.decl.type), T.ArrayType):
            names.add(decl_stmt.decl.name)
    return names


def _feed_pragma_free(value, h):
    if isinstance(value, N.Node):
        if type(value) is N.Pragma:
            h.update(b"(Empty{%d})" % value.line)
            return
        h.update(b"(%s{%d" % (type(value).__name__.encode(), value.line))
        for name in type(value).__dataclass_fields__:
            if name in ("line", "col", "uid"):
                continue
            h.update(name.encode() + b"=")
            _feed_pragma_free(getattr(value, name), h)
        h.update(b"})")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            if type(item) is not N.Pragma:
                _feed_pragma_free(item, h)
        h.update(b"]")
    else:
        h.update(repr(value).encode() + b"|")


def reference_pragma_free(unit):
    h = hashlib.sha256()
    _feed_pragma_free(unit, h)
    return h.hexdigest()


# -- equivalences -------------------------------------------------------------


def test_loc_is_the_rendered_non_blank_line_count(units):
    for unit in units:
        expected = sum(1 for line in render(unit).splitlines() if line.strip())
        assert count_loc(unit) == expected
        assert fp.unit_loc(unit) == expected
        assert compile_seconds_for(unit) == (
            COMPILE_BASE_SECONDS + COMPILE_SECONDS_PER_LOC * expected
        )


def test_walk_uids_and_canonical_indices(units, programs):
    for unit in units:
        walk = [node.uid for node in unit.walk()]
        recorded = [unit.uid]
        for decl in unit.decls:
            recorded.extend(fp.decl_record(unit, decl).uids)
        assert recorded == walk
        last_index = {uid: index for index, uid in enumerate(walk)}
        for uid in _sampled_uids(unit, programs):
            assert evalcache._walk_index(unit, uid) == last_index[uid]
        assert evalcache._walk_index(unit, -7) is None
        for index in (0, 1, len(walk) // 2, len(walk) - 1, len(walk)):
            expected = walk[index] if index < len(walk) else 0
            assert evalcache._uid_at(unit, index) == expected


def test_repeated_uids_keep_the_walk_semantics():
    """An edit that copies a subtree without fresh uids repeats them: the
    owner is the first declaration holding the uid, as a declaration
    walk finds it, and the canonical index is the last position, as a
    uid-to-index map built from the walk keeps it."""
    unit = get_subject("P3").parse()
    first, last = [f for f in unit.functions() if f.body is not None][:2]
    copied = N.copy_tree(first.body.items[0])
    last.body.items += [copied, N.copy_tree(copied)]
    walk = [node.uid for node in unit.walk()]
    last_index = {uid: index for index, uid in enumerate(walk)}
    for node in copied.walk():
        assert walk.count(node.uid) == 3
        assert evalcache._walk_index(unit, node.uid) == last_index[node.uid]
        assert owning_decl_names(unit, node.uid) == reference_owner(unit, node.uid)
        assert owning_decl_names(unit, node.uid) == [first.name]


def test_loops_follow_the_per_function_order(units):
    for unit in units:
        expected = reference_loops(unit)
        got = fp.unit_loops(unit)
        assert [(id(f), id(l)) for f, l in got] == [
            (id(f), id(l)) for f, l in expected
        ]
        for func, loop in expected:
            first = next(entry for entry in expected if entry[1].uid == loop.uid)
            found = _find_loop(unit, loop.uid)
            assert found[0] is first[0] and found[1] is first[1]
        assert _find_loop(unit, -7) is None


def test_clone_at_loop_finds_the_loop_in_the_clone(units):
    config = SolutionConfig(top_name="kernel")
    for unit in units:
        for _, loop in reference_loops(unit):
            clone, found = _clone_at_loop(Candidate(unit=unit, config=config), loop.uid)
            expected = next(
                entry for entry in reference_loops(clone)
                if entry[1].uid == loop.uid
            )
            assert found[0] is expected[0] and found[1] is expected[1]
            # The clone owns what the edit will rewrite.
            assert found[0] is not _find_loop(unit, loop.uid)[0]


def test_owning_decl_names_matches_a_decl_walk(units, programs):
    for unit in units:
        for uid in _sampled_uids(unit, programs):
            assert owning_decl_names(unit, uid) == reference_owner(unit, uid)
        assert owning_decl_names(unit, -7) is None


def test_visible_arrays_match_the_function_walk(units):
    for unit in units:
        for func in unit.functions():
            if func.body is None:
                continue
            assert stylecheck._visible_arrays(
                unit, func
            ) == reference_visible_arrays(unit, func)


def test_pragma_free_digest_partitions_like_the_streamed_one(units):
    """Equal/unequal verdicts agree on every pair drawn from the units and
    their pragma-stripped twins."""
    by_reference: Dict[str, set] = {}
    by_record: Dict[str, set] = {}
    index = 0
    for unit in units:
        bare = fp.strip_pragmas(unit)
        assert fp.pragma_free_fingerprint(bare) == fp.pragma_free_fingerprint(unit)
        for version in (unit, bare):
            by_reference.setdefault(reference_pragma_free(version), set()).add(index)
            by_record.setdefault(fp.pragma_free_fingerprint(version), set()).add(index)
            index += 1
    assert sorted(map(sorted, by_reference.values())) == sorted(
        map(sorted, by_record.values())
    )
    assert len(by_record) > 10


def _declarations(unit):
    for decl in unit.decls:
        yield decl
        if isinstance(decl, N.StructDef):
            yield from decl.methods


def _same_nodes(got, expected):
    return len(got) == len(expected) and all(
        a is b for a, b in zip(got, expected)
    )


def test_node_lists_match_a_declaration_walk(units):
    for unit in units:
        for decl in _declarations(unit):
            record = fp.decl_record(unit, decl)
            assert _same_nodes(record.calls, find_all(decl, N.Call))
            assert _same_nodes(record.decl_stmts, find_all(decl, N.DeclStmt))
            assert _same_nodes(record.pragmas, find_all(decl, N.Pragma))


def test_hls_model_on_records_matches_a_fresh_clone(children):
    """Compile diagnostics and the schedule read from a child's inherited
    records equal those of a clone that starts with no record table,
    computed with every memo off."""
    for child in children:
        config = SolutionConfig(top_name=child.top_name)
        diagnostics = compile_unit(child, config).diagnostics
        schedule = estimate(child, config)
        with fp.forced_mode("off"):
            fresh = N.clone(child)
            assert fp.FP_TABLE_ATTR not in fresh.__dict__
            assert compile_unit(fresh, config).diagnostics == diagnostics
            assert estimate(fresh, config) == schedule
