"""Fingerprint semantics (the contract every incremental cache rests on).

Structural digests must be blind to bookkeeping (uids, lines) and
sensitive to every semantic token; a declaration's record is inherited
only where its declaration is clean, and ``cross`` mode re-checks it.
"""

import itertools

import pytest

from repro.cfront import nodes as N
from repro.cfront import fingerprint as fp
from repro.cfront.nodes import clone
from repro.cfront.parser import parse
from repro.cfront.printer import render
from repro.core.edits.base import Candidate, cloned_unit, owning_decl_names
from repro.hls.platform import SolutionConfig

SOURCE = """
int scale = 3;

int helper(int x) {
    return x * scale;
}

int kernel(int data[8], int n) {
    int acc = 0;
    for (int i = 0; i < n; i += 1) {
#pragma HLS unroll factor=2
        acc += helper(data[i]);
    }
    return acc;
}
"""


def _func(unit, name):
    func = unit.function(name)
    assert func is not None
    return func


def test_reparse_hashes_structurally_equal():
    a = parse(SOURCE, top_name="kernel")
    b = parse(SOURCE, top_name="kernel")
    for name in ("helper", "kernel"):
        assert fp.structural_fp(a, _func(a, name)) == fp.structural_fp(
            b, _func(b, name)
        )
    assert fp.unit_fingerprint(a) == fp.unit_fingerprint(b)


@pytest.mark.parametrize(
    "before, after",
    [
        ("return x * scale;", "return x + scale;"),  # operator
        ("int acc = 0;", "int acc = 1;"),  # literal
        ("factor=2", "factor=4"),  # pragma argument
    ],
)
def test_single_token_edits_change_structural_digest(before, after):
    a = parse(SOURCE, top_name="kernel")
    b = parse(SOURCE.replace(before, after), top_name="kernel")
    changed = "helper" if "scale" in before else "kernel"
    assert fp.structural_fp(a, _func(a, changed)) != fp.structural_fp(
        b, _func(b, changed)
    )
    assert fp.unit_fingerprint(a) != fp.unit_fingerprint(b)


def test_declaration_order_changes_unit_digest():
    reordered = SOURCE.replace(
        "int scale = 3;\n", ""
    ).replace("int kernel", "int scale = 3;\n\nint kernel", 1)
    a = parse(SOURCE, top_name="kernel")
    b = parse(reordered, top_name="kernel")
    # Same declarations, different order: per-decl digests agree but the
    # combined unit digest must not.
    assert fp.structural_fp(a, _func(a, "helper")) == fp.structural_fp(
        b, _func(b, "helper")
    )
    assert fp.unit_fingerprint(a) != fp.unit_fingerprint(b)


def test_clone_roundtrip_preserves_both_digests():
    unit = parse(SOURCE, top_name="kernel")
    record = fp.decl_record(unit, _func(unit, "kernel"))
    copied = clone(unit)
    # clone() preserves lines and uids, so the structural and pragma-free
    # digests survive — and the clone starts with an empty table
    # (recomputed, not inherited).
    assert fp.FP_TABLE_ATTR not in copied.__dict__
    fresh = fp.decl_record(copied, _func(copied, "kernel"))
    assert fresh is not record
    assert fresh.structural == record.structural
    assert fresh.pragma_free == record.pragma_free
    assert fresh.uids == record.uids


def test_print_reparse_roundtrip_preserves_structural_digest():
    unit = parse(SOURCE, top_name="kernel")
    reparsed = parse(render(unit), top_name="kernel")
    for name in ("helper", "kernel"):
        assert fp.structural_fp(unit, _func(unit, name)) == fp.structural_fp(
            reparsed, _func(reparsed, name)
        )
    assert fp.unit_fingerprint(unit) == fp.unit_fingerprint(reparsed)


def test_dirty_aware_clone_inherits_clean_entries_only():
    with fp.forced_mode("on"):
        unit = parse(SOURCE, top_name="kernel")
        helper_uid = _func(unit, "helper").uid
        kernel_uid = _func(unit, "kernel").uid
        # Populate the parent's table.
        fp.decl_record(unit, _func(unit, "helper"))
        fp.decl_record(unit, _func(unit, "kernel"))
        candidate = Candidate(
            unit=unit, config=SolutionConfig(top_name="kernel")
        )
        child = cloned_unit(candidate, dirty=["kernel"])
        table = child.__dict__.get(fp.FP_TABLE_ATTR, {})
        assert helper_uid in table  # clean decl: digest inherited
        assert kernel_uid not in table  # dirty decl: recomputed lazily
        # And the inherited entry matches a from-scratch recomputation,
        # node lists included: the clean helper is shared, not copied.
        assert table[helper_uid].same_as(fp.build_record(_func(child, "helper")))


def test_dirty_none_inherits_nothing():
    unit = parse(SOURCE, top_name="kernel")
    fp.decl_record(unit, _func(unit, "helper"))
    candidate = Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
    child = cloned_unit(candidate, dirty=None)
    assert not child.__dict__.get(fp.FP_TABLE_ATTR)


def test_owning_decl_names_locates_enclosing_function():
    unit = parse(SOURCE, top_name="kernel")
    kernel = _func(unit, "kernel")
    loop = next(n for n in kernel.walk() if isinstance(n, N.For))
    assert owning_decl_names(unit, loop.uid) == ["kernel"]
    assert owning_decl_names(unit, 10**9) is None


def test_mutation_after_dirty_clone_changes_only_dirty_digest():
    unit = parse(SOURCE, top_name="kernel")
    fp.decl_record(unit, _func(unit, "helper"))
    fp.decl_record(unit, _func(unit, "kernel"))
    candidate = Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
    child = cloned_unit(candidate, dirty=["kernel"])
    lit = next(
        n for n in _func(child, "kernel").walk() if isinstance(n, N.IntLit)
    )
    lit.value += 41
    assert fp.structural_fp(child, _func(child, "kernel")) != fp.structural_fp(
        unit, _func(unit, "kernel")
    )
    assert fp.structural_fp(child, _func(child, "helper")) == fp.structural_fp(
        unit, _func(unit, "helper")
    )
    assert fp.unit_fingerprint(child) != fp.unit_fingerprint(unit)


#: Structural digests of :data:`SOURCE` parsed with uids counted from 1.
#: A change to the digest byte stream moves every persistent store key;
#: it must show up here first.
PINNED_UNIT = "12df12d100b13588a236c93a92eae97b76112e51f154e50198db8ff813fa7b4f"
PINNED_KERNEL = "9dce7db66683f96331d3eef6355fb8d866d37a7e345a02606661a89767bdc56b"
PINNED_HELPER = "d85a28a3f4fd24434fe98dc88ef0ef7969f10b28128f31c0bb24d52fe1d8a4a0"


def test_digest_byte_stream_is_pinned():
    counter = N._uid_counter
    N._uid_counter = itertools.count(1)
    try:
        unit = parse(SOURCE, top_name="kernel")
    finally:
        N._uid_counter = counter
    assert fp.unit_fingerprint(unit) == PINNED_UNIT
    assert fp.build_record(_func(unit, "kernel")).structural == PINNED_KERNEL
    assert fp.build_record(_func(unit, "helper")).structural == PINNED_HELPER
    assert fp.structural_fp(unit, _func(unit, "kernel")) == PINNED_KERNEL


def _child_with_planted_helper(mode, plant):
    """A ``dirty=["kernel"]`` child of a unit whose helper record was
    replaced by ``plant(record)`` before the clone inherited it."""
    with fp.forced_mode(mode):
        unit = parse(SOURCE, top_name="kernel")
        fp.unit_fingerprint(unit)
        helper = _func(unit, "helper")
        table = unit.__dict__[fp.FP_TABLE_ATTR]
        table[helper.uid] = plant(table[helper.uid])
        candidate = Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
        return cloned_unit(candidate, dirty=["kernel"])


def _wrong_digest(record):
    return fp.build_record(N.Empty())


def _copy_record(record):
    planted = fp.build_record(N.Empty())
    for name in fp.DeclRecord.__slots__:
        setattr(planted, name, getattr(record, name))
    return planted


def _wrong_uids(record):
    planted = _copy_record(record)
    planted.uids = record.uids[:-1]
    return planted


def _wrong_calls(record):
    planted = _copy_record(record)
    planted.calls = record.calls + [N.Call(func=N.Ident(name="helper"))]
    return planted


@pytest.mark.parametrize("plant", [_wrong_digest, _wrong_uids, _wrong_calls])
def test_cross_mode_rejects_a_wrong_inherited_record(plant):
    child = _child_with_planted_helper("cross", plant)
    with fp.forced_mode("cross"):
        with pytest.raises(fp.IncrementalMismatch, match="helper"):
            fp.unit_fingerprint(child)


def test_on_mode_trusts_inherited_records():
    child = _child_with_planted_helper("on", _wrong_uids)
    with fp.forced_mode("on"):
        fp.unit_fingerprint(child)
        assert fp.UNVERIFIED_ATTR not in child.__dict__


def test_cross_mode_catches_a_write_outside_the_dirty_set():
    with fp.forced_mode("cross"):
        unit = parse(SOURCE, top_name="kernel")
        fp.unit_fingerprint(unit)
        candidate = Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
        child = cloned_unit(candidate, dirty=["kernel"])
        # The helper is shared with the parent; rewriting it breaks the
        # contract its inherited record rests on.
        _func(child, "helper").body.items.append(N.Empty())
        with pytest.raises(fp.IncrementalMismatch):
            fp.structural_fp(child, _func(child, "helper"))


def test_cross_mode_checks_each_inherited_record_once():
    with fp.forced_mode("cross"):
        unit = parse(SOURCE, top_name="kernel")
        fp.unit_fingerprint(unit)
        candidate = Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
        child = cloned_unit(candidate, dirty=["kernel"])
        pending = child.__dict__[fp.UNVERIFIED_ATTR]
        assert pending == {_func(unit, "helper").uid, unit.decls[0].uid}
        fp.unit_fingerprint(child)
        assert not pending


# ---------------------------------------------------------------------------
# Pragma-free execution digest
# ---------------------------------------------------------------------------

PRAGMA_SOURCE = """#pragma HLS top
int helper(int x) { return x + 1; }
int k(int a[4], int n) {
    int t = 0;
    for (int i = 0; i < 4; i++) {
#pragma HLS unroll
        if (a[i] > n)
#pragma HLS occurrence cycle=2
        t += helper(a[i]);
    }
    return t;
}
"""


def test_strip_pragmas_drops_listed_and_empties_slotted_pragmas():
    unit = parse(PRAGMA_SOURCE, top_name="k")
    before = render(unit)
    bare = fp.strip_pragmas(unit)
    assert not any(isinstance(n, N.Pragma) for n in bare.walk())
    assert render(unit) == before  # the candidate itself is untouched
    branch = next(n for n in bare.walk() if isinstance(n, N.If))
    assert isinstance(branch.then, N.Empty)
    assert branch.then.line == 8
    # Only the declaration holding pragmas is copied.
    assert bare.decls[0] is unit.decls[1]
    assert fp.strip_pragmas(bare) is bare


def test_pragma_free_fingerprint_ignores_pragmas_uids_and_columns():
    unit = parse(PRAGMA_SOURCE, top_name="k")
    digest = fp.pragma_free_fingerprint(unit)
    assert fp.pragma_free_fingerprint(fp.strip_pragmas(unit)) == digest
    retuned = parse(
        PRAGMA_SOURCE.replace("unroll", "unroll factor=2")
        .replace("    int t", "  int t"),
        top_name="k",
    )
    assert fp.pragma_free_fingerprint(retuned) == digest


def test_pragma_free_fingerprint_sees_lines_and_semantics():
    unit = parse(PRAGMA_SOURCE, top_name="k")
    digest = fp.pragma_free_fingerprint(unit)
    shifted = parse("\n" + PRAGMA_SOURCE, top_name="k")
    assert fp.pragma_free_fingerprint(shifted) != digest
    changed = parse(PRAGMA_SOURCE.replace("x + 1", "x + 2"), top_name="k")
    assert fp.pragma_free_fingerprint(changed) != digest
