"""The AST-graft identity contract (:mod:`repro.cfront.graft`).

The graft path may only exist if it is invisible: a unit reconstructed
by cloning cached decl templates and renumbering them into place must
be **bit-identical** — every uid, every line/col, every fingerprint,
the render round-trip, even the final position of the uid counter — to
what a full ``parse(render_unit_from_blocks(blocks))`` would produce.
These tests state that property over the ten Table 3 subjects, the
generated interpreter corpus, and hypothesis-built units that stress
the addressing edge cases: typedef-environment sensitivity, same-digest
shadowing blocks, declaration reordering, and discarded-uid consumers
(const-folded array sizes).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront import graft
from repro.cfront import nodes as N
from repro.cfront.fingerprint import exact_fp, structural_fp, unit_fingerprint
from repro.cfront.parser import parse
from repro.cfront.printer import render, render_decl, render_unit_from_blocks
from repro.subjects import all_subjects, generated_subjects

SUBJECTS = all_subjects()
CORPUS = generated_subjects()


@pytest.fixture(autouse=True)
def clean_template_cache():
    """Every test starts from an empty decl-template cache so hit/miss
    counts are deterministic, and leaves none of its templates behind."""
    graft.clear_decl_templates()
    yield
    graft.clear_decl_templates()


def full_parse(blocks, top_name=""):
    """The reference reconstruction the graft must be identical to."""
    N._uid_counter = itertools.count(1)
    return parse(render_unit_from_blocks(blocks), top_name=top_name)


def assert_graft_identical(blocks, top_name=""):
    """Graft the blocks and check every observable against a full parse:
    node-exact equality, renders, unit/decl fingerprints, and the final
    uid-counter position (later allocations must not diverge either)."""
    grafted, stats = graft.graft_unit(blocks, top_name=top_name)
    grafted_next = next(N._uid_counter)
    full = full_parse(blocks, top_name=top_name)
    full_next = next(N._uid_counter)
    graft.assert_units_identical(grafted, full)
    assert grafted_next == full_next
    assert render(grafted) == render(full)
    assert unit_fingerprint(grafted) == unit_fingerprint(full)
    for g_decl, f_decl in zip(grafted.decls, full.decls):
        assert structural_fp(grafted, g_decl) == structural_fp(full, f_decl)
        assert exact_fp(grafted, g_decl) == exact_fp(full, f_decl)
    return grafted, stats


def subject_blocks(subject):
    unit = subject.parse()
    return [render_decl(decl) for decl in unit.decls]


class TestSubjectIdentity:
    """Bit-identity over every real program the repo evaluates."""

    @pytest.mark.parametrize(
        "subject", SUBJECTS, ids=[s.id for s in SUBJECTS]
    )
    def test_graft_matches_full_parse(self, subject):
        blocks = subject_blocks(subject)
        _unit, stats = assert_graft_identical(
            blocks, top_name=subject.solution.top_name
        )
        assert stats.misses == len(blocks) and stats.hits == 0

    @pytest.mark.parametrize(
        "subject", SUBJECTS, ids=[s.id for s in SUBJECTS]
    )
    def test_second_graft_is_all_hits(self, subject):
        blocks = subject_blocks(subject)
        assert_graft_identical(blocks, top_name=subject.solution.top_name)
        _unit, stats = assert_graft_identical(
            blocks, top_name=subject.solution.top_name
        )
        assert stats.hits == len(blocks) and stats.misses == 0
        assert stats.parse_seconds == 0.0

    @pytest.mark.parametrize("gs", CORPUS, ids=[g.name for g in CORPUS])
    def test_generated_corpus(self, gs):
        unit = gs.parse()
        blocks = [render_decl(decl) for decl in unit.decls]
        assert_graft_identical(blocks, top_name=gs.kernel)

    def test_cross_mode_passes_on_subjects(self):
        for subject in SUBJECTS:
            blocks = subject_blocks(subject)
            unit, _stats = graft.graft_unit_cross(
                blocks, top_name=subject.solution.top_name
            )
            assert render(unit) == render_unit_from_blocks(blocks)


TYPEDEF_SENSITIVE = """
qty_t scale(qty_t v) {
    qty_t out = v;
    return out;
}
""".strip()


class TestEnvironmentAddressing:
    """Templates are keyed by (block digest, environment digest)."""

    def test_same_block_different_typedef_env(self):
        # The identical block text parses to *different* declarations
        # under different typedef environments; a content-only cache key
        # would serve the first parse to the second unit.
        for underlying in ("int", "float"):
            blocks = [f"typedef {underlying} qty_t;", TYPEDEF_SENSITIVE]
            assert_graft_identical(blocks)
        # Stronger: graft A, then B, and diff the function decl types.
        graft.clear_decl_templates()
        a, _ = graft.graft_unit(["typedef int qty_t;", TYPEDEF_SENSITIVE])
        b, _ = graft.graft_unit(["typedef float qty_t;", TYPEDEF_SENSITIVE])
        assert repr(a.decls[1].return_type) != repr(b.decls[1].return_type)

    def test_env_neutral_decls_do_not_advance_the_key(self):
        # Inserting a plain function between typedef and consumer must
        # not re-key the consumer: its environment did not change.
        blocks = ["typedef int qty_t;", TYPEDEF_SENSITIVE]
        assert_graft_identical(blocks)
        padded = [
            "typedef int qty_t;",
            "int pad(int x) {\n    return x;\n}",
            TYPEDEF_SENSITIVE,
        ]
        _unit, stats = assert_graft_identical(padded)
        # typedef and consumer blocks hit; only the insertion parses.
        assert stats.hits == 2 and stats.misses == 1

    def test_struct_forward_reference(self):
        blocks = [
            "struct node {\n    int value;\n    struct node *next;\n};",
            "int head_value(struct node *n) {\n    return n->value;\n}",
        ]
        assert_graft_identical(blocks)


class TestReorderingAndShadowing:
    def test_reordered_decls_hit_and_match(self):
        blocks = [
            "int first(int x) {\n    return x + 1;\n}",
            "int second(int x) {\n    return x + 2;\n}",
            "int third(int x) {\n    return first(x) + second(x);\n}",
        ]
        assert_graft_identical(blocks)
        reordered = [blocks[1], blocks[0], blocks[2]]
        _unit, stats = assert_graft_identical(reordered)
        # Position-independent addressing: every reordered block hits.
        assert stats.hits == len(blocks) and stats.misses == 0

    def test_same_digest_shadowing_blocks(self):
        # Two byte-identical blocks in one unit share a template but
        # must land at distinct uid/line offsets.
        block = "int twice(int x) {\n    return x * 2;\n}"
        blocks = [block, "int other(int y) {\n    return y;\n}", block]
        grafted, stats = assert_graft_identical(blocks)
        assert stats.misses == 2 and stats.hits == 1
        first, last = grafted.decls[0], grafted.decls[2]
        assert first is not last
        first_uids = [node.uid for node in first.walk()]
        last_uids = [node.uid for node in last.walk()]
        assert set(first_uids).isdisjoint(last_uids)

    def test_discarded_uid_consumers(self):
        # A folded constant array size parses (consuming uids) and is
        # then dropped; a node-count-based remap would collide here.
        blocks = [
            "int with_vla(int n) {\n    int buf[3 + 4];\n    buf[0] = n;\n    return buf[0];\n}",
            "int after(int x) {\n    return x;\n}",
        ]
        assert_graft_identical(blocks)


# -- hypothesis-generated units -------------------------------------------

NAMES = ("alpha", "beta", "gamma", "delta", "omega")


def _function_block(name, use_typedef, body_kind):
    arg_type = "qty_t" if use_typedef else "int"
    bodies = {
        "loop": (
            "    int acc = 0;\n"
            "    for (int i = 0; i < 4; i++) {\n"
            "        acc = acc + x;\n"
            "    }\n"
            "    return acc;"
        ),
        "vla": (
            "    int buf[2 + 2];\n"
            "    buf[1] = x;\n"
            "    return buf[1];"
        ),
        "plain": "    return x + 1;",
    }
    return (
        f"{arg_type} {name}({arg_type} x) {{\n{bodies[body_kind]}\n}}"
    )


@st.composite
def decl_sequences(draw):
    """A parseable unit: optional typedef/struct prologue, then 1–5
    function blocks (duplicates allowed — same-digest shadowing)."""
    blocks = []
    has_typedef = draw(st.booleans())
    if has_typedef:
        underlying = draw(st.sampled_from(("int", "float", "char")))
        blocks.append(f"typedef {underlying} qty_t;")
    if draw(st.booleans()):
        blocks.append("struct pair {\n    int a;\n    int b;\n};")
    count = draw(st.integers(min_value=1, max_value=5))
    for index in range(count):
        name = draw(st.sampled_from(NAMES)) + str(index)
        use_typedef = has_typedef and draw(st.booleans())
        body = draw(st.sampled_from(("loop", "vla", "plain")))
        blocks.append(_function_block(name, use_typedef, body))
    if draw(st.booleans()) and len(blocks) > 1:
        blocks.append(blocks[-1])  # exact duplicate → shadowing
    return blocks


class TestGeneratedUnits:
    @settings(max_examples=60, deadline=None)
    @given(decl_sequences())
    def test_graft_identity(self, blocks):
        assert_graft_identical(blocks)

    @settings(max_examples=30, deadline=None)
    @given(decl_sequences(), st.randoms(use_true_random=False))
    def test_warm_cache_and_permutation(self, blocks, rng):
        assert_graft_identical(blocks)
        warm, stats = assert_graft_identical(blocks)
        assert stats.misses == 0 and stats.hits == len(blocks)
        # Permute only the function blocks: moving a typedef/struct
        # below a consumer would be invalid source for full parse and
        # graft alike.
        prologue = [
            b for b in blocks if b.startswith(("typedef", "struct"))
        ]
        tail = [b for b in blocks if not b.startswith(("typedef", "struct"))]
        rng.shuffle(tail)
        assert_graft_identical(prologue + tail)


class TestModeKnob:
    def test_mode_parsing(self, monkeypatch):
        for raw, expected in (
            ("", "on"), ("1", "on"), ("on", "on"), ("ON", "on"),
            ("0", "off"), ("off", "off"), ("false", "off"), ("no", "off"),
            ("cross", "cross"), ("CROSS", "cross"),
        ):
            if raw:
                monkeypatch.setenv(graft.GRAFT_ENV, raw)
            else:
                monkeypatch.delenv(graft.GRAFT_ENV, raising=False)
            assert graft.graft_mode() == expected

    def test_cross_mode_raises_on_divergence(self):
        blocks = ["int f(int x) {\n    return x;\n}"]
        grafted, _ = graft.graft_unit(blocks)
        full = full_parse(blocks)
        # Sabotage one uid: the checker must notice.
        grafted.decls[0].uid += 1000
        with pytest.raises(graft.GraftMismatch):
            graft.assert_units_identical(grafted, full)

    def test_empty_blocks_unsupported(self):
        with pytest.raises(graft.GraftUnsupported):
            graft.graft_unit([])


class TestCowClone:
    """The parent-side copy-on-write clone used by ``cloned_unit``."""

    SRC = (
        "int helper(int x) {\n    return x + 1;\n}\n\n"
        "int kernel(int a) {\n    return helper(a);\n}\n"
    )

    def test_shares_clean_and_copies_dirty(self):
        parent = parse(self.SRC, top_name="kernel")
        child = graft.cow_clone_unit(parent, {"kernel"})
        assert child.decls[0] is parent.decls[0]
        assert child.decls[1] is not parent.decls[1]
        assert child == parent  # value-identical before any rewrite
        assert child.decls is not parent.decls

    def test_drops_unit_bookkeeping(self):
        parent = parse(self.SRC, top_name="kernel")
        unit_fingerprint(parent)  # populates _fp_table/_unit_fp
        assert "_fp_table" in parent.__dict__
        child = graft.cow_clone_unit(parent, {"kernel"})
        fields = set(N.TranslationUnit.__dataclass_fields__)
        assert set(child.__dict__) == fields
        assert child.top_name == "kernel"

    def test_render_and_fingerprints_match_deepcopy(self):
        parent = parse(self.SRC, top_name="kernel")
        cow = graft.cow_clone_unit(parent, {"kernel"})
        deep = N.clone(parent)
        assert render(cow) == render(deep)
        assert unit_fingerprint(cow) == unit_fingerprint(deep)


class TestHoleTemplates:
    """The second cache tier: literal-normalized decl shapes whose int
    and pragma holes are proven by comparison against a paid-for parse,
    then substituted without parsing.  Every hit must stay bit-identical
    to a full parse; anything unprovable must quietly fall back."""

    @staticmethod
    def _scale(n):
        return f"int scale(int x) {{\n    int f = {n};\n    return x * f;\n}}"

    TOP = "int top(int x) {\n    return scale(x) + 1;\n}"

    def test_int_ladder_proves_then_substitutes(self):
        # miss (base), miss (proof), hit, hit — identity at every rung.
        for i, n in enumerate((4, 8, 123456, 7)):
            assert_graft_identical([self._scale(n), self.TOP])
        stats = graft.decl_cache_stats()
        assert stats["hole_hits"] == 2
        # Once substituted, the exact tier owns the variant.
        assert_graft_identical([self._scale(7), self.TOP])
        assert graft.decl_cache_stats()["hole_hits"] == 2

    def test_width_change_shifts_columns(self):
        # Two literals on one line; widening the first must shift the
        # second literal's column (and every node right of it) so the
        # grafted locs match a full parse exactly.
        def block(a, b):
            return f"int pick(int x) {{\n    int v = {a} + x * {b};\n    return v;\n}}"

        # base, proof of a, hit (wide a), proof of b, hit (both change)
        for a, b in ((3, 9), (14, 9), (1234567, 9), (2, 88), (600, 5)):
            assert_graft_identical([block(a, b)])
        assert graft.decl_cache_stats()["hole_hits"] == 2

    def test_pragma_ladder(self):
        def block(n):
            return (
                "void fill(int *a) {\n"
                "#pragma HLS unroll factor=%d\n"
                "    for (int i = 0; i < 16; i = i + 1) {\n"
                "        a[i] = i;\n"
                "    }\n"
                "}" % n
            )

        for n in (2, 4, 8, 16):
            assert_graft_identical([block(n)])
        assert graft.decl_cache_stats()["hole_hits"] == 2

    def test_array_dimension_proves_as_dim_slot(self):
        # The literal is an array bound baked into the declarator's
        # frozen CType — no IntLit node exists — so substitution
        # rebuilds the ArrayType chain positionally, and the proof
        # gate checks the rebuilt type value-for-value.
        def block(n):
            return f"int sum(void) {{\n    int buf[{n}];\n    return buf[0];\n}}"

        for n in (4, 8, 16, 32):
            assert_graft_identical([block(n)])
        stats = graft.decl_cache_stats()
        assert stats["hole_hits"] == 2
        assert stats["misses"] == 2

    def test_nested_dims_and_param_dims(self):
        def block(n):
            return (
                f"int pick(int a[{n}]) {{\n"
                f"    int m[{n}][3];\n"
                "    return m[0][0] + a[0];\n"
                "}"
            )

        for n in (2, 40, 7):
            assert_graft_identical([block(n)])
        assert graft.decl_cache_stats()["hole_hits"] == 1

    def test_dim_feeding_loop_bound_stays_identical(self):
        # The bound appears both as a dim slot and as an IntLit in the
        # loop condition; both holes must substitute coherently.
        def block(n):
            return (
                f"int total(int *src) {{\n"
                f"    int acc[{n}];\n"
                f"    for (int i = 0; i < {n}; i = i + 1) {{\n"
                "        acc[i] = src[i];\n"
                "    }\n"
                "    return acc[0];\n"
                "}"
            )

        for n in (8, 16, 64):
            assert_graft_identical([block(n)])
        assert graft.decl_cache_stats()["hole_hits"] == 1

    def test_digits_inside_strings_never_prove(self):
        # The shape normalizer sees digits inside string literals, but
        # no IntLit node sits at that location, so the hole can never be
        # classified or proven — every variant parses, and stays right.
        def block(n):
            return (
                "int tag(void) {\n"
                '    char *s = "id %d";\n'
                "    return s[0];\n"
                "}" % n
            )

        for n in (7, 8, 9):
            assert_graft_identical([block(n)])
        stats = graft.decl_cache_stats()
        assert stats["hole_hits"] == 0
        assert stats["misses"] == 3

    def test_typedef_blocks_skip_the_hole_tier(self):
        # Environment-mutating members are never family material.
        def block(n):
            return f"typedef int fix{n};"

        for n in (1, 2, 3):
            assert_graft_identical([block(n), self.TOP.replace("scale(x) + 1", "x")])
        assert graft.decl_cache_stats()["hole_hits"] == 0

    def test_cross_mode_over_hole_hits(self, monkeypatch):
        monkeypatch.setenv(graft.GRAFT_ENV, "cross")
        for n in (4, 8, 15, 16):
            blocks = [self._scale(n), self.TOP]
            unit, _ = graft.graft_unit_cross(blocks)
            full = full_parse(blocks)
            graft.assert_units_identical(unit, full)
        assert graft.decl_cache_stats()["hole_hits"] == 2

    def test_warmed_blocks_seed_families(self):
        # warm_templates registers the baseline as family base; the
        # first edited variant then proves the hole, the second hits.
        graft.warm_templates([self._scale(4), self.TOP])
        assert graft.decl_cache_stats()["warmed"] == 2
        assert_graft_identical([self._scale(9), self.TOP])
        assert graft.decl_cache_stats()["hole_hits"] == 0  # proof rung
        assert_graft_identical([self._scale(23), self.TOP])
        assert graft.decl_cache_stats()["hole_hits"] == 1

    def test_family_lru_bound(self):
        bound = graft._MAX_FAMILIES
        try:
            graft._MAX_FAMILIES = 4
            for n in range(8):
                assert_graft_identical(
                    [f"int f{n}(int x) {{\n    return x + {n};\n}}"]
                )
            assert len(graft._HOLE_FAMILIES) <= 4
        finally:
            graft._MAX_FAMILIES = bound
