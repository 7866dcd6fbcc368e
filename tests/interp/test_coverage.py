"""Coverage recorder and value-profile tests."""

from hypothesis import given, strategies as st

from repro.cfront import nodes as N
from repro.cfront.parser import parse
from repro.interp import branch_points, run_program
from repro.interp.coverage import CoverageRecorder, ValueProfile, VarRange

from ..conftest import run_c

BRANCHY = """
int classify(int x) {
    if (x > 100) { return 2; }
    if (x > 0) { return 1; }
    if (x < -100) { return -2; }
    if (x < 0) { return -1; }
    return 0;
}
"""


class TestBranchPoints:
    def test_counts_all_conditional_constructs(self):
        src = """
        int f(int x) {
            if (x) { x = 1; }
            while (x < 3) { x++; }
            for (int i = 0; i < 2; i++) { x += i; }
            do { x--; } while (x > 0);
            int y = x > 0 ? 1 : 0;
            int z = x && y;
            int w = x || y;
            return w;
        }
        """
        unit = parse(src)
        assert len(branch_points(unit)) == 7

    def test_for_without_cond_is_not_a_branch(self):
        unit = parse("void f() { for (;;) { break; } }")
        assert len(branch_points(unit)) == 0


class TestCoverageRecorder:
    def test_partial_then_full_coverage(self):
        unit = parse(BRANCHY)
        body = unit.function("classify").body
        recorder = CoverageRecorder()
        r1 = run_program(unit, "classify", [5])
        recorder.merge(r1.coverage)
        partial = recorder.ratio(body)
        assert 0 < partial < 1
        for x in (200, 5, -5, -200, 0):
            recorder.merge(run_program(unit, "classify", [x]).coverage)
        assert recorder.ratio(body) == 1.0

    def test_merge_reports_novelty(self):
        unit = parse(BRANCHY)
        recorder = CoverageRecorder()
        first = run_program(unit, "classify", [5])
        assert recorder.merge(first.coverage)
        again = run_program(unit, "classify", [5])
        assert not recorder.merge(again.coverage)

    def test_would_add(self):
        unit = parse(BRANCHY)
        recorder = CoverageRecorder()
        recorder.merge(run_program(unit, "classify", [5]).coverage)
        novel = run_program(unit, "classify", [-200]).coverage
        assert recorder.would_add(novel)

    def test_ratio_of_branchless_code_is_one(self):
        unit = parse("int f(int x) { return x + 1; }")
        recorder = CoverageRecorder()
        assert recorder.ratio(unit.function("f").body) == 1.0

    def test_covered_and_total_counts(self):
        unit = parse(BRANCHY)
        body = unit.function("classify").body
        recorder = CoverageRecorder()
        recorder.merge(run_program(unit, "classify", [200]).coverage)
        assert recorder.total_branches(body) == 8
        assert recorder.covered_branches(body) == 1  # first if, taken


class TestValueProfile:
    def test_paper_bitwidth_example(self):
        src = """
        int kernel(int a[4], int n) {
            int ret = 0;
            for (int i = 0; i < n; i++) {
                ret = a[i] % 84;
            }
            return ret;
        }
        """
        result = run_c(src, "kernel", [[83, 200, 50, 12], 4])
        ranges = {r.name: r for r in result.profile.ranges.values()}
        assert ranges["ret"].max_abs <= 83

    def test_needs_sign_detection(self):
        src = "int f() { int x = 0; x = -5; x = 3; return x; }"
        result = run_c(src, "f", [])
        rng = next(r for r in result.profile.ranges.values() if r.name == "x")
        assert rng.needs_sign
        assert rng.min_value == -5
        assert rng.max_value == 3

    def test_float_values_marked_non_integer(self):
        src = "float f() { float x = 0.0; x = 1.5; return x; }"
        result = run_c(src, "f", [])
        rng = next(r for r in result.profile.ranges.values() if r.name == "x")
        assert not rng.is_integer

    def test_merge_combines_extremes(self):
        a = ValueProfile()
        b = ValueProfile()
        a.observe(1, "v", 10)
        b.observe(1, "v", -20)
        a.merge(b)
        assert a.ranges[1].min_value == -20
        assert a.ranges[1].max_value == 10
        assert a.ranges[1].samples == 2

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=30))
    def test_range_brackets_all_observations(self, values):
        rng = VarRange("v")
        for v in values:
            rng.observe(float(v))
        assert rng.min_value == min(values)
        assert rng.max_value == max(values)
        assert rng.max_abs == max(abs(v) for v in values)

    def test_non_numeric_observations_ignored(self):
        profile = ValueProfile()
        profile.observe(1, "p", object())
        assert profile.range_for(1) is None


class TestProfileStructuralKeys:
    """Profile lookups must survive both unit copies the pipeline makes:
    ``clone()`` (preserves uids — the fast path) and a render→re-parse
    round trip (fresh uids — the structural-fingerprint fallback a
    re-parsed rendering forces)."""

    SRC = """
    int helper(int n) {
        int acc = 0;
        for (int i = 0; i < n; i++) { acc += i; }
        return acc;
    }
    int kernel(int n) { return helper(n); }
    """

    def _profiled(self):
        unit = parse(self.SRC)
        result = run_program(unit, "kernel", [9])
        return unit, result.profile

    @staticmethod
    def _decl(unit, name):
        return next(
            node for node in unit.walk()
            if isinstance(node, N.VarDecl) and node.name == name
        )

    def test_clone_resolves_via_uid_fast_path(self):
        unit, profile = self._profiled()
        copy = N.clone(unit)
        rng = profile.range_for_node(copy, self._decl(copy, "acc"))
        assert rng is not None and rng.samples > 0

    def test_reparse_resolves_via_structural_key(self):
        from repro.cfront.printer import render

        unit, profile = self._profiled()
        profile.bind(unit)
        reparsed = parse(render(unit))
        original = profile.range_for_node(unit, self._decl(unit, "acc"))
        recovered = profile.range_for_node(reparsed, self._decl(reparsed, "acc"))
        assert recovered is original
        # Every profiled declaration resolves, not just one.
        for name in ("acc", "i"):
            assert profile.range_for_node(
                reparsed, self._decl(reparsed, name)
            ) is not None

    def test_reparse_without_bind_misses(self):
        from repro.cfront.printer import render

        unit, profile = self._profiled()
        reparsed = parse(render(unit))
        assert profile.range_for_node(
            reparsed, self._decl(reparsed, "acc")
        ) is None

    def test_same_digest_decls_stay_distinct(self):
        """Two structurally identical ``int i`` locals in different
        functions must keep separate ranges after a re-parse (the
        occurrence index disambiguates equal digests)."""
        from repro.cfront.printer import render

        src = """
        int lo(int n) { int v = 0; v = 1; return v + n; }
        int hi(int n) { int v = 0; v = 90; return v + n; }
        int kernel(int n) { return lo(n) + hi(n); }
        """
        unit = parse(src)
        profile = run_program(unit, "kernel", [3]).profile
        profile.bind(unit)
        reparsed = parse(render(unit))
        decls = [
            node for node in reparsed.walk()
            if isinstance(node, N.VarDecl) and node.name == "v"
        ]
        assert len(decls) == 2
        maxima = sorted(
            profile.range_for_node(reparsed, d).max_value for d in decls
        )
        assert maxima == [1.0, 90.0]
