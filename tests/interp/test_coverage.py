"""Coverage recorder and value-profile tests."""

import pytest
from hypothesis import given, strategies as st

from repro.cfront import nodes as N
from repro.cfront.parser import parse
from repro.cfront.visitor import find_all
from repro.interp import branch_points, branch_universe, run_program
from repro.interp.coverage import CoverageRecorder, ValueProfile, VarRange

from ..conftest import run_c
from .engines import ENGINES, run_on

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


def _universe_of(body, kind):
    """The branch-universe outcomes of the first *kind* branch point (a
    node class, or ``"&&"``/``"||"``) in kernel ``k`` with *body*."""
    unit = parse("int f(int x) { return x; }\n"
                 "int k(int x) {\n" + body + "\n}\n")
    kernel = unit.function("k")
    if isinstance(kind, str):
        node = [b for b in find_all(kernel, N.BinOp) if b.op == kind][0]
    else:
        node = find_all(kernel, kind)[0]
    return {
        outcome for uid, outcome in branch_universe(unit, "k")
        if uid == node.uid
    }


#: A kernel whose loops and conditionals are decided by literals, and
#: whose every branch outcome some input takes.
LITERAL_CONDITIONS = """
int k(int x) {
    int n = 0;
    while (1) {
        if (n >= x || n > 20) { break; }
        n++;
    }
    for (; 1; ) { n++; break; }
    do { n += 2; } while (0);
    if (0) { n = -1; }
    return 1 ? n : 0;
}
"""


class TestBranchUniverse:
    """A branch point decided by a literal has one outcome in the
    universe; every other branch point has both."""

    @pytest.mark.parametrize("body,kind,outcomes", [
        ("while (1) { if (x > 3) { break; } x++; } return x;",
         N.While, {True}),
        ("for (; 1; ) { break; } return x;", N.For, {True}),
        ("do { x++; } while (0); return x;", N.DoWhile, {False}),
        ("if (0) { x = 1; } return x;", N.If, {False}),
        ("if ('a') { x = 1; } return x;", N.If, {True}),
        ("while (0.0) { x++; } return x;", N.While, {False}),
        ("return 1 ? x : -x;", N.Cond, {True}),
        ("return 0 && f(x);", "&&", {False}),
        ("return 1 || f(x);", "||", {True}),
    ], ids=["while-1", "for-1", "do-while-0", "if-0", "char-literal",
            "float-literal", "ternary-1", "and-0", "or-1"])
    def test_literal_decides_one_outcome(self, body, kind, outcomes):
        assert _universe_of(body, kind) == outcomes

    @pytest.mark.parametrize("body,kind", [
        ("while (x) { x--; } return x;", N.While),
        ("while (1 - 1) { x++; } return x;", N.While),
        ("return x && 1;", "&&"),
    ], ids=["while-x", "while-binop", "literal-right-operand"])
    def test_other_conditions_keep_both_outcomes(self, body, kind):
        assert _universe_of(body, kind) == {True, False}

    def test_branch_counts_keep_both_outcomes(self):
        # Table 4's denominator is a gcov-style two per branch point.
        unit = parse(LITERAL_CONDITIONS)
        body = unit.function("k").body
        assert len(branch_points(body)) == 7
        assert 2 * len(branch_points(body)) == 14
        # Two outcomes each for `||` and the `if` it decides, one for
        # each of the five literal-decided points.
        assert len(branch_universe(unit, "k")) == 9

    @pytest.mark.parametrize("backend", ENGINES)
    def test_recorded_hits_lie_in_the_universe(self, backend):
        unit = parse(LITERAL_CONDITIONS)
        hits = set()
        for x in (-3, 0, 5, 50):
            hits |= run_on(unit, "k", [x], backend).coverage.hits
        assert hits == branch_universe(unit, "k")


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

    def test_ratio_of_branchless_code_is_one(self):
        unit = parse("int f(int x) { return x + 1; }")
        recorder = CoverageRecorder()
        assert recorder.ratio(unit.function("f").body) == 1.0

    def test_covered_and_total_counts(self):
        unit = parse(BRANCHY)
        body = unit.function("classify").body
        recorder = CoverageRecorder()
        recorder.merge(run_program(unit, "classify", [200]).coverage)
        assert 2 * len(branch_points(body)) == 8
        assert recorder.ratio(body) == 1 / 8  # first if, taken


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
    """Profile lookups are by declaring-node uid: ``clone()`` preserves
    uids, so a clone resolves; a render→re-parse round trip mints fresh
    uids, so a re-parsed copy misses."""

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
        rng = profile.range_for(self._decl(copy, "acc").uid)
        assert rng is not None and rng.samples > 0

    def test_reparse_without_bind_misses(self):
        from repro.cfront.printer import render

        unit, profile = self._profiled()
        reparsed = parse(render(unit))
        assert profile.range_for(self._decl(reparsed, "acc").uid) is None
