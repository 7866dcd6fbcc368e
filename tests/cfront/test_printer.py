"""Printer tests: rendering, round-tripping, LOC accounting."""

import pytest

from repro.cfront import count_loc, added_loc, parse, render
from repro.cfront import nodes as N
from repro.difftest import outputs_equal, run_cpu_reference

ROUNDTRIP_SOURCES = [
    "int x = 5;",
    "static const float pi = 3.14;",
    "int a[4] = {1, 2, 3, 4};",
    "typedef int Node_ptr;\nNode_ptr p;",
    "fpga_uint<7> r;",
    "fpga_float<8,71> f;",
    "struct P { int x; int y; };\nstruct P g;",
    "union U { int i; float f; };",
    """
    int fib(int n) {
        if (n < 2) {
            return n;
        }
        int a = 0;
        int b = 1;
        for (int i = 2; i <= n; i++) {
            int t = a + b;
            a = b;
            b = t;
        }
        return b;
    }
    """,
    """
    void locked(int a[8]) {
        #pragma HLS array_partition variable=a factor=4
        for (int i = 0; i < 8; i++) {
            #pragma HLS pipeline II=1
            a[i] = a[i] * 2;
        }
    }
    """,
    """
    struct Pair {
        int a;
        int b;
        int total() { return this->a + this->b; }
    };
    """,
    "void f(hls::stream<unsigned> &in, hls::stream<unsigned> &out) { out.write(in.read()); }",
    # Figure 4 explicit-policy cast, the shape type_casting repair edits
    # emit; repaired candidates are emitted as rendered source, so this
    # round trip must stay closed.
    """
    int f(int x) {
        return (int)thls::to<fpga_float<8,71>, thls::convert_policy(0xF)>(x);
    }
    """,
]


def test_policy_cast_parses_into_cast_node():
    unit = parse(
        "int f(int x) {"
        " return (int)thls::to<fpga_float<8,71>, thls::convert_policy(0xF)>(x);"
        " }"
    )
    cast = next(
        n for n in unit.walk() if isinstance(n, N.Cast) and n.explicit_policy
    )
    assert cast.explicit_policy == "thls::convert_policy(0xF)"
    assert cast.to_type.exp_bits == 8 and cast.to_type.mant_bits == 71


@pytest.mark.parametrize("source", ROUNDTRIP_SOURCES)
def test_render_reparses(source):
    """Rendered output must itself parse (syntactic round-trip)."""
    unit = parse(source)
    text = render(unit)
    reparsed = parse(text)
    assert render(reparsed) == text  # fixed point after one round


def test_semantic_round_trip():
    """Round-tripped programs behave identically."""
    source = """
    int collatz(int n) {
        int steps = 0;
        while (n > 1 && steps < 100) {
            if (n % 2 == 0) {
                n = n / 2;
            } else {
                n = 3 * n + 1;
            }
            steps++;
        }
        return steps;
    }
    """
    unit = parse(source)
    reparsed = parse(render(unit))
    tests = [[7], [27], [1], [100]]
    ref, _ = run_cpu_reference(unit, "collatz", tests)
    new, _ = run_cpu_reference(reparsed, "collatz", tests)
    assert all(outputs_equal(list(a), list(b)) for a, b in zip(ref, new))


class TestExpressions:
    def render_expr(self, source):
        unit = parse(f"int f() {{ return {source}; }}")
        return render(unit)

    def test_precedence_parens_preserved(self):
        text = self.render_expr("(1 + 2) * 3")
        assert "(1 + 2) * 3" in text

    def test_no_spurious_parens(self):
        text = self.render_expr("1 + 2 * 3")
        assert "1 + 2 * 3" in text

    def test_nested_ternary(self):
        text = self.render_expr("a ? b : c ? d : e")
        reparsed = parse("int f() { return " + text.split("return ")[1].rstrip("};\n ") + "; }")
        assert reparsed is not None

    def test_cast_policy_rendering(self):
        from repro.cfront import typesys as T

        cast = N.Cast(
            to_type=T.FpgaFloatType(8, 71),
            expr=N.IntLit(value=1, text="1"),
            explicit_policy="thls::convert_policy(0xF)",
        )
        from repro.cfront.printer import Printer

        text = Printer().expr(cast)
        assert text == "thls::to<fpga_float<8,71>, thls::convert_policy(0xF)>(1)"


class TestVlaRendering:
    def test_vla_prints_runtime_size(self):
        unit = parse("void f(int n) { float buf[n]; }")
        assert "float buf[n];" in render(unit)


class TestLoc:
    def test_count_loc_ignores_blanks(self):
        unit = parse("int x;\n\n\nint y;")
        assert count_loc(unit) == 2

    def test_added_loc_zero_for_identical(self):
        unit = parse("int x;\nint y;")
        assert added_loc(unit, unit) == 0

    def test_added_loc_counts_new_lines(self):
        before = parse("int x;")
        after = parse("int x;\nint y;\nint z;")
        assert added_loc(before, after) == 2

    def test_added_loc_handles_duplicates(self):
        before = parse("int f() { int a = 1; return a; }")
        after = parse("int f() { int a = 1; int b = 1; return a; }")
        # `int b = 1;` is new even though `int a = 1;` looks similar
        assert added_loc(before, after) == 1
