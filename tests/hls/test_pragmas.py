"""Pragma parsing tests."""

from repro.cfront import nodes as N
from repro.cfront.parser import parse
from repro.hls.pragmas import (
    HlsPragma,
    collect_pragmas,
    function_pragmas,
    has_dataflow,
    loop_pragmas,
    parse_pragma,
)


def pragma_of(text):
    return parse_pragma(N.Pragma(text=text))


class TestParsePragma:
    def test_directive_and_options(self):
        p = pragma_of("HLS array_partition variable=buf factor=4")
        assert p.directive == "array_partition"
        assert p.variable == "buf"
        assert p.factor == 4

    def test_flag_option_without_value(self):
        p = pragma_of("HLS array_partition variable=a complete")
        assert "complete" in p.options

    def test_case_insensitive_hls_prefix(self):
        assert pragma_of("hls dataflow").directive == "dataflow"

    def test_non_hls_pragma_is_none(self):
        assert pragma_of("once") is None

    def test_pipeline_ii(self):
        p = pragma_of("HLS pipeline II=2")
        assert p.int_option("ii") == 2

    def test_malformed_int_option_defaults(self):
        p = pragma_of("HLS unroll factor=lots")
        assert p.factor == 0

    def test_render_round_trip(self):
        p = pragma_of("HLS unroll factor=8")
        back = parse_pragma(N.Pragma(text=p.render()))
        assert (back.directive, back.options) == (p.directive, p.options)


SRC = """
void kernel(int a[8]) {
    #pragma HLS dataflow
    for (int i = 0; i < 8; i++) {
        #pragma HLS pipeline II=1
        #pragma HLS loop_tripcount min=1 max=8
        a[i] = i;
    }
}
"""


class TestCollection:
    def test_collect_all(self):
        unit = parse(SRC, top_name="kernel")
        assert len(collect_pragmas(unit)) == 3

    def test_function_pragmas_top_level_only(self):
        unit = parse(SRC, top_name="kernel")
        func = unit.function("kernel")
        top = function_pragmas(func)
        assert [p.directive for p in top] == ["dataflow"]

    def test_loop_pragmas_head_only(self):
        unit = parse(SRC, top_name="kernel")
        func = unit.function("kernel")
        loop = func.body.items[1]
        head = loop_pragmas(loop.body)
        assert [p.directive for p in head] == ["pipeline", "loop_tripcount"]

    def test_loop_pragmas_stop_at_first_statement(self):
        src = """
        void kernel(int a[4]) {
            for (int i = 0; i < 4; i++) {
                a[i] = i;
                #pragma HLS pipeline II=1
            }
        }
        """
        unit = parse(src, top_name="kernel")
        loop = unit.function("kernel").body.items[0]
        assert loop_pragmas(loop.body) == []

    def test_has_dataflow(self):
        unit = parse(SRC, top_name="kernel")
        assert has_dataflow(unit.function("kernel"))
        plain = parse("void f() {}", top_name="f")
        assert not has_dataflow(plain.function("f"))
