"""Scheduler/latency-model tests: pragmas must pay off the way the real
toolchain's would, since the repair search steers by these numbers."""

import math

import pytest

from repro.cfront import parse
from repro.hls import SolutionConfig, estimate
from repro.hls.platform import OFFLOAD_OVERHEAD_NS


def cycles(source, top="kernel", **cfg):
    unit = parse(source, top_name=top)
    return estimate(unit, SolutionConfig(top_name=top, **cfg)).cycles


BASE_LOOP = """
void kernel(int a[64], int out[64]) {{
    for (int i = 0; i < 64; i++) {{
        {pragma}
        out[i] = a[i] * 3 + 1;
    }}
}}
"""


class TestPipeline:
    def test_pipeline_beats_sequential(self):
        plain = cycles(BASE_LOOP.format(pragma=""))
        piped = cycles(BASE_LOOP.format(pragma="#pragma HLS pipeline II=1"))
        assert piped < plain / 3

    def test_higher_ii_is_slower(self):
        ii1 = cycles(BASE_LOOP.format(pragma="#pragma HLS pipeline II=1"))
        ii2 = cycles(BASE_LOOP.format(pragma="#pragma HLS pipeline II=2"))
        assert ii1 < ii2

    def test_pipeline_ineffective_with_nested_loop(self):
        src = """
        void kernel(int a[8]) {
            for (int i = 0; i < 8; i++) {
                #pragma HLS pipeline II=1
                for (int j = 0; j < 8; j++) {
                    a[j] = a[j] + i;
                }
            }
        }
        """
        src_plain = src.replace("#pragma HLS pipeline II=1\n", "")
        assert cycles(src) == pytest.approx(cycles(src_plain))


class TestUnrollAndPartition:
    UNROLLED = """
    void kernel(int a[64], int out[64]) {{
        {partition}
        for (int i = 0; i < 64; i++) {{
            #pragma HLS unroll factor=8
            out[i] = a[i] * 3;
        }}
    }}
    """

    def test_unroll_limited_by_memory_ports(self):
        no_partition = cycles(self.UNROLLED.format(partition=""))
        partitioned = cycles(self.UNROLLED.format(
            partition="#pragma HLS array_partition variable=a factor=8\n"
            "        #pragma HLS array_partition variable=out factor=8"
        ))
        assert partitioned < no_partition

    def test_unroll_with_partition_beats_plain(self):
        plain = cycles(BASE_LOOP.format(pragma=""))
        fast = cycles(self.UNROLLED.format(
            partition="#pragma HLS array_partition variable=a factor=8\n"
            "        #pragma HLS array_partition variable=out factor=8"
        ))
        assert fast < plain

    def test_unroll_scales_resources(self):
        unit_plain = parse(BASE_LOOP.format(pragma=""), top_name="kernel")
        unit_unrolled = parse(
            BASE_LOOP.format(pragma="#pragma HLS unroll factor=8"),
            top_name="kernel",
        )
        cfg = SolutionConfig(top_name="kernel")
        plain = estimate(unit_plain, cfg).resources
        unrolled = estimate(unit_unrolled, cfg).resources
        assert unrolled.dsps > plain.dsps


class TestDataflow:
    TWO_STAGE = """
    void stage_a(int a[32], int b[32]) {{
        for (int i = 0; i < 32; i++) {{ b[i] = a[i] + 1; }}
    }}
    void stage_b(int b[32], int c[32]) {{
        for (int i = 0; i < 32; i++) {{ c[i] = b[i] * 2; }}
    }}
    void kernel(int a[32], int c[32]) {{
        {pragma}
        static int mid[32];
        stage_a(a, mid);
        stage_b(mid, c);
    }}
    """

    def test_dataflow_overlaps_stages(self):
        serial = cycles(self.TWO_STAGE.format(pragma=""))
        overlapped = cycles(self.TWO_STAGE.format(pragma="#pragma HLS dataflow"))
        assert overlapped < serial


class TestStructure:
    def test_if_costs_worst_branch(self):
        balanced = """
        void kernel(int a[4], int x) {
            if (x) { a[0] = x * x * x; } else { a[0] = 1; }
        }
        """
        unit = parse(balanced, top_name="kernel")
        report = estimate(unit, SolutionConfig(top_name="kernel"))
        assert math.isfinite(report.cycles)

    def test_missing_top_gives_infinite_latency(self):
        unit = parse("int other() { return 1; }", top_name="kernel")
        report = estimate(unit, SolutionConfig(top_name="kernel"))
        assert math.isinf(report.cycles)

    def test_io_cycles_charged_for_interface_arrays(self):
        small = cycles("void kernel(int a[8]) { a[0] = 1; }")
        large = cycles("void kernel(int a[512]) { a[0] = 1; }")
        assert large > small

    def test_narrower_clock_means_lower_latency_ns(self):
        src = BASE_LOOP.format(pragma="")
        unit = parse(src, top_name="kernel")
        fast = estimate(unit, SolutionConfig(top_name="kernel", clock_period_ns=3.33))
        slow = estimate(unit, SolutionConfig(top_name="kernel", clock_period_ns=10.0))
        assert fast.kernel_latency_ns < slow.kernel_latency_ns
        assert fast.total_latency_ns == fast.kernel_latency_ns + OFFLOAD_OVERHEAD_NS

    def test_static_tripcount_recovery(self):
        from repro.hls.schedule import static_tripcount
        from repro.cfront import nodes as N
        from repro.cfront.visitor import find_all

        unit = parse(
            "void kernel() { for (int i = 2; i <= 10; i += 2) { int x = i; } }",
            top_name="kernel",
        )
        loop = find_all(unit, N.For)[0]
        assert static_tripcount(loop) == 5

    def test_variable_bound_uses_default_tripcount(self):
        from repro.hls.schedule import static_tripcount
        from repro.cfront import nodes as N
        from repro.cfront.visitor import find_all

        unit = parse(
            "void kernel(int n) { for (int i = 0; i < n; i++) { int x = i; } }",
            top_name="kernel",
        )
        loop = find_all(unit, N.For)[0]
        assert static_tripcount(loop) is None

    def test_bram_scales_with_array_bits(self):
        narrow = parse("static fpga_uint<4> buf[4096];\nvoid kernel() {}", top_name="kernel")
        wide = parse("static long buf[4096];\nvoid kernel() {}", top_name="kernel")
        cfg = SolutionConfig(top_name="kernel")
        assert (
            estimate(narrow, cfg).resources.bram_36k
            < estimate(wide, cfg).resources.bram_36k
        )
