"""End-to-end HeteroGen pipeline tests on small kernels."""

import pytest

from repro import FuzzConfig, HeteroGen, HeteroGenConfig, SearchConfig
from repro.cfront import parse, render
from repro.hls import SolutionConfig, compile_unit


def small_config(**search_overrides):
    search_overrides.setdefault("max_iterations", 60)
    return HeteroGenConfig(
        fuzz=FuzzConfig(max_execs=300, plateau_execs=150),
        search=SearchConfig(**search_overrides),
    )


class TestPipeline:
    SRC = """
    float kernel(float xs[8]) {
        long double acc = 0.0;
        for (int i = 0; i < 8; i++) {
            long double x = xs[i];
            acc = acc + x;
        }
        return (float)acc;
    }
    void host(int seed) {
        float xs[8];
        for (int i = 0; i < 8; i++) { xs[i] = seed * 0.5 + i; }
        kernel(xs);
    }
    """

    def transpile(self, **kwargs):
        tool = HeteroGen(small_config())
        return tool.transpile(
            self.SRC, kernel_name="kernel",
            host_name="host", host_args=(2,), **kwargs,
        )

    def test_end_to_end_success(self):
        result = self.transpile()
        assert result.hls_compatible
        assert result.behavior_preserved
        assert result.success

    def test_final_unit_compiles_clean(self):
        result = self.transpile()
        report = compile_unit(result.final_unit, result.final_config)
        assert report.ok

    def test_final_source_is_reparseable(self):
        result = self.transpile()
        text = result.final_source()
        assert text
        reparsed = parse(text, top_name="kernel")
        assert reparsed.function("kernel") is not None

    def test_report_accounting(self):
        result = self.transpile()
        assert result.origin_loc > 0
        assert result.delta_loc >= 0
        assert result.fuzz_report is not None
        assert result.fuzz_report.coverage_ratio > 0.5
        summary = result.summary()
        assert "HLS compatible   : yes" in summary

    def test_pre_existing_tests_join_the_suite(self):
        tests = [[[1.0] * 8]]
        result = self.transpile(tests=tests)
        assert result.success

    def test_clean_input_needs_no_repair(self):
        src = """
        int kernel(int a[4]) {
            int total = 0;
            for (int i = 0; i < 4; i++) { total += a[i]; }
            return total;
        }
        """
        tool = HeteroGen(small_config())
        result = tool.transpile(src, kernel_name="kernel")
        assert result.success
        # Only performance edits (if any) were applied.
        assert all(
            edit.startswith(("insert(pipeline", "insert(unroll",
                             "insert(array_partition"))
            for edit in result.applied_edits
        )

    def test_accepts_preparsed_unit(self):
        unit = parse(self.SRC, top_name="kernel")
        tool = HeteroGen(small_config())
        result = tool.transpile(unit, kernel_name="kernel")
        assert result.hls_compatible


class TestBudgetExhaustion:
    def test_unfixable_program_reports_incomplete(self):
        # Value-returning self-recursion: no edit template can convert it,
        # so the search must terminate and report the best (still broken)
        # candidate rather than claim success.
        src = """
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int kernel(int n) {
            if (n > 10) { n = 10; }
            if (n < 0) { n = 0; }
            return fib(n);
        }
        """
        tool = HeteroGen(small_config(max_iterations=20))
        result = tool.transpile(src, kernel_name="kernel")
        assert not result.hls_compatible
        assert not result.success
        assert result.final_unit is None
        # §1: the incomplete report carries the remaining errors and the
        # generated tests, to guide the remaining manual edits.
        assert any("recursive" in e for e in result.remaining_errors)
        assert result.fuzz_report.suite()
        assert "manual edits needed" in result.summary()
