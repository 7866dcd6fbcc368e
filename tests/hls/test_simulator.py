"""HLS co-simulation, device model and simulated-clock tests."""

import math

import pytest

from repro.cfront import parse
from repro.cfront.fingerprint import forced_mode, strip_pragmas
from repro.hls import (
    DEVICES,
    SimulatedClock,
    SolutionConfig,
    simulate,
)
from repro.hls.clock import ACT_SIMULATION
from repro.hls.memo import analysis_cache_stats, clear_analysis_caches
from repro.hls.platform import ResourceUsage
from repro.interp import ExecLimits, make_engine


class TestSimulate:
    SRC = """
    int kernel(int a[4], int n) {
        if (n > 4) { n = 4; }
        int total = 0;
        for (int i = 0; i < n; i++) { total += a[i]; }
        return total;
    }
    """

    def test_outcomes_match_functional_semantics(self):
        unit = parse(self.SRC, top_name="kernel")
        report = simulate(
            unit, SolutionConfig(top_name="kernel"), [[[1, 2, 3, 4], 4]]
        )
        assert report.outcomes[0].ok
        value, _out = report.outcomes[0].observable
        assert value == 10

    def test_faulting_test_recorded_not_raised(self):
        unit = parse(self.SRC, top_name="kernel")
        report = simulate(
            unit, SolutionConfig(top_name="kernel"), [[[1, 2], 4]]
        )
        assert report.faults == 1
        assert not report.outcomes[0].ok
        assert "out of bounds" in report.outcomes[0].fault

    def test_clock_charged_per_test(self):
        unit = parse(self.SRC, top_name="kernel")
        clock = SimulatedClock()
        simulate(
            unit,
            SolutionConfig(top_name="kernel"),
            [[[1, 2, 3, 4], 4]] * 5,
            clock=clock,
        )
        assert clock.count(ACT_SIMULATION) == 1
        assert clock.seconds == pytest.approx(10.0)

    def test_fault_budget_short_circuits(self):
        unit = parse(self.SRC, top_name="kernel")
        bad_test = [[[1, 2], 4]]  # out-of-bounds on every run
        report = simulate(
            unit, SolutionConfig(top_name="kernel"), bad_test * 10,
            max_faults=3,
        )
        assert report.faults == 3  # only the executed tests faulted...
        assert report.skipped_tests == 7  # ...the rest never ran
        skipped = [o for o in report.outcomes if o.skipped]
        assert len(skipped) == 7
        assert all(not o.ok for o in skipped)

    def test_fault_budget_ignores_passing_tests(self):
        unit = parse(self.SRC, top_name="kernel")
        good = [[[1, 2, 3, 4], 4]]
        report = simulate(
            unit, SolutionConfig(top_name="kernel"), good * 5, max_faults=1
        )
        assert report.faults == 0
        assert all(o.ok for o in report.outcomes)

    def test_latency_comes_from_schedule(self):
        unit = parse(self.SRC, top_name="kernel")
        report = simulate(unit, SolutionConfig(top_name="kernel"), [])
        assert report.schedule is not None
        assert report.kernel_latency_ns > 0


def _outcome_hits():
    return analysis_cache_stats()["simulate.outcomes"]["hits"]


class TestPragmaFreeCoSimulation:
    """Co-simulation runs the pragma-free program, memoized across
    candidates that differ only in pragmas."""

    PIPELINED = """
    int kernel(int a[8]) {
        int total = 0;
        for (int i = 0; i < 8; i++) {
    #pragma HLS pipeline II=1
            total += a[i];
        }
        return total;
    }
    """
    TESTS = [[[1, 2, 3, 4, 5, 6, 7, 8]], [[0, -1, 0, -1, 0, -1, 0, -1]]]

    def setup_method(self):
        clear_analysis_caches()

    @pytest.mark.parametrize("backend", ["tree", "batch"])
    def test_pragma_step_charges_do_not_change_outcomes(self, backend):
        unit = parse(self.PIPELINED, top_name="kernel")
        bare = strip_pragmas(unit)
        steps = make_engine(bare, backend=backend).run(
            "kernel", self.TESTS[0]
        ).steps
        # Room for the pragma-free run, not for the eight steps the
        # pragma in the loop body charges when it is executed.
        limits = ExecLimits(max_steps=steps + 4)
        with pytest.raises(Exception, match="step"):
            make_engine(unit, backend=backend, limits=limits).run(
                "kernel", self.TESTS[0]
            )
        config = SolutionConfig(top_name="kernel")
        with forced_mode("off"):
            pragmas = simulate(unit, config, self.TESTS, limits=limits,
                               backend=backend)
            free = simulate(bare, config, self.TESTS, limits=limits,
                            backend=backend)
        assert pragmas.outcomes == free.outcomes
        assert all(o.ok for o in pragmas.outcomes)
        assert pragmas.outcomes[0].observable[0] == 36

    def test_pragma_only_edit_hits_memo_and_keeps_latency_and_charge(self):
        config = SolutionConfig(top_name="kernel")
        unit = parse(self.PIPELINED, top_name="kernel")
        bare = strip_pragmas(unit)
        clock = SimulatedClock()
        with forced_mode("on"):
            first = simulate(bare, config, self.TESTS, clock=clock)
            hits = _outcome_hits()
            second = simulate(unit, config, self.TESTS, clock=clock)
        assert _outcome_hits() == hits + 1
        assert second.outcomes == first.outcomes
        assert second.outcomes is not first.outcomes
        # Latency is estimated on the real candidate, pragmas included.
        assert second.kernel_latency_ns < first.kernel_latency_ns
        assert clock.count(ACT_SIMULATION) == 2
        assert clock.seconds == pytest.approx(8.0)

    def test_memo_key_covers_tests_limits_and_fault_budget(self):
        config = SolutionConfig(top_name="kernel")
        unit = parse(self.PIPELINED, top_name="kernel")
        with forced_mode("on"):
            simulate(unit, config, self.TESTS)
            simulate(unit, config, self.TESTS[:1])
            simulate(unit, config, self.TESTS,
                     limits=ExecLimits(max_steps=10))
            simulate(unit, config, self.TESTS, max_faults=1)
            simulate(unit, config, [[[1, 2, 3, 4, 5, 6, 7, 8.0]]])
            assert _outcome_hits() == 0
            simulate(unit, config, self.TESTS)
        assert _outcome_hits() == 1

    def test_fault_quoting_a_line_names_its_own_line(self):
        config = SolutionConfig(top_name="k")
        flat = parse("int k(int x){ return f(x); }", top_name="k")
        shifted = parse(
            "int k(int x){\n#pragma HLS inline\n return f(x); }",
            top_name="k",
        )
        for unit, line in ((flat, 1), (shifted, 3), (flat, 1)):
            (outcome,) = simulate(unit, config, [[1]]).outcomes
            assert not outcome.ok
            assert outcome.fault.endswith(f"at line {line}")

    def test_cross_check_holds_nan_outcomes_equal(self):
        unit = parse(
            "float k(float a){ float b=a*a*a*a; float c=b*b*b*b; "
            "return c-c; }",
            top_name="k",
        )
        config = SolutionConfig(top_name="k")
        with forced_mode("cross"):
            first = simulate(unit, config, [[1e30]])
            second = simulate(unit, config, [[1e30]])
        assert _outcome_hits() == 1
        for report in (first, second):
            assert math.isnan(report.outcomes[0].observable[0])


class TestSimulatedClock:
    def test_accumulates_by_activity(self):
        clock = SimulatedClock()
        clock.charge("a", 10.0)
        clock.charge("a", 5.0)
        clock.charge("b", 1.0)
        assert clock.seconds == 16.0
        assert clock.by_activity["a"] == 15.0
        assert clock.count("a") == 2
        assert clock.minutes == pytest.approx(16.0 / 60.0)
        assert clock.hours == pytest.approx(16.0 / 3600.0)

    def test_reset(self):
        clock = SimulatedClock()
        clock.charge("a", 3.0)
        clock.reset()
        assert clock.seconds == 0.0
        assert clock.count("a") == 0


class TestPlatform:
    def test_known_devices(self):
        assert "xcvu9p" in DEVICES
        assert DEVICES["xcvu9p"].dsps == 6840

    def test_solution_validation(self):
        good = SolutionConfig(top_name="k")
        assert good.validate() == []
        assert SolutionConfig(top_name="").validate()
        assert SolutionConfig(top_name="k", device="nope").validate()
        assert SolutionConfig(top_name="k", clock_period_ns=-1).validate()
        assert SolutionConfig(top_name="k", clock_period_ns=0.5).validate()

    def test_with_helpers_produce_new_configs(self):
        base = SolutionConfig(top_name="a")
        assert base.with_top("b").top_name == "b"
        assert base.with_clock(5.0).clock_period_ns == 5.0
        assert base.with_device("xc7z020").device == "xc7z020"
        assert base.top_name == "a"  # frozen original unchanged

    def test_resource_usage_fits_and_overflows(self):
        device = DEVICES["xc7z020"]
        small = ResourceUsage(luts=10, ffs=10, bram_36k=1, dsps=1)
        assert small.fits(device)
        big = ResourceUsage(luts=10**9)
        assert not big.fits(device)
        assert big.overflows(device)[0][0] == "LUT"

    def test_resource_scaling_shares_memories(self):
        usage = ResourceUsage(luts=10, ffs=10, bram_36k=4, dsps=2)
        scaled = usage.scaled(4)
        assert scaled.luts == 40
        assert scaled.bram_36k == 4  # BRAMs are shared, not duplicated
