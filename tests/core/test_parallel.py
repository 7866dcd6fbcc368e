"""Process-based evaluation executor: wire format, determinism and the
executor/worker configuration surface."""

import warnings

import pytest

from repro.cfront.parser import parse
from repro.core import RepairSearch, SearchConfig
from repro.core.edits import Candidate
from repro.core.parallel import (
    EXECUTOR_ENV,
    WORKERS_ENV,
    default_executor,
    default_workers,
    run_subjects,
)
from repro.hls import SimulatedClock, SolutionConfig

from tests.core.test_evalcache import (
    BROKEN_SRC,
    TESTS,
    assert_equivalent,
    run_search,
)


class TestDefaults:
    def test_executor_from_env(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert default_executor() == "thread"
        monkeypatch.setenv(EXECUTOR_ENV, "process")
        assert default_executor() == "process"
        monkeypatch.setenv(EXECUTOR_ENV, "  THREAD ")
        assert default_executor() == "thread"
        monkeypatch.setenv(EXECUTOR_ENV, "bogus")
        assert default_executor() == "thread"

    def test_workers_from_env(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() is None
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert default_workers() == 4
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert default_workers() == 1
        monkeypatch.setenv(WORKERS_ENV, "nope")
        assert default_workers() is None

    def test_unknown_executor_rejected(self):
        unit = parse(BROKEN_SRC, top_name="kernel")
        with pytest.raises(ValueError, match="executor"):
            RepairSearch(
                original=unit,
                kernel_name="kernel",
                tests=TESTS,
                config=SearchConfig(executor="fiber"),
            )


class TestThreadWorkerWarning:
    def test_thread_executor_with_workers_warns(self):
        unit = parse(BROKEN_SRC, top_name="kernel")
        search = RepairSearch(
            original=unit,
            kernel_name="kernel",
            tests=TESTS,
            config=SearchConfig(
                max_iterations=2, workers=2, executor="thread"
            ),
            clock=SimulatedClock(),
        )
        initial = Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
        with pytest.warns(RuntimeWarning, match="GIL serializes"):
            search.run(initial)

    def test_no_warning_when_serial_or_process(self):
        for kwargs in ({"workers": 1, "executor": "thread"},
                       {"workers": 2, "executor": "process"}):
            unit = parse(BROKEN_SRC, top_name="kernel")
            search = RepairSearch(
                original=unit,
                kernel_name="kernel",
                tests=TESTS,
                config=SearchConfig(max_iterations=2, **kwargs),
                clock=SimulatedClock(),
            )
            initial = Candidate(
                unit=unit, config=SolutionConfig(top_name="kernel")
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                search.run(initial)


class TestProcessExecutorEquivalence:
    """The acceptance contract: process-parallel runs are bit-identical
    to serial runs in every simulated measurement."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_process_identical_to_serial(self, workers):
        _s, serial = run_search(use_cache=True, workers=1, executor="thread")
        _s, process = run_search(
            use_cache=True, workers=workers, executor="process"
        )
        assert_equivalent(serial, process)

    def test_process_without_cache_identical_to_serial(self):
        _s, serial = run_search(use_cache=False, workers=1, executor="thread")
        _s, process = run_search(
            use_cache=False, workers=2, executor="process"
        )
        assert_equivalent(serial, process)

    def test_checker_off_after_checker_on_in_warm_pool(self):
        """Workers outlive a search and keep one job template per
        context.  A search with the style checker off, over the same
        program and tests as an earlier one with it on, must not have
        its jobs evaluated with the earlier search's checker setting."""
        run_search(use_cache=False, workers=2, executor="process")
        _s, serial = run_search(
            use_cache=False, workers=1, executor="thread",
            use_style_checker=False,
        )
        _s, process = run_search(
            use_cache=False, workers=2, executor="process",
            use_style_checker=False,
        )
        assert_equivalent(serial, process)
        assert process.stats.style_rejections == 0
        assert process.stats.hls_invocations == process.stats.cache_misses

    def test_process_jobs_do_not_tick_parent_compile_counter(self):
        """Real compiles happen in the workers; the parent-process global
        invocation counter must not move (the per-run accounting lives in
        ``SearchStats.hls_invocations`` instead)."""
        from repro.hls.compiler import compile_invocations

        before = compile_invocations()
        _s, result = run_search(
            use_cache=False, workers=2, executor="process"
        )
        assert compile_invocations() == before
        assert result.stats.hls_invocations > 0


class TestSubjectFanout:
    def test_serial_fanout_matches_input_order(self):
        from repro.baselines.variants import default_config

        config = default_config(
            budget_seconds=1200.0, max_iterations=30, fuzz_execs=150
        )
        summaries = run_subjects(["P3", "P1"], "HeteroGen", config, workers=1)
        assert [s["subject"] for s in summaries] == ["P3", "P1"]
        for summary in summaries:
            assert summary["attempts"] > 0
            assert isinstance(summary["history"], list)
            assert summary["final_source"]


class TestSearchConfigValidation:
    def test_workers_must_be_a_positive_integer(self):
        for bad in (0, -1, 1.5, True, "2", None):
            with pytest.raises(ValueError):
                SearchConfig(workers=bad)

    def test_unknown_executor_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown executor"):
            SearchConfig(executor="fiber")

    def test_valid_configurations_accepted(self):
        assert SearchConfig(workers=1).workers == 1
        cfg = SearchConfig(workers=4, executor="process")
        assert cfg.workers == 4 and cfg.executor == "process"
