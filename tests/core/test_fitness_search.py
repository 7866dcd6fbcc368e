"""Fitness-function and repair-search tests."""

import math

import pytest

from repro.baselines import default_config, run_variant
from repro.cfront.parser import parse
from repro.core import Fitness, RepairSearch, SearchConfig, fitness_from_reports
from repro.core.edits import Candidate, Edit, EditApplication, EditRegistry
from repro.difftest import DiffReport
from repro.hls import SimulatedClock, SolutionConfig
from repro.hls.diagnostics import CompileReport, Diagnostic, ErrorType
from repro.subjects import get_subject


def diag(n=1):
    return [
        Diagnostic(code="X", message=f"e{i}", error_type=ErrorType.TOP_FUNCTION)
        for i in range(n)
    ]


class TestFitness:
    def test_lexicographic_priorities(self):
        """Compatibility beats behaviour beats latency — the paper's
        hard/soft constraint split (§1)."""
        broken = Fitness(compile_errors=1, fail_ratio=0.0, latency_ns=1.0)
        slow_but_ok = Fitness(compile_errors=0, fail_ratio=0.0, latency_ns=1e9)
        assert slow_but_ok.better_than(broken)
        diverging = Fitness(compile_errors=0, fail_ratio=0.1, latency_ns=1.0)
        assert slow_but_ok.better_than(diverging)
        faster = Fitness(compile_errors=0, fail_ratio=0.0, latency_ns=1e8)
        assert faster.better_than(slow_but_ok)

    def test_better_than_none(self):
        assert Fitness(5, 1.0, math.inf).better_than(None)

    def test_flags(self):
        ok = Fitness(0, 0.0, 100.0)
        assert ok.is_compatible and ok.is_behavior_preserving
        partial = Fitness(0, 0.25, 100.0)
        assert partial.is_compatible and not partial.is_behavior_preserving

    def test_from_reports_with_errors(self):
        fit = fitness_from_reports(CompileReport(diagnostics=diag(3)), None)
        assert fit.compile_errors == 3
        assert math.isinf(fit.latency_ns)

    def test_from_reports_clean(self):
        report = DiffReport(
            total=10, matching=9, cpu_latency_ns=100.0, fpga_latency_ns=50.0
        )
        fit = fitness_from_reports(CompileReport(), report)
        assert fit.compile_errors == 0
        assert fit.fail_ratio == pytest.approx(0.1)
        assert fit.latency_ns == 50.0

    def test_str_rendering(self):
        assert "inf" in str(Fitness(1, 1.0, math.inf))
        assert "0.050ms" in str(Fitness(0, 0.0, 50_000.0))


BROKEN_SRC = """
int kernel(int a[8], int n) {
    if (n > 8) { n = 8; }
    long double acc = 0.0;
    for (int i = 0; i < n; i++) {
        long double x = a[i];
        acc = acc + x;
    }
    return (int)acc;
}
"""

TESTS = [
    [[1, 2, 3, 4, 5, 6, 7, 8], 8],
    [[10, -10, 3, 0, 0, 0, 0, 0], 3],
    [[0] * 8, 0],
]


class TestRepairSearch:
    def run_search(self, **overrides):
        unit = parse(BROKEN_SRC, top_name="kernel")
        overrides.setdefault("max_iterations", 40)
        config = SearchConfig(**overrides)
        clock = SimulatedClock()
        search = RepairSearch(
            original=unit,
            kernel_name="kernel",
            tests=TESTS,
            config=config,
            clock=clock,
        )
        initial = Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
        return search, search.run(initial)

    def test_repairs_to_green(self):
        search, result = self.run_search()
        assert result.success
        assert result.best.fitness.is_behavior_preserving
        applied = result.best.candidate.applied
        assert any(a.startswith("type_trans") for a in applied)

    def test_stats_accounting(self):
        search, result = self.run_search()
        stats = result.stats
        assert stats.attempts >= stats.hls_invocations
        # Every attempt is answered by the cache or by a real toolchain run.
        assert stats.attempts == stats.cache_hits + stats.cache_misses
        # Only cache misses pay for a real style check / HLS compile.
        assert stats.style_checks == stats.cache_misses
        assert stats.hls_invocations == stats.cache_misses - stats.style_rejections
        assert 0 < stats.hls_invocation_ratio <= 1.0

    def test_stats_accounting_without_cache(self):
        search, result = self.run_search(use_cache=False)
        stats = result.stats
        assert stats.cache_hits == 0
        assert stats.cache_misses == stats.attempts
        assert stats.style_checks == stats.attempts
        assert stats.hls_invocations == stats.attempts - stats.style_rejections

    def test_budget_clamps_reported_repair_time(self):
        """The reported repair time never exceeds the configured budget,
        even when the final evaluation overshoots it."""
        search, result = self.run_search(budget_seconds=200.0)
        assert result.budget_seconds == 200.0
        assert result.repair_seconds <= 200.0
        assert search.clock.seconds >= result.repair_seconds

    def test_clock_accumulates_toolchain_time(self):
        search, result = self.run_search()
        assert result.repair_seconds > 0
        assert result.repair_minutes == pytest.approx(result.repair_seconds / 60)

    def test_budget_stops_search(self):
        search, result = self.run_search(budget_seconds=1.0)
        assert result.stats.iterations <= 2

    def test_without_checker_compiles_everything(self):
        search, result = self.run_search(use_style_checker=False)
        assert result.stats.style_checks == 0
        # Every non-memoized candidate pays a full HLS compile.
        assert result.stats.hls_invocations == result.stats.cache_misses
        assert result.success

    def test_without_dependence_still_succeeds_but_tries_more(self):
        _s1, guided = self.run_search(seed=5)
        _s2, blind = self.run_search(use_dependence=False, seed=5,
                                     max_iterations=200)
        assert guided.success
        assert blind.success
        assert blind.stats.attempts >= guided.stats.attempts

    def test_perf_exploration_improves_latency(self):
        _s, no_perf = self.run_search(perf_exploration=False)
        _s, with_perf = self.run_search(perf_exploration=True)
        assert with_perf.best.fitness.latency_ns <= no_perf.best.fitness.latency_ns

    def test_history_records_improvements(self):
        _search, result = self.run_search()
        assert any("new best" in line for line in result.history)


CLEAN_SRC = """
int kernel(int a[8]) {
    int s = 0;
    for (int i = 0; i < 8; i++) { s = s + a[i]; }
    return s;
}
"""

CLEAN_TESTS = [[[1, 2, 3, 4, 5, 6, 7, 8]], [[0] * 8]]


class _ToyEdit(Edit):
    """A performance edit with a fixed ladder of applications.

    Application ``i`` is inapplicable (``apply`` returns None) when ``i``
    is in *inapplicable*; otherwise it leaves the program as it is.
    Applications are labelled so the proposal order is ``i``."""

    name = "toy"

    def __init__(self, count, inapplicable=()):
        self.count = count
        self.inapplicable = set(inapplicable)
        self.applied = 0

    def propose(self, candidate, diagnostics, context):
        return [self._application(i) for i in range(self.count)]

    def _application(self, i):
        label = f"toy({i:02d})"

        def transform(cand):
            self.applied += 1
            if i in self.inapplicable:
                return None
            return cand.with_unit(cand.unit, label)

        return EditApplication(label=label, transform=transform)


class _RecordingSearch(RepairSearch):
    """Records the applied chain of every evaluated candidate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evaluated = []

    def evaluate(self, candidate):
        self.evaluated.append(candidate.applied)
        return super().evaluate(candidate)


def run_toy_search(edit, **overrides):
    unit = parse(CLEAN_SRC, top_name="kernel")
    search = _RecordingSearch(
        original=unit,
        kernel_name="kernel",
        tests=CLEAN_TESTS,
        config=SearchConfig(store_path=None, **overrides),
        registry=EditRegistry(edits=[], perf_edits=[edit]),
    )
    result = search.run(
        Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
    )
    return search, result


class TestPendingChildren:
    """The frontier builds a child only when it is popped, yet the search
    is the one an eager loop gives: each parent queues its first
    ``max_children_per_round`` applicable children, in proposal order."""

    def eager_order(self, count, inapplicable, cap, limit):
        # Every candidate has the same program, hence the same fitness:
        # the eager loop pops breadth-first, each round's children in
        # proposal order.
        labels = [f"toy({i:02d})" for i in range(count) if i not in inapplicable]
        labels = labels[:cap]
        order, level = [()], [()]
        while len(order) < limit:
            level = [chain + (label,) for chain in level for label in labels]
            order.extend(level)
        return order[:limit]

    def test_inapplicable_child_is_replaced_in_eager_order(self):
        edit = _ToyEdit(count=20, inapplicable={3, 9})
        search, result = run_toy_search(edit, max_iterations=40)
        expected = self.eager_order(20, {3, 9}, cap=14, limit=40)
        assert search.evaluated == expected
        # The round-1 replacements for toy(03) and toy(09) are the
        # parent's 15th and 16th applications.
        assert ("toy(15)",) in expected and ("toy(16)",) not in expected

    def test_inapplicable_child_spends_no_iteration(self):
        edit = _ToyEdit(count=20, inapplicable={3, 9})
        search, result = run_toy_search(edit, max_iterations=40)
        assert result.stats.iterations == 40
        assert result.stats.attempts == 40
        assert len(search.evaluated) == 40
        assert not any(
            label in ("toy(03)", "toy(09)")
            for chain in search.evaluated for label in chain
        )
        # Only popped children are built: the 39 evaluated ones plus
        # toy(03) and toy(09) of each of the three parents whose brood
        # was popped past index 9 (the initial candidate, toy(00) and
        # toy(01)).  An eager loop builds 16 for every evaluated parent.
        assert edit.applied == 39 + 3 * 2

    def test_search_drains_when_only_inapplicable_children_remain(self):
        edit = _ToyEdit(count=3, inapplicable={0, 1, 2})
        search, result = run_toy_search(edit)
        assert search.evaluated == [()]
        assert result.stats.iterations == 1
        assert edit.applied == 3


def test_children_are_built_only_when_popped(monkeypatch):
    """On P7 every ``EditApplication.apply`` call builds a child the
    search goes on to evaluate: no proposal is cloned up front."""
    calls = []
    original_apply = EditApplication.apply

    def counting_apply(self, candidate):
        calls.append(self.label)
        return original_apply(self, candidate)

    monkeypatch.setattr(EditApplication, "apply", counting_apply)
    config = default_config(fuzz_execs=200, max_iterations=60)
    config.search.store_path = None
    result = run_variant(get_subject("P7"), "HeteroGen", config)
    evaluated_children = result.search_result.stats.iterations - 1
    assert evaluated_children > 0
    assert len(calls) <= evaluated_children
