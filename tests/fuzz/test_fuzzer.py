"""Fuzzer tests: Algorithm 1's loop, seeds, plateau, and corpus."""

import pytest

from repro.errors import FuzzError
from repro.cfront import parse
from repro.fuzz import (
    Corpus,
    FuzzConfig,
    coverage_of_suite,
    fuzz_kernel,
    get_kernel_seed,
)
from repro.baselines.variants import default_config
from repro.fuzz import fuzzer
from repro.hls import SimulatedClock
from repro.hls.clock import ACT_FUZZING
from repro.interp import engine_run_many
from repro.memo import canonical_value
from repro.subjects import get_subject

BRANCHY = """
int classify(int a[8], int n) {
    if (n > 8) { n = 8; }
    int pos = 0;
    int neg = 0;
    for (int i = 0; i < n; i++) {
        if (a[i] > 100) { pos += 2; }
        else if (a[i] > 0) { pos++; }
        else if (a[i] < -100) { neg += 2; }
        else if (a[i] < 0) { neg++; }
    }
    if (pos > neg) { return 1; }
    if (neg > pos) { return -1; }
    return 0;
}
int host(int x) {
    int data[8];
    for (int i = 0; i < 8; i++) { data[i] = x + i; }
    return classify(data, 8);
}
"""


class TestKernelSeeds:
    def test_capture_from_host(self):
        unit = parse(BRANCHY)
        seeds = get_kernel_seed(unit, "host", "classify", [5])
        assert seeds == [[[5, 6, 7, 8, 9, 10, 11, 12], 8]]

    def test_missing_call_raises(self):
        unit = parse("int host(int x) { return x; }\nint k(int y) { return y; }")
        with pytest.raises(FuzzError):
            get_kernel_seed(unit, "host", "k", [1])

    def test_crashing_host_raises(self):
        unit = parse(
            "int k(int y) { return y; }\n"
            "int host(int x) { int a[2]; return a[9] + k(x); }"
        )
        with pytest.raises(FuzzError):
            get_kernel_seed(unit, "host", "k", [1])


class TestFuzzLoop:
    def test_reaches_full_coverage_on_branchy_kernel(self):
        unit = parse(BRANCHY)
        report = fuzz_kernel(
            unit, "classify", FuzzConfig(max_execs=3000, plateau_execs=600)
        )
        assert report.coverage_ratio >= 0.9
        assert report.tests_generated > 10
        assert len(report.corpus) >= 3

    def test_seeded_beats_unseeded_or_ties(self):
        unit = parse(BRANCHY)
        seeds = get_kernel_seed(unit, "host", "classify", [5])
        seeded = fuzz_kernel(
            unit, "classify",
            FuzzConfig(max_execs=600, plateau_execs=300), seeds=seeds,
        )
        assert seeded.coverage_ratio > 0.5

    def test_plateau_stops_early(self):
        # A branchless kernel saturates immediately; the plateau counter
        # must stop the loop long before max_execs.
        unit = parse("int k(int x) { return x + 1; }")
        report = fuzz_kernel(
            unit, "k", FuzzConfig(max_execs=100000, plateau_execs=50)
        )
        assert report.execs < 1000

    def test_unknown_kernel_raises(self):
        unit = parse("int k(int x) { return x; }")
        with pytest.raises(FuzzError):
            fuzz_kernel(unit, "nope", FuzzConfig(max_execs=10))

    def test_deterministic_given_seed(self):
        unit = parse(BRANCHY)
        cfg = FuzzConfig(max_execs=400, plateau_execs=200, seed=11)
        a = fuzz_kernel(unit, "classify", cfg)
        b = fuzz_kernel(unit, "classify", cfg)
        assert a.tests_generated == b.tests_generated
        assert a.suite() == b.suite()

    def test_clock_charged(self):
        unit = parse(BRANCHY)
        clock = SimulatedClock()
        report = fuzz_kernel(
            unit, "classify", FuzzConfig(max_execs=200, plateau_execs=100),
            clock=clock,
        )
        assert clock.count(ACT_FUZZING) == 1
        assert clock.seconds == pytest.approx(report.fuzz_seconds)

    def test_captured_seeds_are_not_padded_with_random_ones(self):
        """Algorithm 1 seeds the queue with the captured kernel state(s)
        only; random vectors are a fallback for when there is no host.
        Regression: an extra random seed used to be appended even when
        captured seeds were provided."""
        unit = parse(BRANCHY)
        seeds = get_kernel_seed(unit, "host", "classify", [5])
        report = fuzz_kernel(
            unit, "classify", FuzzConfig(max_execs=len(seeds)), seeds=seeds
        )
        assert report.tests_generated == len(seeds)
        assert report.suite() == seeds

    def test_unseeded_campaign_uses_configured_random_seeds(self):
        unit = parse(BRANCHY)
        report = fuzz_kernel(
            unit, "classify",
            FuzzConfig(max_execs=3, initial_random_seeds=3),
        )
        assert report.tests_generated == 3

    def test_corpus_records_per_entry_coverage_deltas(self):
        """Each kept entry records how many branches *it* newly
        uncovered, so the deltas sum to the campaign's total coverage.
        Regression: the cumulative hit count used to be recorded."""
        unit = parse(BRANCHY)
        report = fuzz_kernel(
            unit, "classify", FuzzConfig(max_execs=2000, plateau_execs=400)
        )
        assert len(report.corpus) >= 2
        deltas = [entry.new_branches for entry in report.corpus]
        assert sum(deltas) == len(report.coverage.hits)
        assert all(0 <= d <= len(report.coverage.hits) for d in deltas)

    def test_crashing_inputs_do_not_kill_campaign(self):
        src = """
        int k(int a[4], int n) {
            return a[n];
        }
        """
        unit = parse(src)
        report = fuzz_kernel(unit, "k", FuzzConfig(max_execs=300, plateau_execs=100))
        assert report.execs > 0  # survived the faults


def _counting_runs(monkeypatch):
    """Record every input that reaches the fuzzer's interpreter."""
    ran = []

    def counting(engine, func_name, arg_sets, **kwargs):
        ran.extend(arg_sets)
        return engine_run_many(engine, func_name, arg_sets, **kwargs)

    monkeypatch.setattr(fuzzer, "engine_run_many", counting)
    return ran


def _report_fields(report):
    return {
        "execs": report.execs,
        "tests_generated": report.tests_generated,
        "fuzz_seconds": report.fuzz_seconds,
        "coverage_ratio": report.coverage_ratio,
        "coverage": sorted(report.coverage.hits),
        "corpus": [
            (e.args, e.new_branches, e.generation) for e in report.corpus
        ],
    }


class TestDistinctInputsRunOnce:
    def test_p1_campaign_runs_each_distinct_input_once(self, monkeypatch):
        subject = get_subject("P1")
        unit = parse(subject.source, top_name=subject.kernel)
        config = default_config()
        seeds = get_kernel_seed(
            unit, subject.host, subject.kernel, list(subject.host_args)
        ) + list(subject.existing_test_list() or [])
        ran = _counting_runs(monkeypatch)
        report = fuzz_kernel(
            unit, subject.kernel, config.fuzz, seeds=seeds,
            limits=config.limits,
        )
        assert len(ran) == len({canonical_value(args) for args in ran})
        assert len(ran) == 96
        # The campaign itself is the one that ran every input.
        assert report.execs == 401
        assert report.tests_generated == 401
        assert report.fuzz_seconds == pytest.approx(20.05)
        assert report.coverage_ratio == 1.0
        assert len(report.corpus) == 1

    def test_skipping_repeats_matches_running_every_input(self, monkeypatch):
        unit = parse(BRANCHY)
        config = FuzzConfig(max_execs=600, plateau_execs=200, seed=5)
        ran = _counting_runs(monkeypatch)
        deduplicated = _report_fields(fuzz_kernel(unit, "classify", config))
        distinct = len(ran)
        ran.clear()

        # A fresh key per input turns deduplication off.
        monkeypatch.setattr(fuzzer, "canonical_value", lambda _: object())
        every = _report_fields(fuzz_kernel(unit, "classify", config))
        assert deduplicated == every
        assert len(ran) == every["execs"] > distinct


class TestCoverageOfSuite:
    def test_existing_suite_coverage(self):
        unit = parse(BRANCHY)
        weak = [[[1, 2, 3, 4, 5, 6, 7, 8], 8]]
        cov = coverage_of_suite(unit, "classify", weak)
        assert 0 < cov < 1

    def test_empty_suite_zero(self):
        unit = parse(BRANCHY)
        assert coverage_of_suite(unit, "classify", []) == 0.0


class TestCorpus:
    def test_deduplicates(self):
        corpus = Corpus()
        assert corpus.add([1, [2, 3]])
        assert not corpus.add([1, [2, 3]])
        assert len(corpus) == 1

    def test_round_robin_never_exhausts(self):
        corpus = Corpus()
        corpus.add([1])
        corpus.add([2])
        picks = [corpus.next_input().args[0] for _ in range(5)]
        assert picks == [1, 2, 1, 2, 1]

    def test_empty_corpus_next_is_none(self):
        assert Corpus().next_input() is None

    def test_suite_cap(self):
        corpus = Corpus()
        for i in range(10):
            corpus.add([i])
        assert len(corpus.suite(cap=3)) == 3
        assert len(corpus.suite()) == 10


class TestSeedSalvage:
    """A host that crashes *after* invoking the kernel still produced
    valid seeds; the FuzzError carries them for the caller to salvage."""

    def test_crash_after_calls_salvages_captured_prefix(self):
        unit = parse(
            "int k(int y) { return y; }\n"
            "int host(int x) {\n"
            "    int s = k(x) + k(x + 1);\n"
            "    int a[2];\n"
            "    return a[9] + s;\n"
            "}"
        )
        with pytest.raises(FuzzError) as info:
            get_kernel_seed(unit, "host", "k", [1])
        assert info.value.partial_seeds == [[1], [2]]

    def test_crash_before_any_call_salvages_nothing(self):
        unit = parse(
            "int k(int y) { return y; }\n"
            "int host(int x) { int a[2]; int v = a[9]; return k(x); }"
        )
        with pytest.raises(FuzzError) as info:
            get_kernel_seed(unit, "host", "k", [1])
        assert info.value.partial_seeds == []

    def test_partial_seeds_default_empty(self):
        assert FuzzError("boom").partial_seeds == []
