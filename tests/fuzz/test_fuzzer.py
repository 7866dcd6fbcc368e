"""Fuzzer tests: Algorithm 1's loop, seeds, plateau, and corpus."""

import pytest

from repro.errors import FuzzError
from repro.cfront import nodes as N
from repro.cfront import parse
from repro.cfront.visitor import find_all
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
from repro.interp import branch_universe, engine_run_many
from repro.memo import canonical_value
from repro.obs import TraceRecorder, scoped_recorder
from repro.subjects import all_subjects, generated_subjects, get_subject

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


def _no_universe(monkeypatch):
    """Defeat saturation: the campaign runs every distinct input."""
    monkeypatch.setattr(fuzzer, "branch_universe", lambda unit, kernel: None)


def _subject_seeds(subject, unit):
    """The seeds the pipeline fuzzes from: captured, then shipped tests."""
    try:
        captured = get_kernel_seed(
            unit, subject.host, subject.kernel, list(subject.host_args)
        )
    except FuzzError as exc:
        captured = exc.partial_seeds
    return captured + list(subject.existing_test_list() or [])


def _p1_campaign():
    subject = get_subject("P1")
    unit = parse(subject.source, top_name=subject.kernel)
    config = default_config()
    return fuzz_kernel(
        unit, subject.kernel, config.fuzz,
        seeds=_subject_seeds(subject, unit), limits=config.limits,
    )


class TestDistinctInputsRunOnce:
    def test_p1_campaign_runs_each_distinct_input_once(self, monkeypatch):
        # P1's kernel has no branch, so its universe is empty: the
        # campaign is saturated before the first input and runs none.
        ran = _counting_runs(monkeypatch)
        saturated = _p1_campaign()
        assert ran == []
        # With saturation defeated it runs each distinct input once.
        _no_universe(monkeypatch)
        report = _p1_campaign()
        assert len(ran) == len({canonical_value(args) for args in ran})
        assert len(ran) == 96
        assert _report_fields(saturated) == _report_fields(report)
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

        # A fresh key per input turns deduplication off, and no universe
        # turns saturation off.
        monkeypatch.setattr(fuzzer, "canonical_value", lambda _: object())
        _no_universe(monkeypatch)
        every = _report_fields(fuzz_kernel(unit, "classify", config))
        assert deduplicated == every
        assert len(ran) == every["execs"] > distinct


def _saturation_on_and_off(monkeypatch, run):
    """Report fields and interpreter inputs of *run* with saturation on,
    then off."""
    ran = _counting_runs(monkeypatch)
    on = _report_fields(run())
    ran_on = list(ran)
    ran.clear()
    with monkeypatch.context() as patch:
        _no_universe(patch)
        off = _report_fields(run())
    return on, off, ran_on, list(ran)


SUBJECT_IDS = [s.id for s in all_subjects()]
GENERATED = {g.name: g for g in generated_subjects()}


class TestSaturation:
    """Once coverage equals the kernel's branch universe the campaign
    stops running inputs, and its report is unchanged."""

    @staticmethod
    def _assert_default_campaign_unchanged(monkeypatch, unit, kernel, seeds):
        config = default_config()
        on, off, ran_on, ran_off = _saturation_on_and_off(
            monkeypatch,
            lambda: fuzz_kernel(
                unit, kernel, config.fuzz, seeds=seeds or None,
                limits=config.limits,
            ),
        )
        assert on == off
        # Saturation only cuts the tail of the inputs run.
        assert ran_on == ran_off[:len(ran_on)]

    @pytest.mark.parametrize("subject_id", SUBJECT_IDS)
    def test_subject_reports_equal_with_saturation_off(
        self, monkeypatch, subject_id
    ):
        subject = get_subject(subject_id)
        unit = subject.parse()
        self._assert_default_campaign_unchanged(
            monkeypatch, unit, subject.kernel, _subject_seeds(subject, unit)
        )

    @pytest.mark.parametrize("name", sorted(GENERATED))
    def test_generated_reports_equal_with_saturation_off(
        self, monkeypatch, name
    ):
        program = GENERATED[name]
        self._assert_default_campaign_unchanged(
            monkeypatch, parse(program.source, top_name=program.kernel),
            program.kernel, [list(t) for t in program.tests],
        )

    def test_saturated_campaign_stops_running_inputs(self, monkeypatch):
        unit = parse(BRANCHY)
        config = FuzzConfig(max_execs=600, plateau_execs=200, seed=5)
        on, off, ran_on, ran_off = _saturation_on_and_off(
            monkeypatch, lambda: fuzz_kernel(unit, "classify", config)
        )
        assert on == off
        assert on["coverage"] == sorted(branch_universe(unit, "classify"))
        assert 0 < len(ran_on) < len(ran_off)

    def test_global_initializer_ternary_is_in_the_universe(self, monkeypatch):
        # A global initializer runs on every input, so its `?:` records
        # a hit each run.  The same outcome every time: the campaign
        # can never cover the other one, and runs as without a universe.
        unit = parse(
            "int bias = 2 > 1 ? 1 : -1;\n"
            "int k(int x) { if (x > bias) { return 1; } return 0; }\n"
        )
        cond = find_all(unit.decls[0], N.Cond)[0]
        universe = branch_universe(unit, "k")
        assert {(cond.uid, True), (cond.uid, False)} <= universe
        config = FuzzConfig(max_execs=300, plateau_execs=100)
        on, off, ran_on, ran_off = _saturation_on_and_off(
            monkeypatch, lambda: fuzz_kernel(unit, "k", config)
        )
        assert on == off
        assert (cond.uid, True) in set(on["coverage"])
        assert ran_on == ran_off

    def test_initializer_callee_ternary_saturates(self, monkeypatch):
        # `sign` is reached only from a global initializer, which takes
        # both arms of its `?:` on every run.
        unit = parse(
            "int sign(int v) { return v < 0 ? -1 : 1; }\n"
            "int bias = sign(-3) + sign(3);\n"
            "int k(int x) { if (x > bias) { return 1; } return 0; }\n"
        )
        cond = find_all(unit.function("sign"), N.Cond)[0]
        universe = branch_universe(unit, "k")
        assert len(universe) == 4
        assert (cond.uid, False) in universe
        config = FuzzConfig(max_execs=300, plateau_execs=100)
        on, off, ran_on, ran_off = _saturation_on_and_off(
            monkeypatch, lambda: fuzz_kernel(unit, "k", config)
        )
        assert on == off
        assert on["coverage"] == sorted(universe)
        assert len(ran_on) < len(ran_off)

    def test_literal_condition_kernel_saturates(self, monkeypatch):
        # `while (1)` can never record its false outcome, so a universe
        # holding it would keep the campaign running to the plateau.
        unit = parse(
            "int k(int x) {\n"
            "    int n = 0;\n"
            "    while (1) {\n"
            "        if (n >= x) { break; }\n"
            "        n++;\n"
            "        if (n > 20) { break; }\n"
            "    }\n"
            "    return n;\n"
            "}\n"
        )
        loop = find_all(unit, N.While)[0]
        universe = branch_universe(unit, "k")
        assert (loop.uid, False) not in universe
        assert len(universe) == 5
        config = FuzzConfig(max_execs=300, plateau_execs=100)
        on, off, ran_on, ran_off = _saturation_on_and_off(
            monkeypatch, lambda: fuzz_kernel(unit, "k", config)
        )
        assert on == off
        assert on["coverage"] == sorted(universe)
        assert len(ran_on) < len(ran_off)

    def test_p5_campaign_saturates(self):
        # P5's `tree_insert` loops on `while (1)`.
        subject = get_subject("P5")
        unit = subject.parse()
        config = default_config()
        with scoped_recorder(TraceRecorder()) as rec:
            report = fuzz_kernel(
                unit, subject.kernel, config.fuzz,
                seeds=_subject_seeds(subject, unit), limits=config.limits,
            )
        gauges = rec.metrics.snapshot()["gauges"]
        saturated_at = gauges["fuzz.saturated_at{kernel=graph_kernel}"]
        assert 0 < saturated_at < report.execs
        assert report.coverage.hits == branch_universe(unit, subject.kernel)

    def test_saturated_campaign_draws_no_mutants(self, monkeypatch):
        subject = get_subject("P5")
        unit = subject.parse()
        seeds = _subject_seeds(subject, unit)
        config = default_config()
        drawn = []
        mutate = fuzzer.Mutator.mutate

        def counting_mutate(self, args, count):
            mutants = mutate(self, args, count)
            drawn.append(len(mutants))
            return mutants

        monkeypatch.setattr(fuzzer.Mutator, "mutate", counting_mutate)

        def campaign():
            drawn.clear()
            with scoped_recorder(TraceRecorder()) as rec:
                report = fuzz_kernel(
                    unit, subject.kernel, config.fuzz, seeds=seeds,
                    limits=config.limits,
                )
            return report, rec.metrics.snapshot(), list(drawn)

        report, metrics, drawn_on = campaign()
        with monkeypatch.context() as patch:
            _no_universe(patch)
            every, metrics_off, drawn_off = campaign()

        # Mutants are drawn only up to the generation that saturated.
        saturated_at = metrics["gauges"].pop(
            "fuzz.saturated_at{kernel=graph_kernel}"
        )
        mutants_per_generation = config.fuzz.mutations_per_input
        built = len(seeds) + sum(drawn_on)
        assert saturated_at <= built < saturated_at + mutants_per_generation
        assert sum(drawn_on) < sum(drawn_off)
        # Everything the campaign reports is as if it had run every input.
        assert _report_fields(report) == _report_fields(every)
        assert metrics["counters"]["fuzz.execs"] == report.execs
        for kind in ("counters", "gauges", "histograms"):
            fuzz_on = {k: v for k, v in metrics[kind].items()
                       if k.startswith("fuzz.")}
            fuzz_off = {k: v for k, v in metrics_off[kind].items()
                        if k.startswith("fuzz.")}
            assert fuzz_on == fuzz_off, kind

    def test_member_call_kernel_never_short_circuits(self, monkeypatch):
        unit = parse(
            "struct Acc {\n"
            "    int total;\n"
            "    int add(int v) {\n"
            "        if (v > 0) { this->total += v; }\n"
            "        return this->total;\n"
            "    }\n"
            "};\n"
            "int k(int x) { struct Acc a; a.total = 0; return a.add(x); }\n"
        )
        assert branch_universe(unit, "k") is None
        config = FuzzConfig(max_execs=300, plateau_execs=100)
        on, off, ran_on, ran_off = _saturation_on_and_off(
            monkeypatch, lambda: fuzz_kernel(unit, "k", config)
        )
        assert on == off
        assert len(on["coverage"]) == 2
        assert ran_on == ran_off

    def test_unreachable_branch_never_saturates(self, monkeypatch):
        unit = parse(
            "int k(int x) {\n"
            "    if (x > 0) { if (x < 0) { return 2; } return 1; }\n"
            "    return 0;\n"
            "}\n"
        )
        config = FuzzConfig(max_execs=300, plateau_execs=100)
        on, off, ran_on, ran_off = _saturation_on_and_off(
            monkeypatch, lambda: fuzz_kernel(unit, "k", config)
        )
        assert on == off
        assert len(on["coverage"]) == 3 < len(branch_universe(unit, "k"))
        assert ran_on == ran_off

    def test_shrunk_universe_raises(self, monkeypatch):
        unit = parse(BRANCHY)
        dropped = max(branch_universe(unit, "classify"))
        monkeypatch.setattr(
            fuzzer, "branch_universe",
            lambda u, kernel: branch_universe(u, kernel) - {dropped},
        )
        with pytest.raises(FuzzError, match=rf"'classify'.* {dropped[0]},"):
            fuzz_kernel(unit, "classify", FuzzConfig(max_execs=300))

    def test_saturation_index_is_a_traced_gauge(self):
        unit = parse(BRANCHY)
        config = FuzzConfig(max_execs=600, plateau_execs=200, seed=5)
        with scoped_recorder(TraceRecorder()) as rec:
            report = fuzz_kernel(unit, "classify", config)
        gauges = rec.metrics.snapshot()["gauges"]
        saturated_at = gauges["fuzz.saturated_at{kernel=classify}"]
        assert 0 < saturated_at < report.execs
        # A kernel that never saturates records no index.  Here the
        # false arm divides by zero, and a faulting run's coverage is
        # never merged.
        with scoped_recorder(TraceRecorder()) as rec:
            fuzz_kernel(parse("int k(int x) { return x ? 1 : 1 / 0; }"), "k",
                        FuzzConfig(max_execs=50))
        assert not any(
            name.startswith("fuzz.saturated_at")
            for name in rec.metrics.snapshot()["gauges"]
        )


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
