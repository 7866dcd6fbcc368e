"""End-to-end guarantees of the incremental-evaluation layer.

The contract: with incremental caches on (or in cross-check mode), every
observable of a transpile run — diagnostics, diff reports, fitness,
search history, and the simulated-clock charge journal — is bit-identical
to a run with ``REPRO_INCREMENTAL=0``.  Caches may only change wall-clock
time, never results.

The full ten-subject sweep is expensive; tier-1 runs two subjects and the
rest carry the ``crosscheck_full`` marker, deselected by default (the CI
`incremental` job selects it with ``-m``).
"""

from __future__ import annotations

import contextlib
import itertools
import os
import subprocess
import sys

import pytest

import repro
from repro.baselines.variants import default_config, make_heterogen
from repro.cfront import nodes as N
from repro.cfront import parse
from repro.cfront import fingerprint
from repro.cfront.fingerprint import FP_TABLE_ATTR, forced_mode, incremental_mode
from repro.cfront.printer import render
from repro.core.edits.base import Candidate
from repro.core.evalcache import cached_candidate_key, candidate_key
from repro.hls.clock import SimulatedClock
from repro.hls.compiler import compile_unit
from repro.hls.memo import analysis_cache_stats, clear_analysis_caches
from repro.hls.platform import SolutionConfig
from repro.hls.schedule import _COST_MEMO, Scheduler, estimate
from repro.hls.stylecheck import check_style
from repro.obs import SPAN_TRANSPILE, TraceRecorder, scoped_recorder
from repro.subjects import all_subjects, get_subject

#: Two structurally different subjects keep the tier-1 cross-check cheap;
#: the ``crosscheck_full`` sweep covers all ten.
QUICK_SUBJECTS = ("P1", "P3")


def _quick_config():
    return default_config(
        budget_seconds=2400.0,
        max_iterations=60,
        fuzz_execs=200,
    )


def _observables(subject, mode, recorder=None):
    """One full transpile under *mode*, reduced to comparable values.

    Every pass starts from identical global state: the uid counter is
    reset so both passes parse into identical trees (uids appear in
    diagnostics), and the analysis memos are cleared so the incremental
    pass cannot coast on entries from an earlier test.  Passing a
    *recorder* runs the whole pipeline traced — which by contract must
    not change a single observable.
    """
    N._uid_counter = itertools.count(1)
    clear_analysis_caches()
    clock = SimulatedClock.recording()
    config = _quick_config()
    tracing = (
        scoped_recorder(recorder) if recorder is not None
        else contextlib.nullcontext()
    )
    with forced_mode(mode), tracing:
        result = make_heterogen(config).transpile(
            subject.source,
            kernel_name=subject.kernel,
            solution=subject.solution,
            host_name=subject.host,
            host_args=list(subject.host_args),
            tests=subject.existing_test_list() or None,
            subject_name=subject.id,
            clock=clock,
        )
    best = result.search_result.best
    return {
        "clock_seconds": clock.seconds,
        "clock_by_activity": dict(clock.by_activity),
        "clock_counts": dict(clock.counts),
        "clock_events": list(clock.events or []),
        "history": list(result.search_result.history),
        "fitness": best.fitness if best is not None else None,
        "applied": best.candidate.applied if best is not None else None,
        "final_diff": result.final_diff,
        "final_unit": (
            render(result.final_unit) if result.final_unit is not None else None
        ),
        "success_seconds": result.search_result.success_seconds,
    }


def _assert_identical(subject_id):
    subject = get_subject(subject_id)
    baseline = _observables(subject, "off")
    # "cross" additionally recomputes on every verified cache hit and
    # raises IncrementalMismatch on divergence, so one pass both exercises
    # the incremental path and self-checks its memo contents.
    incremental = _observables(subject, "cross")
    for field in baseline:
        assert incremental[field] == baseline[field], (
            f"{subject_id}: incremental run diverged on {field!r}"
        )


@pytest.mark.parametrize("subject_id", QUICK_SUBJECTS)
def test_incremental_pipeline_bit_identical_quick(subject_id):
    _assert_identical(subject_id)


@pytest.mark.crosscheck_full
@pytest.mark.parametrize(
    "subject_id",
    [s.id for s in all_subjects() if s.id not in QUICK_SUBJECTS],
)
def test_incremental_pipeline_bit_identical_full(subject_id):
    _assert_identical(subject_id)
    # Each of these subjects co-simulates candidates that differ only in
    # pragmas, so the cross-checked run verified memoized outcomes.
    assert analysis_cache_stats()["simulate.outcomes"]["hits"] > 0


def _assert_tracing_identical(subject_id):
    """The observability contract: a fully-traced run is bit-identical to
    the untraced run on every observable, including the simulated-clock
    charge journal.
    Spans only *read* the clock; wall-clock timestamps never feed back
    into candidate keys or charges."""
    subject = get_subject(subject_id)
    baseline = _observables(subject, "on")
    serial_rec = TraceRecorder()
    serial = _observables(subject, "on", recorder=serial_rec)
    for field in baseline:
        assert serial[field] == baseline[field], (
            f"{subject_id}: traced run diverged on {field!r}"
        )
    # The trace itself must be substantive, not vacuously empty.
    names = {s.name for s in serial_rec.spans()}
    assert SPAN_TRANSPILE in names
    assert "search.evaluate" in names
    by_id = {s.sid: s for s in serial_rec.spans()}
    in_evaluate = [s for s in by_id.values() if s.name == "hls_compile"
                   and by_id[s.parent].name == "search.evaluate"]
    assert in_evaluate, "no toolchain span recorded under search.evaluate"


@pytest.mark.parametrize("subject_id", QUICK_SUBJECTS)
def test_tracing_bit_identical_quick(subject_id):
    _assert_tracing_identical(subject_id)


@pytest.mark.crosscheck_full
@pytest.mark.parametrize(
    "subject_id",
    [s.id for s in all_subjects() if s.id not in QUICK_SUBJECTS],
)
def test_tracing_bit_identical_full(subject_id):
    _assert_tracing_identical(subject_id)


# ---------------------------------------------------------------------------
# Charges are never memoized
# ---------------------------------------------------------------------------

KERNEL_SRC = """
int scale = 2;

int helper(int x) {
    return x * scale;
}

int kernel(int data[16], int n) {
    int acc = 0;
    for (int i = 0; i < n; i += 1) {
        acc += helper(data[i]);
    }
    return acc;
}
"""


def _charges(fn):
    clock = SimulatedClock.recording()
    fn(clock)
    return (clock.seconds, dict(clock.by_activity), dict(clock.counts),
            list(clock.events))


def test_style_and_compile_charges_identical_on_cache_hit():
    """Cold-cache and warm-cache runs must charge the simulated clock
    identically — memos hold pure computation, never charges."""
    unit = parse(KERNEL_SRC, top_name="kernel")
    config = SolutionConfig(top_name="kernel")
    with forced_mode("on"):
        clear_analysis_caches()
        cold_style = _charges(lambda c: check_style(unit, clock=c))
        warm_style = _charges(lambda c: check_style(unit, clock=c))
        cold_compile = _charges(lambda c: compile_unit(unit, config, clock=c))
        warm_compile = _charges(lambda c: compile_unit(unit, config, clock=c))
    assert warm_style == cold_style
    assert warm_compile == cold_compile
    assert cold_compile[0] > 0  # the compile charge itself was issued live
    with forced_mode("off"):
        off_style = _charges(lambda c: check_style(unit, clock=c))
        off_compile = _charges(lambda c: compile_unit(unit, config, clock=c))
    assert off_style == cold_style
    assert off_compile == cold_compile


def test_compile_reports_identical_across_modes():
    source = KERNEL_SRC.replace("int data[16]", "int *data")  # provoke diags
    config = SolutionConfig(top_name="kernel")
    N._uid_counter = itertools.count(1)
    off_unit = parse(source, top_name="kernel")
    with forced_mode("off"):
        off_report = compile_unit(off_unit, config)
    N._uid_counter = itertools.count(1)
    on_unit = parse(source, top_name="kernel")
    with forced_mode("cross"):
        clear_analysis_caches()
        first = compile_unit(on_unit, config)
        second = compile_unit(on_unit, config)  # warm: every memo hits
    assert [d for d in first.diagnostics] == [d for d in off_report.diagnostics]
    assert [d for d in second.diagnostics] == [d for d in off_report.diagnostics]
    assert first.compile_seconds == off_report.compile_seconds


# ---------------------------------------------------------------------------
# Schedule memo
# ---------------------------------------------------------------------------


def test_estimate_memo_hits_return_fresh_equal_reports():
    config = SolutionConfig(top_name="kernel")
    with forced_mode("on"):
        clear_analysis_caches()
        unit_a = parse(KERNEL_SRC, top_name="kernel")
        first = estimate(unit_a, config)
        # A *separate parse* of the same source hits via the structural
        # fingerprint even though every uid differs.
        unit_b = parse(KERNEL_SRC, top_name="kernel")
        second = estimate(unit_b, config)
        assert second == first
        assert second is not first
        assert second.resources is not first.resources
        # Callers mutate report.resources; the memo must be isolated.
        second.resources.luts += 10**6
        third = estimate(parse(KERNEL_SRC, top_name="kernel"), config)
        assert third == first
    with forced_mode("off"):
        legacy = estimate(parse(KERNEL_SRC, top_name="kernel"), config)
    assert legacy == first


def test_estimate_distinguishes_clock_period():
    with forced_mode("on"):
        clear_analysis_caches()
        fast = estimate(
            parse(KERNEL_SRC, top_name="kernel"),
            SolutionConfig(top_name="kernel", clock_period_ns=3.33),
        )
        slow = estimate(
            parse(KERNEL_SRC, top_name="kernel"),
            SolutionConfig(top_name="kernel", clock_period_ns=10.0),
        )
    assert fast.clock_period_ns != slow.clock_period_ns


def test_cross_mode_rechecks_function_cost_hits():
    """A wrong ``schedule.function_cost`` entry is caught by the memo's
    own cross-check, not only by the report-level ``estimate`` memo:
    the scheduler is driven directly, so no report memo sits in front."""
    subject = get_subject("P3")
    unit = subject.parse()
    with forced_mode("cross"):
        clear_analysis_caches()
        Scheduler(unit, subject.solution).schedule()
        assert len(_COST_MEMO) > 0
        key = next(iter(_COST_MEMO._entries))
        cycles, resources = _COST_MEMO._entries[key]
        _COST_MEMO._entries[key] = (cycles + 1.0, resources)
        try:
            with pytest.raises(fingerprint.IncrementalMismatch):
                Scheduler(unit, subject.solution).schedule()
        finally:
            clear_analysis_caches()  # later tests must not meet the bad entry


# ---------------------------------------------------------------------------
# Candidate cache keys (S2) and the evaluation key contract
# ---------------------------------------------------------------------------


def test_cached_candidate_key_memoizes_per_context():
    unit = parse(KERNEL_SRC, top_name="kernel")
    candidate = Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
    with forced_mode("on"):
        key = cached_candidate_key(candidate, "ctx-a")
        assert candidate.__dict__["_cache_key"] == ("ctx-a", key)
        assert cached_candidate_key(candidate, "ctx-a") == key
        # A different context must not reuse the stashed key.
        other = cached_candidate_key(candidate, "ctx-b")
        assert other != key
        assert cached_candidate_key(candidate, "ctx-b") == other


def test_candidate_key_modes_agree_on_distinctions():
    """The key is one scheme in every mode: equal under ``on`` and
    ``off``, and it distinguishes edits and solution knobs."""
    config = SolutionConfig(top_name="kernel")
    variant = KERNEL_SRC.replace("x * scale", "x + scale")
    keys = {}
    for mode in ("on", "off"):
        with forced_mode(mode):
            base = candidate_key(parse(KERNEL_SRC, top_name="kernel"), config)
            same = candidate_key(parse(KERNEL_SRC, top_name="kernel"), config)
            edited = candidate_key(parse(variant, top_name="kernel"), config)
            retuned = candidate_key(
                parse(KERNEL_SRC, top_name="kernel"),
                SolutionConfig(top_name="kernel", clock_period_ns=7.0),
            )
        assert same == base, mode
        assert edited != base, mode
        assert retuned != base, mode
        keys[mode] = (base, edited, retuned)
    assert keys["on"] == keys["off"]


# ---------------------------------------------------------------------------
# One memo gate: every unit is memoized when the mode is on, none when off
# ---------------------------------------------------------------------------


def _run_stages(unit):
    config = SolutionConfig(top_name="kernel")
    return (
        check_style(unit),
        compile_unit(unit, config).diagnostics,
        estimate(unit, config),
    )


def _fresh_parse(source):
    """Parse into the same uids every time, so diagnostics (which carry
    node uids) compare equal."""
    N._uid_counter = itertools.count(1)
    return parse(source, top_name="kernel")


def test_two_function_unit_reparsed_hits_the_memos():
    assert len(list(parse(KERNEL_SRC).functions())) == 2
    with forced_mode("on"):
        clear_analysis_caches()
        first = _run_stages(_fresh_parse(KERNEL_SRC))
        second = _run_stages(_fresh_parse(KERNEL_SRC))
        stats = analysis_cache_stats()
    assert second == first
    assert stats["schedule.function_cost"]["hits"] > 0


def test_off_mode_builds_no_memo_key_and_touches_no_cache():
    with forced_mode("on"):
        clear_analysis_caches()
        on = _run_stages(_fresh_parse(KERNEL_SRC))
    clear_analysis_caches()
    unit = _fresh_parse(KERNEL_SRC)
    with forced_mode("off"):
        off = _run_stages(unit)
        off_again = _run_stages(unit)
    assert off == on == off_again
    # Every memo key embeds a fingerprint; none was computed.
    assert FP_TABLE_ATTR not in unit.__dict__
    for name, counts in analysis_cache_stats().items():
        assert counts == {"hits": 0, "misses": 0, "entries": 0}, name


# ---------------------------------------------------------------------------
# Mode plumbing
# ---------------------------------------------------------------------------


def test_forced_mode_restores_previous_mode():
    before = incremental_mode()
    with forced_mode("off"):
        assert incremental_mode() == "off"
        with forced_mode("cross"):
            assert incremental_mode() == "cross"
        assert incremental_mode() == "off"
    assert incremental_mode() == before


@pytest.mark.parametrize("raw, mode", [
    (None, "on"), ("", "on"), ("1", "on"), ("On", "on"), ("yes", "on"),
    ("0", "off"), (" off ", "off"), ("false", "off"), ("cross", "cross"),
])
def test_incremental_env_values(monkeypatch, raw, mode):
    if raw is None:
        monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)
    else:
        monkeypatch.setenv("REPRO_INCREMENTAL", raw)
    assert fingerprint._mode_from_env() == mode


@pytest.mark.parametrize("raw", ["crosss", "2", "incremental"])
def test_unrecognised_incremental_env_value_raises(monkeypatch, raw):
    monkeypatch.setenv("REPRO_INCREMENTAL", raw)
    with pytest.raises(ValueError, match="REPRO_INCREMENTAL") as info:
        fingerprint._mode_from_env()
    assert "'cross'" in str(info.value)


def test_unrecognised_incremental_env_value_fails_at_import():
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, REPRO_INCREMENTAL="crosss", PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.cfront.fingerprint"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode != 0
    assert "unknown REPRO_INCREMENTAL value 'crosss'" in proc.stderr
