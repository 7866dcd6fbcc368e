"""Per-stage baselines and the ``repro trace check`` gate: a baseline's
``stages`` as the base of the shared stage comparator."""

from __future__ import annotations

import json

import pytest

from repro.hls.clock import ACT_HLS_COMPILE, SimulatedClock
from repro.obs import TraceRecorder
from repro.obs.analyze import diff_traces, load_journal, stage_table
from repro.obs.baseline import (
    BASELINE_VERSION,
    baseline_from_trace,
    load_baseline,
    render_check,
    write_baseline,
)
from repro.obs.export import write_journal


def _trace(tmp_path, name="run.jsonl", compiles=2, compile_seconds=540.0,
           extra_stage=None):
    rec = TraceRecorder()
    clock = SimulatedClock.recording()
    with rec.span("transpile", clock=clock):
        with rec.span("search", clock=clock):
            for _ in range(compiles):
                with rec.span("hls_compile", clock=clock):
                    clock.charge(ACT_HLS_COMPILE, compile_seconds)
        if extra_stage:
            with rec.span(extra_stage, clock=clock):
                clock.charge(ACT_HLS_COMPILE, 1.0)
    path = write_journal(rec, str(tmp_path / name))
    return load_journal(path)


def _violations(trace, baseline, **tolerances):
    """The violations ``repro trace check`` reports for *trace*."""
    return diff_traces(
        baseline["stages"], stage_table(trace),
        tolerances=baseline.get("tolerances"), **tolerances,
    ).regressions


class TestBaselineFile:
    def test_round_trip(self, tmp_path):
        trace = _trace(tmp_path)
        baseline = baseline_from_trace(trace, meta={"journal": "run.jsonl"})
        path = write_baseline(str(tmp_path / "base.json"), baseline)
        loaded = load_baseline(path)
        assert loaded == baseline
        assert loaded["version"] == BASELINE_VERSION
        assert loaded["stages"]["hls_compile"] == {
            "count": 2,
            "sim_s": pytest.approx(1080.0),
            "wall_us": pytest.approx(
                loaded["stages"]["hls_compile"]["wall_us"]
            ),
        }
        assert loaded["meta"]["journal"] == "run.jsonl"

    def test_stages_are_sorted_for_stable_diffs(self, tmp_path):
        baseline = baseline_from_trace(_trace(tmp_path))
        assert list(baseline["stages"]) == sorted(baseline["stages"])

    def test_load_rejects_non_baselines(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"stages": {}}))
        with pytest.raises(ValueError, match="missing version"):
            load_baseline(str(path))
        path.write_text(json.dumps(
            {"version": BASELINE_VERSION + 1, "stages": {}}
        ))
        with pytest.raises(ValueError, match="newer than this reader"):
            load_baseline(str(path))
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(ValueError, match="no stages"):
            load_baseline(str(path))
        path.write_text(json.dumps({"version": 1, "stages": {"a": 5}}))
        with pytest.raises(ValueError, match="stage 'a' needs numeric"):
            load_baseline(str(path))
        path.write_text("[]")
        with pytest.raises(ValueError, match="missing version"):
            load_baseline(str(path))
        path.write_text(json.dumps(
            {"version": 1, "stages": {}, "tolerances": {"a": 5}}
        ))
        with pytest.raises(ValueError, match="tolerances must map"):
            load_baseline(str(path))


class TestCheckTrace:
    def test_identical_run_passes_at_zero_tolerance(self, tmp_path):
        baseline = baseline_from_trace(_trace(tmp_path, "a.jsonl"))
        trace = _trace(tmp_path, "b.jsonl")
        violations = _violations(trace, baseline)
        assert violations == []
        assert "passed" in render_check(violations, "base.json")

    def test_extra_work_violates_count_and_sim(self, tmp_path):
        baseline = baseline_from_trace(_trace(tmp_path, "a.jsonl", compiles=2))
        trace = _trace(tmp_path, "b.jsonl", compiles=3)
        kinds = {(v["stage"], v["kind"])
                 for v in _violations(trace, baseline)}
        assert ("hls_compile", "count") in kinds
        assert ("hls_compile", "sim_seconds") in kinds

    def test_missing_stage_is_a_violation(self, tmp_path):
        baseline = baseline_from_trace(
            _trace(tmp_path, "a.jsonl", extra_stage="final_difftest")
        )
        trace = _trace(tmp_path, "b.jsonl")
        violations = _violations(trace, baseline)
        assert {"stage": "final_difftest", "kind": "missing",
                "base": 1, "new": 0, "limit": 0} in violations

    def test_new_stage_with_sim_cost_is_unbaselined(self, tmp_path):
        baseline = baseline_from_trace(_trace(tmp_path, "a.jsonl"))
        trace = _trace(tmp_path, "b.jsonl", extra_stage="final_difftest")
        kinds = {(v["stage"], v["kind"])
                 for v in _violations(trace, baseline)}
        assert ("final_difftest", "unbaselined") in kinds
        # The extra simulated second also shows up in the root total.
        assert ("transpile", "sim_seconds") in kinds

    def test_new_sim_free_stage_is_unbaselined(self, tmp_path):
        baseline = baseline_from_trace(
            _trace(tmp_path, "a.jsonl", compile_seconds=0.0)
        )
        baseline["stages"].pop("hls_compile")
        trace = _trace(tmp_path, "b.jsonl", compile_seconds=0.0)
        assert stage_table(trace)["hls_compile"]["sim_s"] == 0.0
        kinds = {(v["stage"], v["kind"])
                 for v in _violations(trace, baseline)}
        assert kinds == {("hls_compile", "unbaselined")}

    def test_global_tolerances_absorb_bounded_growth(self, tmp_path):
        baseline = baseline_from_trace(
            _trace(tmp_path, "a.jsonl", compiles=2, compile_seconds=500.0)
        )
        trace = _trace(tmp_path, "b.jsonl", compiles=3, compile_seconds=510.0)
        assert _violations(trace, baseline) != []
        assert _violations(
            trace, baseline, sim_tolerance=0.6, count_tolerance=1
        ) == []

    def test_per_stage_tolerances_override_the_flags(self, tmp_path):
        baseline = baseline_from_trace(_trace(tmp_path, "a.jsonl", compiles=2))
        # The extra compile propagates sim time into every ancestor, so
        # each touched stage gets its own pinned slack.
        baseline["tolerances"] = {
            "hls_compile": {"count": 1, "sim": 1.0},
            "search": {"sim": 1.0},
            "transpile": {"sim": 1.0},
        }
        trace = _trace(tmp_path, "b.jsonl", compiles=3)
        # The pinned per-stage slack wins over the strict defaults...
        assert _violations(trace, baseline) == []
        # ...and applies only to its own stage: dropping one pin
        # reinstates the zero-tolerance default there.
        del baseline["tolerances"]["hls_compile"]
        kinds = {(v["stage"], v["kind"])
                 for v in _violations(trace, baseline)}
        assert ("hls_compile", "count") in kinds
        assert ("search", "sim_seconds") not in kinds

    def test_wall_gated_only_with_a_tolerance(self, tmp_path):
        baseline = baseline_from_trace(_trace(tmp_path, "a.jsonl"))
        trace = _trace(tmp_path, "b.jsonl")
        assert _violations(trace, baseline) == []
        violations = _violations(trace, baseline, wall_tolerance=-0.999999)
        assert violations and all(v["kind"] == "wall" for v in violations)

    def test_render_check_names_the_regeneration_command(self, tmp_path):
        baseline = baseline_from_trace(_trace(tmp_path, "a.jsonl"))
        trace = _trace(tmp_path, "b.jsonl", compiles=3)
        text = render_check(_violations(trace, baseline), "base.json")
        assert "FAILED" in text
        assert "--update" in text
