"""Exporters: journal order, the manifest in the journal header, the
Chrome trace derived from a journal, the metrics snapshot.  Reading a
journal back is the analyzer's job (``test_analyze.py::TestLoadJournal``)."""

from __future__ import annotations

import json

from repro.hls.clock import ACT_STYLE_CHECK, SimulatedClock
from repro.obs import TraceRecorder
from repro.obs.analyze import chrome_trace, load_journal
from repro.obs.export import (
    journal_lines,
    run_manifest,
    write_journal,
    write_metrics,
)


def _traced_run():
    """A small but structurally complete trace: nesting, clock, event,
    metrics — enough to exercise every export path."""
    rec = TraceRecorder()
    clock = SimulatedClock.recording()
    with rec.span("transpile", kernel="k"):
        with rec.span("fuzz", clock=clock):
            clock.charge(ACT_STYLE_CHECK, 20.0)
        with rec.span("search", clock=clock):
            with rec.span("search.evaluate", edit="type_trans"):
                rec.event("cache_hit", tier="memory")
        rec.metrics.inc("edit.attempts", edit="type_trans", family="types")
        rec.metrics.observe("hls.compile.sim_seconds", 37.0)
        rec.metrics.set_gauge("fuzz.coverage_ratio", 0.75, kernel="k")
    return rec


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


def test_journal_body_is_sorted_by_start_time():
    rec = _traced_run()
    body = journal_lines(rec)[1:]
    keys = [(obj["ts_us"], obj["id"]) for obj in body]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Chrome trace
# ---------------------------------------------------------------------------


def test_chrome_trace_shape(tmp_path):
    path = write_journal(_traced_run(), str(tmp_path / "run.trace.jsonl"))
    doc = chrome_trace(load_journal(path))
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(complete) + len(instants) == len(events)
    assert {e["name"] for e in complete} == {
        "transpile", "fuzz", "search", "search.evaluate"
    }
    assert [e["name"] for e in instants] == ["cache_hit"]
    fuzz = next(e for e in complete if e["name"] == "fuzz")
    assert fuzz["args"]["sim_dur_s"] == 20.0
    # Derived from the journal alone: one journal, one document.
    assert chrome_trace(load_journal(path)) == doc


# ---------------------------------------------------------------------------
# Metrics + manifest
# ---------------------------------------------------------------------------


def test_write_metrics_snapshot(tmp_path):
    rec = _traced_run()
    path = write_metrics(rec, str(tmp_path / "m.json"),
                         extra={"subject": "P1"})
    with open(path) as handle:
        payload = json.load(handle)
    assert payload["counters"] == {
        "edit.attempts{edit=type_trans,family=types}": 1.0
    }
    assert payload["gauges"] == {"fuzz.coverage_ratio{kernel=k}": 0.75}
    assert payload["histograms"]["hls.compile.sim_seconds"]["count"] == 1
    assert payload["summary"] == {"subject": "P1"}


def test_run_manifest_identity_fields(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_INTERP_BACKEND", "tree")
    manifest = run_manifest(
        command=["subjects", "--run", "P1"],
        config={"seed": 2022},
        subject="P1",
    )
    assert manifest["subject"] == "P1"
    assert manifest["command"] == ["subjects", "--run", "P1"]
    assert manifest["config"] == {"seed": 2022}
    assert manifest["toolchain_salt"]
    assert manifest["env"]["REPRO_INTERP_BACKEND"] == "tree"

    path = write_journal(_traced_run(), str(tmp_path / "run.jsonl"),
                         manifest=run_manifest(command=["x"], subject="P3"))
    assert load_journal(path).header["manifest"]["subject"] == "P3"


def test_exporters_create_parent_directories(tmp_path):
    rec = _traced_run()
    nested = tmp_path / "a" / "b" / "run.jsonl"
    write_journal(rec, str(nested))
    assert nested.exists()
