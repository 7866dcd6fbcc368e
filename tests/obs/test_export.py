"""Exporters: journal order, Chrome trace, metrics snapshot, manifest,
path conventions.  Reading a journal back is the analyzer's job
(``test_analyze.py::TestLoadJournal``)."""

from __future__ import annotations

import json

import pytest

from repro.hls.clock import ACT_STYLE_CHECK, SimulatedClock
from repro.obs import TraceRecorder
from repro.obs.export import (
    chrome_trace,
    journal_lines,
    run_manifest,
    trace_paths,
    write_chrome_trace,
    write_journal,
    write_manifest,
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
    rec = _traced_run()
    doc = chrome_trace(rec)
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in complete} == {
        "transpile", "fuzz", "search", "search.evaluate"
    }
    assert [e["name"] for e in instants] == ["cache_hit"]
    assert meta and all(e["name"] == "thread_name" for e in meta)
    fuzz = next(e for e in complete if e["name"] == "fuzz")
    assert fuzz["args"]["sim_dur_s"] == 20.0

    path = write_chrome_trace(rec, str(tmp_path / "run.trace.json"))
    with open(path) as handle:
        assert json.load(handle) == doc


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

    path = write_manifest(str(tmp_path / "run.manifest.json"),
                          command=["x"], subject="P3")
    with open(path) as handle:
        assert json.load(handle)["subject"] == "P3"


def test_trace_paths_conventions():
    assert trace_paths("out/run.trace.json") == {
        "trace": "out/run.trace.json",
        "journal": "out/run.trace.jsonl",
        "manifest": "out/run.trace.manifest.json",
    }
    assert trace_paths("plain") == {
        "trace": "plain",
        "journal": "plain.jsonl",
        "manifest": "plain.manifest.json",
    }
    # A journal-suffixed path would put the Chrome trace under the
    # journal's name and the journal under ``run.jsonl.jsonl``.
    with pytest.raises(ValueError, match=r"run\.json and the journal"):
        trace_paths("out/run.jsonl")


def test_exporters_create_parent_directories(tmp_path):
    rec = _traced_run()
    nested = tmp_path / "a" / "b" / "run.jsonl"
    write_journal(rec, str(nested))
    assert nested.exists()
