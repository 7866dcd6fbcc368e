"""Exporters: journal round-trip, span-tree validation, Chrome trace,
metrics snapshot, manifest, path conventions."""

from __future__ import annotations

import json

import pytest

from repro.hls.clock import ACT_STYLE_CHECK, SimulatedClock
from repro.obs import TraceRecorder
from repro.obs.export import (
    build_span_tree,
    chrome_trace,
    journal_lines,
    read_journal,
    run_manifest,
    trace_paths,
    write_chrome_trace,
    write_journal,
    write_manifest,
    write_metrics,
)
from repro.obs.schema import validate_journal, validate_record


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
# Journal round-trip
# ---------------------------------------------------------------------------


def test_journal_round_trip_preserves_the_span_tree(tmp_path):
    rec = _traced_run()
    path = write_journal(rec, str(tmp_path / "run.jsonl"))

    assert validate_journal(path) == []
    records = read_journal(path)
    header, body = records[0], records[1:]
    assert header["type"] == "header"
    assert header["records"] == len(body)
    assert header["dropped"] == 0
    for obj in records:
        assert validate_record(obj) == []

    spans, children = build_span_tree(body)
    by_name = {obj["name"]: obj for obj in spans.values()}
    root = by_name["transpile"]
    assert root["parent"] == 0
    assert by_name["fuzz"]["parent"] == root["id"]
    assert by_name["search"]["parent"] == root["id"]
    assert by_name["search.evaluate"]["parent"] == by_name["search"]["id"]
    assert sorted(children[root["id"]]) == sorted(
        [by_name["fuzz"]["id"], by_name["search"]["id"]]
    )
    for obj in spans.values():
        assert obj["dur_us"] >= 0.0
    assert by_name["fuzz"]["sim_dur_s"] == 20.0
    event = next(obj for obj in body if obj["type"] == "event")
    assert event["name"] == "cache_hit"
    assert event["parent"] == by_name["search.evaluate"]["id"]


def test_journal_body_is_sorted_by_start_time():
    rec = _traced_run()
    body = journal_lines(rec)[1:]
    keys = [(obj["ts_us"], obj["id"]) for obj in body]
    assert keys == sorted(keys)


def test_build_span_tree_rejects_malformed_forests():
    import pytest

    ok = {"type": "span", "id": 1, "parent": 0, "name": "a", "cat": "c",
          "ts_us": 0.0, "dur_us": 1.0, "tid": 1, "args": {}}
    with pytest.raises(ValueError, match="duplicate"):
        build_span_tree([ok, dict(ok)])
    with pytest.raises(ValueError, match="unknown parent"):
        build_span_tree([dict(ok, parent=99)])
    with pytest.raises(ValueError, match="negative duration"):
        build_span_tree([dict(ok, dur_us=-1.0)])
    with pytest.raises(ValueError, match="cycle"):
        build_span_tree([
            dict(ok, id=1, parent=2),
            dict(ok, id=2, parent=1),
        ])
    with pytest.raises(ValueError, match="unknown parent"):
        build_span_tree([
            ok,
            {"type": "event", "id": 5, "parent": 77, "name": "e",
             "ts_us": 0.0, "tid": 1, "level": "info", "args": {}},
        ])


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
