"""Journal analytics: the complete-journal loader, aggregation, critical
path, flamegraph exports, structural diff."""

from __future__ import annotations

import json

import pytest

from repro.hls.clock import ACT_HLS_COMPILE, ACT_STYLE_CHECK, SimulatedClock
from repro.obs import TraceRecorder
from repro.obs.analyze import (
    chrome_trace,
    collapsed_stacks,
    critical_path,
    diff_metrics,
    diff_traces,
    edit_stats,
    folded_lines,
    load_journal,
    render_diff,
    render_summary,
    stage_stats,
    stage_table,
)
from repro.obs.export import write_journal


def _recorded_run(iterations=2, compile_seconds=540.0):
    """A miniature but structurally faithful pipeline trace."""
    rec = TraceRecorder()
    clock = SimulatedClock.recording()
    with rec.span("transpile", clock=clock, kernel="k"):
        with rec.span("fuzz", clock=clock):
            clock.charge(ACT_STYLE_CHECK, 20.0)
        with rec.span("search", clock=clock):
            for i in range(1, iterations + 1):
                with rec.span("search.iteration", clock=clock, iteration=i):
                    edit = "type_trans" if i % 2 else "loop_split"
                    with rec.span("search.evaluate", clock=clock, edit=edit):
                        with rec.span("hls_compile", clock=clock):
                            clock.charge(ACT_HLS_COMPILE, compile_seconds)
    return rec


def _journal(tmp_path, name="run.jsonl", **kwargs):
    rec = _recorded_run(**kwargs)
    return write_journal(rec, str(tmp_path / name))


SPAN = {"type": "span", "id": 1, "parent": 0, "name": "a", "cat": "c",
        "ts_us": 0.0, "dur_us": 1.0, "tid": 1, "args": {}}
EVENT = {"type": "event", "id": 5, "parent": 0, "name": "e", "ts_us": 0.0,
         "tid": 1, "level": "info", "args": {}}


def write_records(path, records):
    """A journal holding *records* under a header that counts them."""
    header = {"type": "header", "version": 1, "records": len(records),
              "dropped": 0}
    path.write_text("".join(json.dumps(obj) + "\n"
                            for obj in [header] + records))
    return str(path)


#: Complete journals whose records break one rule of the format, with
#: the ``line: message`` the loader must raise (line 1 is the header).
MALFORMED = {
    "parent-cycle": (
        [dict(SPAN, id=1, parent=3), dict(SPAN, id=2, parent=1),
         dict(SPAN, id=3, parent=2)],
        ":2: parent cycle through span 1",
    ),
    "negative-dur": (
        [dict(SPAN, dur_us=-5.0)],
        ":2: span.dur_us must be a non-negative number",
    ),
    "negative-sim": (
        [dict(SPAN, sim_ts_s=0.0, sim_dur_s=-1.0)],
        ":2: span.sim_dur_s must be null or a non-negative number",
    ),
    "missing-dur": (
        [{k: v for k, v in SPAN.items() if k != "dur_us"}],
        ":2: span.dur_us must be a non-negative number, got None",
    ),
    "string-id": (
        [dict(SPAN, id="1")],
        ":2: span.id must be a positive integer, got '1'",
    ),
    "bad-level": (
        [SPAN, dict(EVENT, parent=1, level="fatal")],
        ":3: event.level must be one of debug/info/warning/error",
    ),
}


# ---------------------------------------------------------------------------
# Loader
# ---------------------------------------------------------------------------


class TestLoadJournal:
    def test_journal_round_trip_preserves_the_span_tree(self, tmp_path):
        rec = TraceRecorder()
        clock = SimulatedClock.recording()
        with rec.span("transpile", kernel="k"):
            with rec.span("fuzz", clock=clock):
                clock.charge(ACT_STYLE_CHECK, 20.0)
            with rec.span("search", clock=clock):
                with rec.span("search.evaluate", edit="type_trans"):
                    rec.event("cache_hit", tier="memory")
        trace = load_journal(write_journal(rec, str(tmp_path / "run.jsonl")))

        assert trace.header["records"] == len(trace.spans) + len(trace.events)
        assert trace.header["dropped"] == 0
        by_name = {obj["name"]: obj for obj in trace.spans.values()}
        root = by_name["transpile"]
        assert root["parent"] == 0
        assert trace.roots == [root["id"]]
        assert by_name["fuzz"]["parent"] == root["id"]
        assert by_name["search"]["parent"] == root["id"]
        assert by_name["search.evaluate"]["parent"] == by_name["search"]["id"]
        assert trace.children[root["id"]] == [
            by_name["fuzz"]["id"], by_name["search"]["id"]
        ]
        for obj in trace.spans.values():
            assert obj["dur_us"] >= 0.0
        assert by_name["fuzz"]["sim_dur_s"] == 20.0
        assert [event["name"] for event in trace.events] == ["cache_hit"]
        assert trace.events[0]["parent"] == by_name["search.evaluate"]["id"]

    def test_rejects_malformed_forests(self, tmp_path):
        path = tmp_path / "forest.jsonl"
        for records, message in [
            ([SPAN, dict(SPAN)], "duplicate"),
            ([dict(SPAN, parent=99)], "unknown parent"),
            ([dict(SPAN, dur_us=-1.0)], "dur_us must be a non-negative"),
            ([dict(SPAN, id=1, parent=2), dict(SPAN, id=2, parent=1)],
             "cycle"),
            ([SPAN, dict(EVENT, parent=77)], "unknown parent"),
        ]:
            with pytest.raises(ValueError, match=message):
                load_journal(write_records(path, records))

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_record_raises(self, tmp_path, case):
        records, message = MALFORMED[case]
        path = write_records(tmp_path / "bad.jsonl", records)
        with pytest.raises(ValueError, match="bad.jsonl" + message):
            load_journal(path)

    def test_round_trip_of_a_batch_journal(self, tmp_path):
        path = _journal(tmp_path)
        trace = load_journal(path)
        assert trace.header["version"] >= 1
        names = sorted(s["name"] for s in trace.spans.values())
        assert names.count("search.iteration") == 2
        assert names.count("hls_compile") == 2
        roots = [trace.spans[s]["name"] for s in trace.roots]
        assert roots == ["transpile"]
        # Lineage: evaluate under iteration under search.
        for sid, span in trace.spans.items():
            if span["name"] == "search.evaluate":
                parent = trace.spans[span["parent"]]
                assert parent["name"] == "search.iteration"

    def test_truncated_final_line_raises(self, tmp_path):
        path = _journal(tmp_path)
        text = open(path).read()
        cut = text[: text.rindex('"name"')]  # cut the last record mid-object
        assert not cut.endswith("\n")
        trunc = tmp_path / "trunc.jsonl"
        trunc.write_text(cut)
        last = cut.count("\n") + 1
        with pytest.raises(ValueError, match=f"trunc.jsonl:{last}: not JSON"):
            load_journal(str(trunc))

    def test_cut_at_a_line_boundary_raises(self, tmp_path):
        path = _journal(tmp_path)
        lines = open(path).read().splitlines(keepends=True)
        half = tmp_path / "half.jsonl"
        half.write_text("".join(lines[: len(lines) // 2]))
        with pytest.raises(ValueError, match="half.jsonl:.*truncated"):
            load_journal(str(half))

    def test_orphan_span_raises(self, tmp_path):
        path = _journal(tmp_path)
        # Drop the root span record, and fix up the header count so the
        # orphaned children are what the loader trips on.
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["records"] -= 1
        kept = [json.dumps(header)] + [
            l for l in lines[1:] if '"name": "transpile"' not in l
        ]
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(kept) + "\n")
        with pytest.raises(ValueError, match="partial.jsonl:.*unknown parent"):
            load_journal(str(partial))

    def test_garbage_line_raises(self, tmp_path):
        path = _journal(tmp_path)
        lines = open(path).read().splitlines()
        lines.insert(2, "not json at all")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="bad.jsonl:3: not JSON"):
            load_journal(str(bad))

    def test_dropped_records_raise(self, tmp_path):
        rec = _recorded_run()
        rec.max_records = len(rec.records())
        rec.event("overflow")
        assert rec.dropped == 1
        path = write_journal(rec, str(tmp_path / "dropped.jsonl"))
        with pytest.raises(ValueError, match="dropped.jsonl:1: .*dropped 1"):
            load_journal(path)

    def test_header_carries_an_optional_manifest(self, tmp_path):
        rec = _recorded_run()
        path = write_journal(rec, str(tmp_path / "m.jsonl"),
                             manifest={"subject": "P1"})
        assert load_journal(path).header["manifest"] == {"subject": "P1"}
        bare = load_journal(write_journal(rec, str(tmp_path / "b.jsonl")))
        assert "manifest" not in bare.header
        lines = open(path).read().splitlines()
        header = json.loads(lines[0])
        header["manifest"] = "P1"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:1: header\."
                           "manifest must be absent or an object"):
            load_journal(str(bad))

    @pytest.mark.parametrize("body,message", [
        ("", "missing journal header"),
        ('{"type": "span", "id": 1}\n', ":1: missing journal header"),
        ('{"type": "header", "version": 1, "records": 1, "dropped": 0}\n'
         '{"type": "mystery", "id": 1}\n', ":2: unknown record 'mystery'"),
        ('{"type": "header", "version": 1, "records": 2, "dropped": 0}\n'
         + json.dumps(dict(EVENT, id=1)) + "\n"
         + json.dumps(dict(EVENT, id=1)) + "\n", ":3: duplicate id 1"),
    ], ids=["empty", "no-header", "unknown-type", "duplicate-id"])
    def test_malformed_journal_raises(self, tmp_path, body, message):
        path = tmp_path / "bad.jsonl"
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            load_journal(str(path))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class TestAggregation:
    def test_stage_stats_totals_and_self_times(self, tmp_path):
        trace = load_journal(_journal(tmp_path))
        stats = stage_stats(trace)
        assert stats["hls_compile"].count == 2
        assert stats["hls_compile"].sim_s == pytest.approx(1080.0)
        # All compile time is self time (leaf), none of evaluate's is.
        assert stats["hls_compile"].sim_self_s == pytest.approx(1080.0)
        assert stats["search.evaluate"].sim_s == pytest.approx(1080.0)
        assert stats["search.evaluate"].sim_self_s == pytest.approx(0.0)
        # The root totals the whole run.
        assert stats["transpile"].sim_s == pytest.approx(1100.0)
        assert stats["transpile"].sim_self_s == pytest.approx(0.0)
        for stat in stats.values():
            assert stat.wall_self_us >= 0.0

    def test_edit_stats_split_evaluations_by_family(self, tmp_path):
        trace = load_journal(_journal(tmp_path))
        edits = edit_stats(trace)
        assert sorted(edits) == ["loop_split", "type_trans"]
        assert edits["type_trans"].count == 1
        assert edits["loop_split"].sim_s == pytest.approx(540.0)

    def test_critical_path_follows_the_heavy_chain(self, tmp_path):
        trace = load_journal(_journal(tmp_path))
        path = critical_path(trace, clock="sim")
        assert [hop["name"] for hop in path] == [
            "transpile", "search", "search.iteration",
            "search.evaluate", "hls_compile",
        ]
        assert path[0]["total"] == pytest.approx(1100.0)
        assert path[-1]["self"] == pytest.approx(540.0)


# ---------------------------------------------------------------------------
# Flamegraphs
# ---------------------------------------------------------------------------


class TestFlamegraphs:
    def test_sim_collapsed_stacks(self, tmp_path):
        trace = load_journal(_journal(tmp_path))
        stacks = collapsed_stacks(trace, clock="sim")
        assert stacks["transpile;fuzz"] == 20_000_000
        assert stacks[
            "transpile;search;search.iteration;search.evaluate;hls_compile"
        ] == 1_080_000_000
        # Non-leaf self time of zero is elided, not emitted as 0.
        assert "transpile;search" not in stacks

    def test_folded_lines_are_sorted_and_parseable(self, tmp_path):
        trace = load_journal(_journal(tmp_path))
        lines = folded_lines(trace, clock="sim")
        assert lines == sorted(lines)
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) > 0 and stack

    def test_chrome_trace_spans_are_well_nested(self, tmp_path):
        trace = load_journal(_journal(tmp_path))
        events = chrome_trace(trace)["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == len(trace.spans)
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
        by_name = {e["name"]: e for e in spans}
        outer, inner = by_name["transpile"], by_name["fuzz"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert inner["args"]["sim_dur_s"] == 20.0
        assert {e["pid"] for e in events} == {1}

    def test_chrome_trace_is_byte_stable(self, tmp_path):
        path = _journal(tmp_path)
        first = json.dumps(chrome_trace(load_journal(path)), sort_keys=True)
        again = json.dumps(chrome_trace(load_journal(path)), sort_keys=True)
        assert first == again


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------


def _table(tmp_path, name, **kwargs):
    return stage_table(load_journal(_journal(tmp_path, name, **kwargs)))


class TestDiff:
    def test_identical_runs_diff_clean_at_zero_tolerance(self, tmp_path):
        a = _table(tmp_path, "a.jsonl")
        b = _table(tmp_path, "b.jsonl")
        diff = diff_traces(a, b, sim_tolerance=0.0, count_tolerance=0)
        assert diff.clean
        assert diff.regressions == []
        assert "no regressions" in render_diff(diff)

    def test_extra_work_is_a_count_and_sim_regression(self, tmp_path):
        a = _table(tmp_path, "a.jsonl", iterations=2)
        b = _table(tmp_path, "b.jsonl", iterations=3)
        diff = diff_traces(a, b)
        kinds = {(r["stage"], r["kind"]) for r in diff.regressions}
        assert ("search.iteration", "count") in kinds
        assert ("hls_compile", "sim_seconds") in kinds
        assert not diff.clean
        assert "REGRESSION" in render_diff(diff)

    def test_less_work_is_an_improvement_not_a_regression(self, tmp_path):
        a = _table(tmp_path, "a.jsonl", iterations=3)
        b = _table(tmp_path, "b.jsonl", iterations=2)
        diff = diff_traces(a, b)
        assert diff.clean
        kinds = {(i["stage"], i["kind"]) for i in diff.improvements}
        assert ("search.iteration", "count") in kinds

    def test_sim_tolerance_absorbs_bounded_growth(self, tmp_path):
        a = _table(tmp_path, "a.jsonl", compile_seconds=500.0)
        b = _table(tmp_path, "b.jsonl", compile_seconds=510.0)
        assert not diff_traces(a, b).clean
        assert diff_traces(a, b, sim_tolerance=0.05).clean

    def test_wall_only_gated_when_tolerance_given(self, tmp_path):
        a = _table(tmp_path, "a.jsonl")
        b = _table(tmp_path, "b.jsonl")
        # Absurdly tight wall tolerance: wall noise now counts.
        diff = diff_traces(a, b, wall_tolerance=-0.999999)
        assert any(r["kind"] == "wall" for r in diff.regressions)
        assert diff_traces(a, b).clean

    def test_vanished_stage_is_missing_not_an_improvement(self):
        base = {"a": {"count": 2, "sim_s": 3.0, "wall_us": 10.0}}
        diff = diff_traces(base, {})
        assert diff.regressions == [{"stage": "a", "kind": "missing",
                                     "base": 2, "new": 0, "limit": 0}]
        assert diff.improvements == []

    def test_new_stage_is_unbaselined_whatever_its_cost(self):
        new = {"a": {"count": 1, "sim_s": 0.0, "wall_us": 10.0}}
        diff = diff_traces({}, new, count_tolerance=5)
        assert diff.regressions == [{"stage": "a", "kind": "unbaselined",
                                     "base": 0, "new": 1, "limit": 0}]

    def test_diff_metrics_reports_every_family(self):
        base = {"counters": {"a": 1, "b": 2}, "gauges": {"g": 5},
                "histograms": {"h": {"count": 1}, "k": {"count": 3}}}
        new = {"counters": {"a": 1, "b": 3, "c": 1}, "gauges": {"g": 9},
               "histograms": {"h": {"count": 2}, "k": {"count": 3}}}
        deltas = diff_metrics(base, new)
        assert deltas == [
            {"family": "counters", "series": "b", "base": 2, "new": 3},
            {"family": "counters", "series": "c", "base": None, "new": 1},
            {"family": "gauges", "series": "g", "base": 5, "new": 9},
            {"family": "histograms", "series": "h",
             "base": {"count": 1}, "new": {"count": 2}},
        ]


class TestRenderSummary:
    def test_summary_renders_stages_edits_and_paths(self, tmp_path):
        trace = load_journal(_journal(tmp_path))
        text = render_summary(trace)
        assert "hls_compile" in text
        assert "evaluations by edit" in text
        assert "type_trans" in text
        assert "critical path (wall)" in text
        assert "critical path (sim)" in text
