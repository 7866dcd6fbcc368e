"""End-to-end trace plumbing through the CLI: every subcommand's
journal round-trips into the analyzer, the progress sink never changes
the product output, and the ``repro trace`` verbs work on complete
journals and refuse incomplete ones."""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from repro.cli import main
from repro.obs.analyze import load_journal, stage_stats
from repro.obs.baseline import load_baseline

from .test_analyze import MALFORMED, SPAN, write_records

KERNEL = """
float smooth(float samples[8], float out[8]) {
    long double acc = 0.0;
    for (int i = 0; i < 8; i++) {
        long double x = samples[i];
        acc = acc + x;
        out[i] = (float)acc;
    }
    return (float)acc;
}
"""

#: (journal stem, argv tail, span names the journal must contain) — one
#: traced invocation per subcommand.
COMMANDS = [
    ("transpile", ["transpile", "{kernel}", "--kernel", "smooth",
                   "--fuzz-execs", "200", "--max-iterations", "50"],
     {"transpile", "fuzz", "bitwidth", "search",
      "search.iteration", "search.evaluate", "final_difftest"}),
    ("check", ["check", "{kernel}", "--top", "smooth"],
     {"check", "parse"}),
    ("fuzz", ["fuzz", "{kernel}", "--kernel", "smooth",
              "--fuzz-execs", "200"],
     {"fuzz", "parse"}),
    ("subjects", ["subjects", "--run", "P1", "--max-iterations", "25"],
     {"transpile", "fuzz", "search", "search.evaluate"}),
    ("study", ["study", "--posts", "100"],
     {"study", "study.generate", "study.analyze"}),
]


def _run(argv):
    """Invoke the CLI capturing stdout; returns (exit_code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _reset_process_state():
    """Reset in-process counters that leak across CLI invocations, so
    two runs in one test process produce identical output (what two
    separate ``python -m repro`` processes get for free)."""
    import itertools

    from repro.cfront import nodes as N
    from repro.hls.memo import clear_analysis_caches

    N._uid_counter = itertools.count(1)
    clear_analysis_caches()


@pytest.fixture(scope="module")
def journals(tmp_path_factory):
    """One finished journal per subcommand, keyed by stem."""
    root = tmp_path_factory.mktemp("journals")
    kernel = root / "kernel.c"
    kernel.write_text(KERNEL)
    paths = {}
    for stem, argv, _names in COMMANDS:
        journal = str(root / f"{stem}.trace.jsonl")
        argv = [a.format(kernel=str(kernel)) for a in argv]
        _run(argv + ["--trace-out", journal])
        paths[stem] = journal
    return paths


class TestJournalRoundTrips:
    @pytest.mark.parametrize(
        "stem,argv,names", COMMANDS, ids=[c[0] for c in COMMANDS]
    )
    def test_subcommand_journal_loads_strict(self, journals, stem, argv,
                                             names):
        trace = load_journal(journals[stem])
        stats = stage_stats(trace)
        assert names <= set(stats), (
            f"{stem} journal is missing spans: {names - set(stats)}"
        )
        assert trace.roots, f"{stem} journal has no root span"

    def test_truncated_cli_journal_is_refused(self, journals, tmp_path):
        text = open(journals["transpile"]).read()
        cut = tmp_path / "cut.jsonl"
        cut.write_text(text[: int(len(text) * 0.9)])
        with pytest.raises(ValueError, match="cut.jsonl"):
            load_journal(str(cut))


class TestSinkDeterminism:
    def test_json_output_byte_identical_with_sinks_on(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        kernel = tmp_path / "kernel.c"
        kernel.write_text(KERNEL)
        argv = ["transpile", str(kernel), "--kernel", "smooth",
                "--fuzz-execs", "200", "--max-iterations", "50", "--json"]

        _reset_process_state()
        code = main(argv)
        plain = capsys.readouterr()
        assert code == 0

        _reset_process_state()
        code = main(argv + [
            "--progress",
            "--trace-out", str(tmp_path / "run.trace.jsonl"),
            "--metrics-out", str(tmp_path / "run.metrics.json"),
        ])
        sunk = capsys.readouterr()
        assert code == 0

        assert sunk.out == plain.out  # byte-identical product output
        assert "[repro" in sunk.err   # progress went to stderr only
        json.loads(plain.out)
        assert load_journal(str(tmp_path / "run.trace.jsonl")).spans


class TestTraceVerbs:
    def test_summary(self, journals, capsys):
        assert main(["trace", "summary", journals["transpile"]]) == 0
        out = capsys.readouterr().out
        assert "search.evaluate" in out
        assert "critical path (wall)" in out

    def test_summary_json(self, journals, capsys):
        assert main(["trace", "summary", journals["transpile"],
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        stages = {s["name"] for s in payload["stages"]}
        assert "search" in stages

    def test_flame_folded(self, journals, capsys):
        assert main(["trace", "flame", journals["transpile"],
                     "--clock", "sim"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(" " in l for l in lines)
        assert any(l.startswith("transpile;search") for l in lines)

    def test_flame_chrome_file(self, journals, tmp_path, capsys):
        outs = [tmp_path / "a.chrome.json", tmp_path / "b.chrome.json"]
        for out_path in outs:
            assert main(["trace", "flame", journals["transpile"],
                         "--format", "chrome", "-o", str(out_path)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        doc = json.load(open(outs[0]))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == len(load_journal(journals["transpile"]).spans)

    def test_diff_of_a_journal_with_itself_is_clean(self, journals,
                                                    capsys):
        code = main(["trace", "diff", journals["transpile"],
                     journals["transpile"]])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_diff_metrics_reports_a_gauge_only_in_new(self, journals,
                                                      tmp_path, capsys):
        journal = journals["transpile"]
        base = {"counters": {"c": 1.0}, "gauges": {}, "histograms": {}}
        new = {"counters": {"c": 1.0},
               "gauges": {"fuzz.saturated_at{kernel=k}": 10},
               "histograms": {}}
        paths = []
        for stem, snapshot in (("base", base), ("new", new)):
            path = tmp_path / f"{stem}.metrics.json"
            path.write_text(json.dumps(snapshot))
            paths.append(str(path))
        assert main(["trace", "diff", journal, journal,
                     "--metrics", *paths]) == 0
        out = capsys.readouterr().out
        assert "1 metric delta(s):" in out
        assert "gauges fuzz.saturated_at{kernel=k}: None -> 10" in out
        assert "metrics snapshots identical" not in out
        assert main(["trace", "diff", journal, journal, "--json",
                     "--metrics", *paths]) == 0
        assert json.loads(capsys.readouterr().out)["metric_deltas"] == [
            {"family": "gauges", "series": "fuzz.saturated_at{kernel=k}",
             "base": None, "new": 10},
        ]

    def test_diff_flags_extra_work_as_regressions(self, journals, capsys):
        # The full transpile does strictly more than fuzz-only.
        code = main(["trace", "diff", journals["fuzz"],
                     journals["transpile"]])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_check_update_then_check_round_trip(self, journals, tmp_path,
                                                capsys):
        base = tmp_path / "baseline.json"
        assert main(["trace", "check", journals["transpile"],
                     "--baseline", str(base), "--update"]) == 0
        baseline = load_baseline(str(base))
        assert "search.evaluate" in baseline["stages"]
        assert main(["trace", "check", journals["transpile"],
                     "--baseline", str(base)]) == 0
        assert "passed" in capsys.readouterr().out
        # A run doing more work fails the gate.
        assert main(["trace", "check", journals["subjects"],
                     "--baseline", str(base)]) == 1

    @pytest.mark.parametrize("verb", ["summary", "flame"])
    @pytest.mark.parametrize("content,message", [
        ("", "bad.jsonl: missing journal header"),
        ("not json\n{also not}\n", "bad.jsonl:1: not JSON"),
    ], ids=["empty", "garbage"])
    def test_unreadable_journal_fails(self, verb, content, message,
                                      tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(content)
        assert main(["trace", verb, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert message in captured.err

    @pytest.mark.parametrize("verb", ["summary", "flame", "diff", "check"])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_journal_fails(self, verb, case, tmp_path, capsys):
        records, message = MALFORMED[case]
        path = write_records(tmp_path / "bad.jsonl", records)
        good = write_records(tmp_path / "good.jsonl", [SPAN])
        base = tmp_path / "baseline.json"
        assert main(["trace", "check", good, "--baseline", str(base),
                     "--update"]) == 0
        capsys.readouterr()
        argv = {"diff": ["diff", good, path],
                "check": ["check", path, "--baseline", str(base)]}
        assert main(["trace", *argv.get(verb, [verb, path])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"repro trace {verb}: " in captured.err
        assert "bad.jsonl" + message in captured.err

    @pytest.mark.parametrize("content,message", [
        (None, "No such file"),
        ('{"version": 1}', "baseline carries no stages"),
    ], ids=["nonexistent", "no-stages"])
    def test_unreadable_baseline_fails(self, journals, content, message,
                                       tmp_path, capsys):
        path = tmp_path / "base.json"
        if content is not None:
            path.write_text(content)
        assert main(["trace", "check", journals["transpile"],
                     "--baseline", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro trace check: ")
        assert message in captured.err

    def test_unreadable_metrics_snapshot_fails(self, journals, tmp_path,
                                               capsys):
        journal = journals["transpile"]
        missing = str(tmp_path / "nope.json")
        assert main(["trace", "diff", journal, journal,
                     "--metrics", missing, missing]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro trace diff: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["flame", "check"])
    def test_unwritable_output_path_fails(self, verb, journals, tmp_path,
                                          capsys):
        # The output's parent directory is a plain file.
        blocker = tmp_path / "afile"
        blocker.write_text("")
        out = str(blocker / "out")
        argv = {"flame": ["flame", journals["transpile"], "-o", out],
                "check": ["check", journals["transpile"],
                          "--baseline", out, "--update"]}[verb]
        assert main(["trace", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"repro trace {verb}: ")
        assert "afile" in captured.err

    def test_update_stores_the_journal_file_name(self, journals, tmp_path,
                                                 capsys):
        journal = os.path.abspath(journals["transpile"])
        base = tmp_path / "baseline.json"
        assert main(["trace", "check", journal, "--baseline", str(base),
                     "--update"]) == 0
        assert load_baseline(str(base))["meta"]["journal"] == \
            "transpile.trace.jsonl"

    @pytest.fixture(params=["mid-line", "line-boundary"])
    def truncated(self, request, journals, tmp_path):
        """The transpile journal cut at half its size, mid-record or
        at the last line boundary before that."""
        text = open(journals["transpile"]).read()
        cut = text[: len(text) // 2]
        if request.param == "line-boundary":
            cut = cut[: cut.rindex("\n") + 1]
        path = tmp_path / "half.jsonl"
        path.write_text(cut)
        return str(path)

    @pytest.mark.parametrize("verb", ["summary", "flame"])
    def test_truncated_journal_is_refused(self, verb, truncated, capsys):
        assert main(["trace", verb, truncated]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "half.jsonl:" in captured.err

    def test_diff_refuses_a_truncated_journal(self, journals, truncated,
                                              capsys):
        for pair in ([journals["transpile"], truncated],
                     [truncated, journals["transpile"]]):
            assert main(["trace", "diff", *pair]) == 1
            captured = capsys.readouterr()
            assert "improved" not in captured.out
            assert "half.jsonl:" in captured.err

    def test_check_update_refuses_a_truncated_journal(self, journals,
                                                      truncated, tmp_path,
                                                      capsys):
        base = tmp_path / "baseline.json"
        assert main(["trace", "check", truncated,
                     "--baseline", str(base), "--update"]) == 1
        assert not base.exists()
        assert "half.jsonl:" in capsys.readouterr().err
        # Nor does a truncated journal pass the gate.
        assert main(["trace", "check", journals["transpile"],
                     "--baseline", str(base), "--update"]) == 0
        assert main(["trace", "check", truncated,
                     "--baseline", str(base)]) == 1


def _span(sid, name, dur_us=1000.0, sim=1.0):
    """Span *sid*: the root when it is 1, else a child of the root."""
    return dict(SPAN, id=sid, parent=0 if sid == 1 else 1, name=name,
                ts_us=float(sid), dur_us=dur_us, sim_ts_s=0.0,
                sim_dur_s=sim)


#: Journal A's stages, and per case journal B's stages, the extra flags
#: and the (stage, kind) regressions both verbs must report.
_BASE = [_span(1, "root", 5000.0, 4.0), _span(2, "x"), _span(3, "z")]
AGREEMENT = {
    "vanished-stage": ([_BASE[0], _BASE[1]], [], {("z", "missing")}),
    "new-sim-free-stage": (_BASE + [_span(4, "y", sim=None)], [],
                           {("y", "unbaselined")}),
    "count-growth": (_BASE + [_span(4, "x", sim=0.0)], [],
                     {("x", "count")}),
    "sim-growth": ([_BASE[0], _span(2, "x", sim=2.0), _BASE[2]], [],
                   {("x", "sim_seconds")}),
    "wall-growth": ([_BASE[0], _span(2, "x", 3000.0), _BASE[2]],
                    ["--wall-tol", "1.0"], {("x", "wall")}),
}


class TestDiffAndCheckAgree:
    """``trace diff A B`` and ``trace check B`` against a baseline built
    from A run one comparator, so they report the same regressions."""

    @pytest.mark.parametrize("case", sorted(AGREEMENT))
    def test_same_regressions(self, case, tmp_path, capsys):
        records, flags, expected = AGREEMENT[case]
        a = write_records(tmp_path / "a.jsonl", _BASE)
        b = write_records(tmp_path / "b.jsonl", records)
        base = str(tmp_path / "a.baseline.json")
        assert main(["trace", "check", a, "--baseline", base,
                     "--update"]) == 0
        capsys.readouterr()

        assert main(["trace", "diff", a, b, "--json", *flags]) == 1
        diff = json.loads(capsys.readouterr().out)
        assert main(["trace", "check", b, "--baseline", base, "--json",
                     *flags]) == 1
        check = json.loads(capsys.readouterr().out)

        kinds = {(r["stage"], r["kind"]) for r in diff["regressions"]}
        assert kinds == expected
        assert {(v["stage"], v["kind"])
                for v in check["violations"]} == expected
        assert diff["clean"] is False and check["passed"] is False


#: A kernel with no HLS compatibility error, so ``check`` exits 0.
CLEAN_KERNEL = "int k(int a) { return a + 1; }\n"


class TestTraceOut:
    @pytest.mark.parametrize("name", ["run.jsonl", "run.json", "run"])
    def test_trace_out_writes_only_the_journal(self, name, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        kernel = tmp_path / "kernel.c"
        kernel.write_text(CLEAN_KERNEL)
        journal = tmp_path / name
        assert main(["check", str(kernel), "--top", "k",
                     "--trace-out", str(journal)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(["kernel.c", name])
        manifest = load_journal(str(journal)).header["manifest"]
        assert manifest["toolchain_salt"]
        assert manifest["subject"] == str(kernel)
        assert manifest["config"]["top"] == "k"

    def test_manifest_records_the_arguments_main_was_given(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        kernel = tmp_path / "kernel.c"
        kernel.write_text(CLEAN_KERNEL)
        argv = ["check", str(kernel), "--top", "k",
                "--trace-out", str(tmp_path / "run.jsonl")]
        assert main(argv) == 0
        manifest = load_journal(argv[-1]).header["manifest"]
        assert manifest["command"] == ["repro", *argv]

    def test_path_valued_repro_trace_names_the_journal(self, tmp_path,
                                                       monkeypatch, capsys):
        kernel = tmp_path / "kernel.c"
        kernel.write_text(CLEAN_KERNEL)
        journal = tmp_path / "env.trace.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(journal))
        assert main(["check", str(kernel), "--top", "k"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["env.trace.jsonl", "kernel.c"]
        assert load_journal(str(journal)).spans


class TestBrokenPipe:
    def test_piped_trace_output_exits_141_without_traceback(self, journals):
        # ``repro trace summary run.jsonl | head`` must not dump a
        # BrokenPipeError traceback: the __main__ shim maps EPIPE to the
        # conventional SIGPIPE exit status.  A pre-closed read end makes
        # the first stdout flush fail deterministically.
        import subprocess
        import sys

        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"),
                        os.path.join(os.path.dirname(__file__),
                                     os.pardir, os.pardir, "src"))
            if p)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "summary",
             journals["transpile"]],
            stdout=write_end, stderr=subprocess.PIPE, env=env)
        os.close(write_end)
        assert proc.returncode == 141
        assert b"Traceback" not in proc.stderr
