"""Command-line interface.

Usage::

    python -m repro transpile kernel.c --kernel smooth [--host host --host-args 1,2]
    python -m repro check kernel.c --top smooth
    python -m repro fuzz kernel.c --kernel smooth
    python -m repro subjects [--run P3]
    python -m repro study
    python -m repro trace summary run.trace.jsonl
    python -m repro trace diff base.jsonl new.jsonl

Every subcommand prints a human-readable report; ``--json`` switches to
machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sqlite3
import sys
from typing import Any, List, Optional

from . import __version__
from .baselines import default_config, run_variant
from .cfront import parse
from .core import HeteroGen, HeteroGenConfig, SearchConfig
from .core.report import TranspileResult
from .errors import ReproError
from .fuzz import FuzzConfig, fuzz_kernel, get_kernel_seed
from .hls import SolutionConfig, compile_unit
from .interp import BACKENDS, set_default_backend
from .obs import (
    SPAN_CHECK,
    SPAN_PARSE,
    SPAN_SEED_CAPTURE,
    SPAN_STUDY,
    SPAN_STUDY_ANALYZE,
    SPAN_STUDY_GENERATE,
    TraceRecorder,
    configure_logging,
    get_recorder,
    install_recorder,
    trace_env_value,
)
from .obs.logs import LEVELS
from .obs.stream import attach_cli_sinks
from .subjects import all_subjects, get_subject


def _parse_host_args(text: str) -> List[Any]:
    if not text:
        return []
    out: List[Any] = []
    for item in text.split(","):
        item = item.strip()
        try:
            out.append(int(item, 0))
        except ValueError:
            try:
                out.append(float(item))
            except ValueError:
                raise ReproError(
                    f"--host-args item {item!r} is not a number"
                ) from None
    return out


def result_to_dict(result: TranspileResult) -> dict:
    """JSON-serializable view of a transpilation result."""
    return {
        "subject": result.subject,
        "kernel": result.kernel_name,
        "hls_compatible": result.hls_compatible,
        "behavior_preserved": result.behavior_preserved,
        "improved_performance": result.improved_performance,
        "speedup": result.speedup,
        "origin_loc": result.origin_loc,
        "delta_loc": result.delta_loc,
        "applied_edits": result.applied_edits,
        "repair_minutes": result.search_result.repair_minutes,
        "cache_hits": result.search_result.stats.cache_hits,
        "cache_hit_ratio": result.search_result.stats.cache_hit_ratio,
        "store_hits": result.search_result.stats.store_hits,
        "store_misses": result.search_result.stats.store_misses,
        "store_hit_ratio": result.search_result.stats.store_hit_ratio,
        "remaining_errors": result.remaining_errors,
        "tests_generated": (
            result.fuzz_report.tests_generated if result.fuzz_report else 0
        ),
        "branch_coverage": (
            result.fuzz_report.coverage_ratio if result.fuzz_report else None
        ),
        "final_source": result.final_source(),
    }


def _apply_search_flags(search: SearchConfig, args: argparse.Namespace) -> None:
    """Overlay the store CLI flags on a search config whose defaults
    already honour REPRO_STORE."""
    if getattr(args, "no_store", False):
        search.store_path = None
    elif getattr(args, "store", None):
        search.store_path = args.store


def cmd_transpile(args: argparse.Namespace) -> int:
    source = open(args.file).read() if args.file != "-" else sys.stdin.read()
    config = HeteroGenConfig(
        fuzz=FuzzConfig(max_execs=args.fuzz_execs, seed=args.seed),
        search=SearchConfig(
            budget_seconds=args.budget_hours * 3600.0,
            max_iterations=args.max_iterations,
            seed=args.seed,
            use_cache=not args.no_cache,
        ),
    )
    _apply_search_flags(config.search, args)
    tool = HeteroGen(config)
    result = tool.transpile(
        source,
        kernel_name=args.kernel,
        host_name=args.host or "",
        host_args=_parse_host_args(args.host_args) if args.host else None,
        subject_name=args.file,
    )
    if args.json:
        print(json.dumps(result_to_dict(result), indent=2))
    else:
        print(result.summary())
        print()
        if result.applied_edits:
            print("Edits applied:")
            for edit in result.applied_edits:
                print(f"  - {edit}")
            print()
        if args.diff:
            print(result.source_diff())
        else:
            print(result.final_source())
    return 0 if result.success else 1


def cmd_check(args: argparse.Namespace) -> int:
    source = open(args.file).read() if args.file != "-" else sys.stdin.read()
    rec = get_recorder()
    with rec.span(SPAN_CHECK, top=args.top, subject=args.file):
        with rec.span(SPAN_PARSE):
            unit = parse(source, top_name=args.top)
        report = compile_unit(unit, SolutionConfig(top_name=args.top))
    if args.json:
        print(json.dumps(
            [
                {
                    "code": d.code,
                    "type": d.error_type.value,
                    "symbol": d.symbol,
                    "message": d.message,
                }
                for d in report.errors
            ],
            indent=2,
        ))
    else:
        if report.ok:
            print("synthesizable: no HLS compatibility errors")
        for diag in report.errors:
            print(diag)
    return 0 if report.ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    source = open(args.file).read() if args.file != "-" else sys.stdin.read()
    rec = get_recorder()
    with rec.span(SPAN_PARSE):
        unit = parse(source, top_name=args.kernel)
    seeds = None
    if args.host:
        with rec.span(SPAN_SEED_CAPTURE, host=args.host):
            seeds = get_kernel_seed(
                unit, args.host, args.kernel, _parse_host_args(args.host_args)
            )
    report = fuzz_kernel(
        unit, args.kernel,
        FuzzConfig(max_execs=args.fuzz_execs, seed=args.seed),
        seeds=seeds,
    )
    payload = {
        "tests_generated": report.tests_generated,
        "corpus_size": len(report.corpus),
        "branch_coverage": report.coverage_ratio,
        "executions": report.execs,
        "fuzz_minutes": report.fuzz_minutes,
    }
    if args.json:
        payload["corpus"] = report.suite()
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key:16}: {value}")
    return 0


def cmd_subjects(args: argparse.Namespace) -> int:
    if args.run:
        subject = get_subject(args.run)
        config = default_config(
            max_iterations=args.max_iterations,
            seed=args.seed,
            use_cache=not args.no_cache,
        )
        _apply_search_flags(config.search, args)
        result = run_variant(subject, args.variant, config)
        if args.json:
            print(json.dumps(result_to_dict(result), indent=2))
        else:
            print(result.summary())
        return 0 if result.success else 1
    rows = [
        {
            "id": s.id,
            "name": s.name,
            "kernel": s.kernel,
            "expected_errors": [t.value for t in s.expected_error_types],
            "existing_tests": len(s.existing_tests),
        }
        for s in all_subjects()
    ]
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            errors = ", ".join(row["expected_errors"])
            print(f"{row['id']:4} {row['name']:24} kernel={row['kernel']:14} "
                  f"[{errors}]")
    return 0


def cmd_study(args: argparse.Namespace) -> int:
    from .study import analyze_corpus, generate_corpus, render_table1

    rec = get_recorder()
    with rec.span(SPAN_STUDY, posts=args.posts):
        with rec.span(SPAN_STUDY_GENERATE, posts=args.posts):
            posts = generate_corpus(args.posts, seed=args.seed)
        with rec.span(SPAN_STUDY_ANALYZE):
            report = analyze_corpus(posts)
    if args.json:
        print(json.dumps(
            {
                "total": report.total,
                "accuracy": report.accuracy,
                "proportions": {
                    t.value: report.proportion(t) for t in report.counts
                },
            },
            indent=2,
        ))
    else:
        print(report.render())
        print()
        print(render_table1())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace`` — consume recorded event journals."""
    from .obs import analyze
    from .obs import baseline as baseline_mod

    def refuse(exc: Exception) -> int:
        print(f"repro trace {args.verb}: {exc}", file=sys.stderr)
        return 1

    try:
        if args.verb == "diff":
            base = analyze.load_journal(args.base)
            new = analyze.load_journal(args.new)
        else:
            trace = analyze.load_journal(args.journal)
        if args.verb == "check" and not args.update:
            baseline = baseline_mod.load_baseline(args.baseline)
        if args.verb == "diff" and args.metrics:
            snapshots = []
            for path in args.metrics:
                with open(path) as handle:
                    snapshots.append(json.load(handle))
    except (OSError, ValueError) as exc:
        return refuse(exc)
    if args.verb in ("summary", "flame") and not trace.spans \
            and not trace.events:
        print(
            f"repro trace {args.verb}: {args.journal} holds no span or "
            "event records",
            file=sys.stderr,
        )
        return 1

    if args.verb == "summary":
        if args.json:
            print(json.dumps(
                {
                    "stages": [
                        stat.as_dict()
                        for _name, stat in sorted(
                            analyze.stage_stats(trace).items()
                        )
                    ],
                    "edits": [
                        stat.as_dict()
                        for _name, stat in sorted(
                            analyze.edit_stats(trace).items()
                        )
                    ],
                    "critical_path_wall": analyze.critical_path(trace, "wall"),
                    "critical_path_sim": analyze.critical_path(trace, "sim"),
                },
                indent=2,
            ))
        else:
            print(analyze.render_summary(trace, top=args.top))
        return 0

    if args.verb == "flame":
        if args.format == "chrome":
            text = json.dumps(
                analyze.chrome_trace(trace), indent=1, sort_keys=True,
            ) + "\n"
        else:
            text = "\n".join(analyze.folded_lines(trace, args.clock)) + "\n"
        if args.out:
            import os

            parent = os.path.dirname(os.path.abspath(args.out))
            try:
                if parent:
                    os.makedirs(parent, exist_ok=True)
                with open(args.out, "w") as handle:
                    handle.write(text)
            except OSError as exc:
                return refuse(exc)
            print(f"wrote {args.format} flamegraph to {args.out}")
        else:
            sys.stdout.write(text)
        return 0

    if args.verb == "diff":
        diff = analyze.diff_traces(
            analyze.stage_table(base), analyze.stage_table(new),
            sim_tolerance=args.sim_tol,
            count_tolerance=args.count_tol,
            wall_tolerance=args.wall_tol,
        )
        metric_deltas = None
        if args.metrics:
            metric_deltas = analyze.diff_metrics(*snapshots)
        if args.json:
            payload = {
                "stages": [d.as_dict() for d in diff.stages],
                "regressions": diff.regressions,
                "improvements": diff.improvements,
                "clean": diff.clean,
            }
            if metric_deltas is not None:
                payload["metric_deltas"] = metric_deltas
            print(json.dumps(payload, indent=2))
        else:
            print(analyze.render_diff(diff))
            if metric_deltas is not None:
                if metric_deltas:
                    print(f"\n{len(metric_deltas)} metric delta(s):")
                    for delta in metric_deltas:
                        print(f"  {delta['family']} {delta['series']}: "
                              f"{delta['base']} -> {delta['new']}")
                else:
                    print("\nmetrics snapshots identical")
        return 0 if diff.clean else 1

    assert args.verb == "check"
    if args.update:
        import os

        from .obs.export import git_describe

        baseline = baseline_mod.baseline_from_trace(trace, meta={
            "journal": os.path.basename(args.journal),
            "git_describe": git_describe(),
        })
        try:
            path = baseline_mod.write_baseline(args.baseline, baseline)
        except OSError as exc:
            return refuse(exc)
        print(f"wrote baseline ({len(baseline['stages'])} stages) to {path}")
        return 0
    violations = analyze.diff_traces(
        baseline["stages"], analyze.stage_table(trace),
        sim_tolerance=args.sim_tol,
        count_tolerance=args.count_tol,
        wall_tolerance=args.wall_tol,
        tolerances=baseline.get("tolerances"),
    ).regressions
    if args.json:
        print(json.dumps(
            {"baseline": args.baseline, "violations": violations,
             "passed": not violations},
            indent=2,
        ))
    else:
        print(baseline_mod.render_check(violations, args.baseline))
    return 0 if not violations else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HeteroGen reproduction: C → HLS-C transpilation "
        "with automated test generation and program repair",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kernel=True):
        p.add_argument("--json", action="store_true", help="JSON output")
        p.add_argument("--seed", type=int, default=2022)
        if kernel:
            p.add_argument("--fuzz-execs", type=int, default=1500)

    def backend_flag(p):
        p.add_argument("--interp-backend", choices=list(BACKENDS),
                       default=None, metavar="{" + ",".join(BACKENDS) + "}",
                       help="execution backend for all interpreted runs "
                       "(default: the process default, normally 'batch'; "
                       "'tree' is the reference tree-walker; 'batch-cross' "
                       "runs both and asserts identical behaviour)")

    def obs_flags(p):
        p.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write the JSONL event journal here, its "
                       "header carrying the run manifest; read it with "
                       "'repro trace'.  Default: $REPRO_TRACE when it "
                       "holds a path.  Tracing never changes results: "
                       "history and simulated clock are bit-identical "
                       "with it on or off")
        p.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write the metrics snapshot (cache/store "
                       "tiers, edit families, HLS diagnostics, fuzzer "
                       "coverage) as JSON")
        p.add_argument("--progress", action="store_true",
                       help="live progress on stderr (phase, iteration/"
                       "candidate counts, cache/store hit rates, simulated-"
                       "budget ETA), rendered from the span stream.  Never "
                       "changes results: pipeline stdout is byte-identical "
                       "with it on or off")
        p.add_argument("--log-level", choices=list(LEVELS), default=None,
                       help="stderr diagnostic verbosity (default: "
                       "warning); diagnostics never mix with the product "
                       "output on stdout")
        p.add_argument("-q", "--quiet", action="store_true",
                       help="only errors on stderr")

    def search_flags(p):
        p.add_argument("--store", metavar="PATH", default=None,
                       help="persistent evaluation store (SQLite): verdicts "
                       "are reused across runs with identical reported "
                       "results.  Default: $REPRO_STORE or disabled")
        p.add_argument("--no-store", action="store_true",
                       help="disable the persistent evaluation store even "
                       "if $REPRO_STORE is set")
        p.add_argument("--no-cache", action="store_true",
                       help="disable the candidate-evaluation memo cache "
                       "(also disables the persistent store)")

    t = sub.add_parser("transpile", help="transpile a C kernel to HLS-C")
    t.add_argument("file", help="C source file, or - for stdin")
    t.add_argument("--kernel", required=True, help="kernel function name")
    t.add_argument("--host", help="host function for kernel-seed capture")
    t.add_argument("--host-args", default="", help="comma-separated host args")
    t.add_argument("--budget-hours", type=float, default=3.0,
                   help="simulated toolchain budget (paper default: 3h)")
    t.add_argument("--max-iterations", type=int, default=220)
    t.add_argument("--diff", action="store_true",
                   help="print a unified diff instead of the full output")
    search_flags(t)
    common(t)
    backend_flag(t)
    obs_flags(t)
    t.set_defaults(func=cmd_transpile)

    c = sub.add_parser("check", help="run only the synthesizability check")
    c.add_argument("file")
    c.add_argument("--top", required=True, help="top function name")
    common(c, kernel=False)
    obs_flags(c)
    c.set_defaults(func=cmd_check)

    f = sub.add_parser("fuzz", help="run only test generation")
    f.add_argument("file")
    f.add_argument("--kernel", required=True)
    f.add_argument("--host", help="host function for kernel-seed capture")
    f.add_argument("--host-args", default="")
    common(f)
    backend_flag(f)
    obs_flags(f)
    f.set_defaults(func=cmd_fuzz)

    s = sub.add_parser("subjects", help="list or run the benchmark subjects")
    s.add_argument("--run", metavar="ID", help="transpile one subject (P1..P10)")
    s.add_argument("--variant", default="HeteroGen",
                   choices=["HeteroGen", "WithoutChecker",
                            "WithoutDependence", "HeteroRefactor"])
    s.add_argument("--max-iterations", type=int, default=220)
    search_flags(s)
    common(s, kernel=False)
    backend_flag(s)
    obs_flags(s)
    s.set_defaults(func=cmd_subjects)

    st = sub.add_parser("study", help="regenerate the forum error study")
    st.add_argument("--posts", type=int, default=1000)
    common(st, kernel=False)
    obs_flags(st)
    st.set_defaults(func=cmd_study)

    tr = sub.add_parser(
        "trace",
        help="analyze recorded event journals (summary/flame/diff/check)",
    )
    trsub = tr.add_subparsers(dest="verb", required=True)

    def tolerance_flags(p):
        p.add_argument("--sim-tol", type=float, default=0.0,
                       help="relative tolerance on per-stage simulated "
                       "seconds (default 0: the simulated clock is "
                       "deterministic, so any growth is a real change)")
        p.add_argument("--count-tol", type=int, default=0,
                       help="absolute tolerance on per-stage span counts "
                       "(default 0)")
        p.add_argument("--wall-tol", type=float, default=None,
                       help="relative tolerance on per-stage wall time; "
                       "omitted = wall-clock not gated (hosts are noisy; "
                       "use a wide value like 10.0 on shared CI runners)")

    ts = trsub.add_parser("summary", help="per-stage cost table, "
                          "per-edit evaluation split, critical paths")
    ts.add_argument("journal", help="complete JSONL event journal (as "
                    "written by --trace-out); a truncated or corrupt "
                    "journal is refused")
    ts.add_argument("--top", type=int, default=0,
                    help="show only the N hottest stages")
    ts.add_argument("--json", action="store_true", help="JSON output")
    ts.set_defaults(func=cmd_trace)

    tf = trsub.add_parser("flame", help="flamegraph export (collapsed "
                          "stacks for flamegraph.pl, or a Chrome "
                          "trace_event JSON for Perfetto / speedscope)")
    tf.add_argument("journal")
    tf.add_argument("-o", "--out", default=None,
                    help="output path (default: stdout)")
    tf.add_argument("--format", choices=["folded", "chrome"],
                    default="folded")
    tf.add_argument("--clock", choices=["wall", "sim"], default="wall",
                    help="weight stacks by wall microseconds or simulated "
                    "seconds (folded format; chrome carries both)")
    tf.set_defaults(func=cmd_trace)

    td = trsub.add_parser("diff", help="structural diff of two journals; "
                          "attributes regressions to stages, exit 1 on any")
    td.add_argument("base", help="baseline journal (the 'before' run)")
    td.add_argument("new", help="fresh journal (the 'after' run)")
    td.add_argument("--metrics", nargs=2, metavar=("BASE", "NEW"),
                    default=None,
                    help="also diff two --metrics-out snapshots "
                    "(counters, gauges and histograms)")
    td.add_argument("--json", action="store_true", help="JSON output")
    tolerance_flags(td)
    td.set_defaults(func=cmd_trace)

    tc = trsub.add_parser("check", help="gate a journal against a "
                          "committed per-stage baseline, exit 1 on any "
                          "violation")
    tc.add_argument("journal")
    tc.add_argument("--baseline", required=True,
                    help="baseline JSON (see repro.obs.baseline)")
    tc.add_argument("--update", action="store_true",
                    help="regenerate the baseline from this journal "
                    "instead of checking")
    tc.add_argument("--json", action="store_true", help="JSON output")
    tolerance_flags(tc)
    tc.set_defaults(func=cmd_trace)

    return parser


def _resolve_trace_out(args: argparse.Namespace) -> Optional[str]:
    """``--trace-out`` wins; otherwise a path-valued $REPRO_TRACE sets
    the destination ("1"/"0"/"" only toggle in-process recording)."""
    flag = getattr(args, "trace_out", None)
    if flag:
        return flag
    env = trace_env_value()
    if env and env not in ("0", "1"):
        return env
    return None


def _export_observability(
    recorder: TraceRecorder,
    args: argparse.Namespace,
    command: List[str],
    trace_out: Optional[str],
    metrics_out: Optional[str],
) -> None:
    from .obs.export import run_manifest, write_journal, write_metrics

    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "func" and isinstance(value, (str, int, float, bool, type(None)))
    }
    subject = getattr(args, "run", None) or getattr(args, "file", None) or ""
    if trace_out:
        write_journal(recorder, trace_out, manifest=run_manifest(
            command=command, config=config, subject=subject))
    if metrics_out:
        write_metrics(recorder, metrics_out)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", None),
                      getattr(args, "quiet", False))
    if getattr(args, "interp_backend", None):
        # The engine is a process setting: every interpreted run reads
        # the default.
        set_default_backend(args.interp_backend)
    try:
        return _run_command(args, ["repro", *argv])
    except BrokenPipeError:
        raise  # the __main__ shim maps it to the SIGPIPE exit status
    except (ReproError, OSError, sqlite3.DatabaseError) as exc:
        # Bad input, a missing file, a store that is no database: one
        # line naming the verb, not a traceback.
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1


def _run_command(args: argparse.Namespace, command: List[str]) -> int:
    trace_out = _resolve_trace_out(args)
    metrics_out = getattr(args, "metrics_out", None)
    progress = bool(getattr(args, "progress", False))
    if not (trace_out or metrics_out or progress):
        return args.func(args)
    recorder = TraceRecorder()
    sinks = attach_cli_sinks(recorder, progress=progress)
    previous = install_recorder(recorder)
    try:
        return args.func(args)
    finally:
        # Export even on failure: a trace of a crashed run is exactly
        # when you want the journal.
        for sink in sinks:
            try:
                sink.close()
            except Exception:
                pass
        _export_observability(recorder, args, command, trace_out, metrics_out)
        install_recorder(previous)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
