"""Interpreter engines — the tree-walking oracle vs the batch engine.

A layer microbenchmark of per-input execution, emitted into
``benchmarks/out/BENCH_interp.json`` (uploaded as a CI artifact).  The
end-to-end numbers live in ``bench_e2e``.

1. **interpreter loop** — replay each Table 3 subject's fuzz corpus one
   ``run`` call at a time under both engines and compare wall-clock;
   step counts are asserted bit-identical along the way, so the speedup
   is never bought with semantic drift.  Target: >= 2x median.
2. **limit enforcement** — the same replay under a tight step budget
   (exercising the hoisted ``ExecLimits`` fast path): per-test steps and
   fault kinds must be identical across engines, proving the hoisting
   changed no behaviour.
"""

from __future__ import annotations

import statistics
import time

from repro.errors import InterpError
from repro.fuzz import FuzzConfig, fuzz_kernel
from repro.interp import ExecLimits, make_engine
from repro.subjects import all_subjects

from _shared import SEED, write_bench_json, write_table

#: Corpus replays per engine when timing the interpreter loop.
REPEATS = 3

LOOSE = ExecLimits(max_steps=120_000, max_depth=128)
TIGHT = ExecLimits(max_steps=500, max_depth=16)


def build_corpora():
    """One deterministic fuzz corpus per subject (built once, replayed
    under every engine/limit combination)."""
    corpora = []
    for subject in all_subjects():
        unit = subject.parse()
        report = fuzz_kernel(
            unit,
            subject.kernel,
            FuzzConfig(max_execs=250, plateau_execs=250, seed=SEED),
            seeds=subject.existing_test_list() or None,
            backend="tree",
        )
        corpora.append((subject, unit, report.suite(40)))
    return corpora


def replay(engine, kernel, suite):
    """Run the suite once; returns per-test (steps, fault-kind) pairs.

    ``engine.steps`` is populated even when a run raises, so the trace is
    comparable between engines on faulting inputs too."""
    trace = []
    for test in suite:
        try:
            engine.run(kernel, test)
            trace.append((engine.steps, ""))
        except InterpError as exc:
            trace.append((engine.steps, type(exc).__name__))
    return trace


def time_backend(unit, kernel, suite, backend, limits):
    engine = make_engine(unit, backend=backend, limits=limits,
                         want_out_args=False)
    trace = replay(engine, kernel, suite)  # warm-up (and the lowering)
    start = time.perf_counter()
    for _ in range(REPEATS):
        replay(engine, kernel, suite)
    return time.perf_counter() - start, trace


def compare(corpora, limits):
    """Per subject: both engines' replay seconds and their shared trace."""
    rows = []
    for subject, unit, suite in corpora:
        tree_s, tree_trace = time_backend(unit, subject.kernel, suite,
                                          "tree", limits)
        batch_s, batch_trace = time_backend(unit, subject.kernel, suite,
                                            "batch", limits)
        assert tree_trace == batch_trace, (
            f"{subject.id}: engines diverged on the fuzz corpus"
        )
        rows.append((subject, suite, tree_s, batch_s, batch_trace))
    return rows


def run_interp_loop(corpora):
    return [
        {
            "subject": subject.id,
            "tests": len(suite),
            "tree_seconds": round(tree_s, 4),
            "batch_seconds": round(batch_s, 4),
            "speedup": round(tree_s / batch_s, 2) if batch_s else 0.0,
        }
        for subject, suite, tree_s, batch_s, _trace in compare(corpora, LOOSE)
    ]


def run_limit_microbench(corpora):
    """Tight-budget replay: the hoisted-limits fast path must preserve
    every observable (steps at abort, fault kind) across engines."""
    return [
        {
            "subject": subject.id,
            "aborted_tests": sum(1 for _s, kind in trace if kind),
            "tree_seconds": round(tree_s, 4),
            "batch_seconds": round(batch_s, 4),
        }
        for subject, _suite, tree_s, batch_s, trace in compare(corpora, TIGHT)
    ]


def test_interp_backend(benchmark):
    corpora = build_corpora()
    loop_rows = benchmark.pedantic(
        run_interp_loop, args=(corpora,), rounds=1, iterations=1
    )
    limit_rows = run_limit_microbench(corpora)

    median_speedup = statistics.median(r["speedup"] for r in loop_rows)
    payload = {
        "repeats": REPEATS,
        "interpreter_loop": loop_rows,
        "median_speedup": median_speedup,
        "limit_enforcement": limit_rows,
    }
    write_bench_json("BENCH_interp.json", payload)

    lines = [
        "Interpreter engines — batch vs tree-walking, one run per input",
        f"{'ID':4} {'Tests':>5} {'Tree(s)':>8} {'Batch(s)':>9} {'Speedup':>8}",
    ]
    for row in loop_rows:
        lines.append(
            f"{row['subject']:4} {row['tests']:5} {row['tree_seconds']:8.3f} "
            f"{row['batch_seconds']:9.3f} {row['speedup']:7.2f}x"
        )
    lines.append("")
    lines.append(f"median interpreter-loop speedup: {median_speedup:.2f}x "
                 f"(target: >= 2x)")
    write_table("bench_interp.txt", "\n".join(lines))

    assert median_speedup >= 2.0
