"""Interpreter engines — the batch engine against the tree-walking oracle.

The interpreter-layer microbenchmark, emitted into
``benchmarks/out/BENCH_batch.json`` (uploaded as a CI artifact).  The
end-to-end numbers live in ``bench_e2e``; the cost of lowering with and
without the code memo is the ``interp_compile`` stage of
``bench_incremental``.

Each Table 3 subject's fuzz corpus is built once and replayed three ways:

1. **per-input loop** — one ``run`` call per input on the batch engine
   (a one-input ``run_many`` batch) against the same loop on the
   tree-walker.  Target: >= 2x median.
2. **pooled pass** — one ``run_many`` call on the batch engine against
   the tree-walker's per-input loop (the loop ``engine_run_many`` falls
   back to for an engine without ``run_many``).  Target: >= 1.5x median.
3. **limit enforcement** — the per-input loop under a tight step budget
   (exercising the hoisted ``ExecLimits`` fast path), untimed.

Per-input (steps, fault-kind) traces are asserted identical across the
engines in every replay, so no speedup is bought with semantic drift.
"""

from __future__ import annotations

import statistics
import time

from repro.errors import InterpError
from repro.fuzz import FuzzConfig, fuzz_kernel
from repro.interp import ExecLimits, engine_run_many, make_engine
from repro.subjects import all_subjects

from _shared import SEED, write_bench_json, write_table

#: Corpus replays per timed loop.
REPEATS = 3

LOOSE = ExecLimits(max_steps=120_000, max_depth=128)
TIGHT = ExecLimits(max_steps=500, max_depth=16)


def build_corpora():
    """One deterministic fuzz corpus per subject (built once, replayed
    under every engine, entry point and limit)."""
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


def replay_run(engine, kernel, suite):
    """One ``run`` call per test; per-test (steps, fault-kind) pairs.

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


def replay_run_many(engine, kernel, suite):
    """One pooled pass; per-test (steps, fault-kind) pairs, with steps
    -1 for a fault (a faulting record carries no step count)."""
    trace = []
    for record in engine_run_many(engine, kernel, suite):
        if record.result is not None:
            trace.append((record.result.steps, ""))
        else:
            trace.append((-1, type(record.error).__name__))
    return trace


def time_replay(replay, engine, kernel, suite):
    """Seconds for REPEATS replays after one untimed warm-up (which also
    pays the lowering); returns them with the warm-up's trace."""
    trace = replay(engine, kernel, suite)
    start = time.perf_counter()
    for _ in range(REPEATS):
        replay(engine, kernel, suite)
    return time.perf_counter() - start, trace


def engine_for(unit, backend, limits):
    return make_engine(unit, backend=backend, limits=limits,
                       want_out_args=False)


def run_execution_loops(corpora):
    rows = []
    for subject, unit, suite in corpora:
        kernel = subject.kernel
        tree = engine_for(unit, "tree", LOOSE)
        batch = engine_for(unit, "batch", LOOSE)
        tree_s, tree_trace = time_replay(replay_run, tree, kernel, suite)
        run_s, run_trace = time_replay(replay_run, batch, kernel, suite)
        many_s, many_trace = time_replay(replay_run_many, batch, kernel,
                                         suite)
        assert run_trace == tree_trace, (
            f"{subject.id}: batch run diverged from the tree-walker on the "
            "fuzz corpus"
        )
        assert many_trace == [
            (-1 if kind else steps, kind) for steps, kind in tree_trace
        ], (
            f"{subject.id}: batch run_many diverged from the tree-walker on "
            "the fuzz corpus"
        )
        rows.append({
            "subject": subject.id,
            "tests": len(suite),
            "tree_seconds": round(tree_s, 4),
            "batch_run_seconds": round(run_s, 4),
            "batch_run_many_seconds": round(many_s, 4),
            "run_speedup": round(tree_s / run_s, 2) if run_s else 0.0,
            "run_many_speedup": round(tree_s / many_s, 2) if many_s else 0.0,
        })
    return rows


def run_limit_enforcement(corpora):
    """Tight-budget replay: the hoisted-limits fast path must preserve
    every observable (steps at abort, fault kind) across engines."""
    rows = []
    for subject, unit, suite in corpora:
        tree_trace = replay_run(engine_for(unit, "tree", TIGHT),
                                subject.kernel, suite)
        batch_trace = replay_run(engine_for(unit, "batch", TIGHT),
                                 subject.kernel, suite)
        assert batch_trace == tree_trace, (
            f"{subject.id}: engines diverged under the tight step budget"
        )
        rows.append({
            "subject": subject.id,
            "aborted_tests": sum(1 for _steps, kind in tree_trace if kind),
        })
    return rows


def test_batch_backend(benchmark):
    corpora = build_corpora()
    loop_rows = benchmark.pedantic(
        run_execution_loops, args=(corpora,), rounds=1, iterations=1
    )
    limit_rows = run_limit_enforcement(corpora)

    run_speedup = statistics.median(r["run_speedup"] for r in loop_rows)
    many_speedup = statistics.median(r["run_many_speedup"] for r in loop_rows)
    payload = {
        "repeats": REPEATS,
        "execution_loop": loop_rows,
        "median_run_speedup": run_speedup,
        "median_run_many_speedup": many_speedup,
        "limit_enforcement": limit_rows,
    }
    write_bench_json("BENCH_batch.json", payload)

    lines = [
        "Batch engine vs the tree-walker's per-input loop",
        f"{'ID':4} {'Tests':>5} {'Tree(s)':>8} {'Run(s)':>8} "
        f"{'RunMany(s)':>10} {'Run':>7} {'RunMany':>8} {'Aborts':>6}",
    ]
    for row, limits in zip(loop_rows, limit_rows):
        lines.append(
            f"{row['subject']:4} {row['tests']:5} "
            f"{row['tree_seconds']:8.3f} {row['batch_run_seconds']:8.3f} "
            f"{row['batch_run_many_seconds']:10.3f} "
            f"{row['run_speedup']:6.2f}x {row['run_many_speedup']:7.2f}x "
            f"{limits['aborted_tests']:6}"
        )
    lines += [
        "",
        f"median per-input run speedup: {run_speedup:.2f}x (target: >= 2x)",
        f"median pooled run_many speedup: {many_speedup:.2f}x "
        f"(target: >= 1.5x)",
        "Aborts: tests cut short by the tight step budget; steps and "
        "fault kinds equal across engines",
    ]
    write_table("bench_batch.txt", "\n".join(lines))

    assert run_speedup >= 2.0
    assert many_speedup >= 1.5
