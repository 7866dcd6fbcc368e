"""Batch engine — the pooled ``run_many`` pass and the cost of lowering.

A layer microbenchmark, emitted into ``benchmarks/out/BENCH_batch.json``
(uploaded as a CI artifact, mirrored to the repo root).  The end-to-end
numbers live in ``bench_e2e``.

1. **execution loop** — replay each Table 3 subject's fuzz corpus through
   one ``run_many`` call on the batch engine against a per-input ``run``
   loop on the tree-walker.  Per-input (steps, fault-kind) traces are
   asserted identical along the way, so the speedup is never bought with
   semantic drift.  Target: >= 1.5x median.
2. **lowering** — per subject, the seconds to lower an edited clone (one
   literal in the kernel changed, as a repair edit changes one function)
   with an empty code memo against a memo that the parent's lowering
   filled, so every function but the edited one is a memo hit.  Target:
   the memo makes lowering the clones >= 1.2x cheaper in total.
"""

from __future__ import annotations

import copy
import statistics
import time

from repro.cfront import nodes as N
from repro.fuzz import FuzzConfig, fuzz_kernel
from repro.interp import ExecLimits, engine_run_many, make_engine
from repro.interp.batch import _CODE_MEMO, BatchProgram
from repro.memo import clear_analysis_caches
from repro.subjects import all_subjects

from _shared import SEED, write_bench_json, write_table

#: Corpus replays per engine when timing the execution loop, and
#: lowerings per subject when timing the lowering.
REPEATS = 3

LOOSE = ExecLimits(max_steps=120_000, max_depth=128)


def build_corpora():
    """One deterministic fuzz corpus per subject (built once, replayed
    under both engines)."""
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
    """One pass over the suite; per-test (steps, fault-kind) trace.

    Both engines go through :func:`engine_run_many`, so the batch side
    exercises the pooled ``run_many`` fast path while the tree side runs
    the per-input loop — exactly the code paths the consumers use.
    """
    trace = []
    for record in engine_run_many(engine, kernel, suite):
        if record.result is not None:
            trace.append((record.result.steps, ""))
        else:
            trace.append((-1, type(record.error).__name__))
    return trace


def time_backend(unit, kernel, suite, backend):
    engine = make_engine(unit, backend=backend, limits=LOOSE,
                         want_out_args=False)
    trace = replay(engine, kernel, suite)  # warm-up (and the lowering)
    start = time.perf_counter()
    for _ in range(REPEATS):
        replay(engine, kernel, suite)
    return time.perf_counter() - start, trace


def run_batch_loop(corpora):
    rows = []
    for subject, unit, suite in corpora:
        tree_s, tree_trace = time_backend(unit, subject.kernel, suite, "tree")
        batch_s, batch_trace = time_backend(unit, subject.kernel, suite,
                                            "batch")
        assert tree_trace == batch_trace, (
            f"{subject.id}: batch diverged from the tree-walker on the "
            "fuzz corpus"
        )
        rows.append({
            "subject": subject.id,
            "tests": len(suite),
            "tree_seconds": round(tree_s, 4),
            "batch_seconds": round(batch_s, 4),
            "speedup": round(tree_s / batch_s, 2) if batch_s else 0.0,
        })
    return rows


def edited_clone(unit, kernel):
    """A clone of *unit* with the kernel's first integer literal bumped."""
    child = copy.deepcopy(unit)
    lit = next(
        n for n in child.function(kernel).walk() if isinstance(n, N.IntLit)
    )
    lit.value += 1
    return child


def time_lowering(parent, child, memo_warm):
    """Seconds for REPEATS lowerings of *child*, each after emptying the
    code memo and, if *memo_warm*, lowering *parent* (untimed).  Also
    returns how many of the child's functions hit the memo."""
    total = 0.0
    for _ in range(REPEATS):
        clear_analysis_caches()
        if memo_warm:
            BatchProgram(parent)
        hits = _CODE_MEMO.hits
        start = time.perf_counter()
        BatchProgram(child)
        total += time.perf_counter() - start
    return total, _CODE_MEMO.hits - hits


def run_lowering(corpora):
    rows = []
    for subject, unit, _suite in corpora:
        child = edited_clone(unit, subject.kernel)
        cold_s, _ = time_lowering(unit, child, memo_warm=False)
        warm_s, hits = time_lowering(unit, child, memo_warm=True)
        rows.append({
            "subject": subject.id,
            "memo_hits": hits,
            "cold_seconds": round(cold_s, 4),
            "memo_seconds": round(warm_s, 4),
        })
    clear_analysis_caches()
    return rows


def test_batch_backend(benchmark):
    corpora = build_corpora()
    loop_rows = benchmark.pedantic(
        run_batch_loop, args=(corpora,), rounds=1, iterations=1
    )
    lowering_rows = run_lowering(corpora)

    median_speedup = statistics.median(r["speedup"] for r in loop_rows)
    cold_total = sum(r["cold_seconds"] for r in lowering_rows)
    memo_total = sum(r["memo_seconds"] for r in lowering_rows)
    payload = {
        "repeats": REPEATS,
        "execution_loop": loop_rows,
        "median_speedup": median_speedup,
        "lowering": lowering_rows,
        "lowering_memo_speedup": round(cold_total / memo_total, 2),
    }
    write_bench_json("BENCH_batch.json", payload)

    lines = [
        "Batch engine — pooled run_many vs per-input tree-walking loop",
        f"{'ID':4} {'Tests':>5} {'Tree(s)':>8} {'Batch(s)':>9} {'Speedup':>8}",
    ]
    for row in loop_rows:
        lines.append(
            f"{row['subject']:4} {row['tests']:5} "
            f"{row['tree_seconds']:8.3f} {row['batch_seconds']:9.3f} "
            f"{row['speedup']:7.2f}x"
        )
    lines.append("")
    lines.append(f"median execution-loop speedup: {median_speedup:.2f}x "
                 f"(target: >= 1.5x)")
    lines += [
        "",
        "Lowering an edited clone — empty code memo vs the parent's memo",
        f"{'ID':4} {'Hits':>5} {'Cold(s)':>8} {'Memo(s)':>8}",
    ]
    for row in lowering_rows:
        lines.append(
            f"{row['subject']:4} {row['memo_hits']:5} "
            f"{row['cold_seconds']:8.4f} {row['memo_seconds']:8.4f}"
        )
    lines.append(
        f"lowering {cold_total / memo_total:.2f}x cheaper with the memo "
        f"(target: >= 1.2x)"
    )
    write_table("bench_batch.txt", "\n".join(lines))

    assert median_speedup >= 1.5
    assert cold_total >= 1.2 * memo_total
