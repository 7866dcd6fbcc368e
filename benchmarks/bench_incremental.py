"""Incremental evaluation — content-addressed caches across the pipeline.

A layer microbenchmark, emitted into ``benchmarks/out/BENCH_incremental.json``
(uploaded as a CI artifact and mirrored to the repo root).  The
end-to-end numbers live in ``bench_e2e``.

Per subject, a simulated repair chain: clone the unit with a dirty-set
naming only the kernel, mutate one literal, then run the four toolchain
stages (style check, HLS compile, schedule estimate, interpreter
lowering).  Timed once with the incremental caches on and once with
``REPRO_INCREMENTAL=0``; stage outputs are asserted identical along the
way, so the speedup is never bought with semantic drift.  Per-cache
hit/miss counters from :func:`analysis_cache_stats` show *where* the
time went.  Targets: the caches make the chains cheaper in total, no
subject regresses, and the ``batch.code`` memo makes lowering the
edited clones (the ``interp_compile`` stage) >= 1.2x cheaper.
"""

from __future__ import annotations

import gc
import itertools
import time

from repro.cfront import nodes as N
from repro.cfront.fingerprint import forced_mode
from repro.core.edits.base import Candidate, cloned_unit
from repro.hls.compiler import compile_unit
from repro.hls.memo import analysis_cache_stats, clear_analysis_caches
from repro.hls.schedule import estimate
from repro.hls.stylecheck import check_style
from repro.interp.batch import BatchProgram
from repro.subjects import all_subjects

from _shared import write_bench_json, write_table

#: Simulated repair-chain length per subject in the microbench.
CHAIN_LENGTH = 25

#: Chain repetitions per (subject, mode); the reported per-stage time is
#: the repetition minimum.  Single-shot stage timings on a shared host
#: swing by milliseconds (scheduler preemption, GC pauses) — more than
#: the few-millisecond per-stage costs being compared — and the minimum
#: is the standard estimator that filters that additive noise out.
CHAIN_REPS = 5

#: Relative slowdown below which a subject counts as *parity*, not a
#: regression.  Min-of-reps chain totals still wobble by ±1 % on a
#: shared host (measured: ±0.4 ms on 50 ms chains at 15 reps), so a
#: strict ``inc > off`` comparison of equal-cost modes is a coin flip;
#: only a slowdown the measurement can actually resolve is flagged.
REGRESSION_TOLERANCE = 0.02

#: Minimum speedup the code memo must give the lowering stage.
LOWERING_TARGET_SPEEDUP = 1.2

STAGES = ("style", "compile", "schedule", "interp_compile")


def _mutate_kernel(unit, kernel_name):
    """One single-token edit, the shape a repair iteration produces."""
    func = unit.function(kernel_name)
    for node in func.walk():
        if isinstance(node, N.IntLit) and node.value < 2**30:
            node.value += 1
            return
    # No literal to tweak: the chain still exercises clone + re-analysis.


def run_chain(subject, mode):
    """Walk a repair chain under *mode*; returns (timings, observations).

    Each link clones the previous candidate with ``dirty=[kernel]`` and
    mutates one literal in the kernel, so every non-kernel declaration
    keeps its fingerprints — the access pattern of a real repair search,
    where one edit dirties one function and the rest of the unit is
    unchanged.
    """
    # Diagnostics embed node uids; both passes must parse into identical
    # trees for the output comparison to be meaningful.
    N._uid_counter = itertools.count(1)
    # A collection pause landing inside one mode's timed window (clone
    # garbage accumulates across links) would skew a few-ms comparison;
    # collect up front, then keep the collector out of the timings.
    gc.collect()
    gc.disable()
    try:
        return _run_chain_timed(subject, mode)
    finally:
        gc.enable()


def _run_chain_timed(subject, mode):
    with forced_mode(mode):
        clear_analysis_caches()
        unit = subject.parse()
        config = subject.solution
        timings = {stage: 0.0 for stage in STAGES}
        observations = []
        candidate = Candidate(unit=unit, config=config)
        for _ in range(CHAIN_LENGTH):
            child = cloned_unit(candidate, dirty=[subject.kernel])
            _mutate_kernel(child, subject.kernel)
            t0 = time.perf_counter()
            violations = check_style(child)
            t1 = time.perf_counter()
            report = compile_unit(child, config)
            t2 = time.perf_counter()
            schedule = estimate(child, config)
            t3 = time.perf_counter()
            BatchProgram(child)
            t4 = time.perf_counter()
            timings["style"] += t1 - t0
            timings["compile"] += t2 - t1
            timings["schedule"] += t3 - t2
            timings["interp_compile"] += t4 - t3
            observations.append((
                len(violations),
                [(d.error_type, d.message, d.node_uid) for d in report.diagnostics],
                report.compile_seconds,
                schedule.cycles,
                schedule.resources,
            ))
            candidate = Candidate(unit=child, config=config)
        return timings, observations


def _best_chains(subject):
    """Min-of-:data:`CHAIN_REPS` per-stage timings for both modes.

    Repetitions interleave the modes (on, off, on, off, ...) so slow
    drift on a shared host — frequency scaling, a neighbour waking up —
    biases neither side; the minimum then filters the additive spikes.
    """
    inc_best, inc_obs = run_chain(subject, "on")
    stats = analysis_cache_stats()
    off_best, off_obs = run_chain(subject, "off")
    for _ in range(CHAIN_REPS - 1):
        for mode, best, reference in (
            ("on", inc_best, inc_obs), ("off", off_best, off_obs)
        ):
            timings, obs = run_chain(subject, mode)
            assert obs == reference, (
                f"{subject.id}: chain repetition diverged under mode {mode!r}"
            )
            for stage in STAGES:
                best[stage] = min(best[stage], timings[stage])
    return inc_best, off_best, inc_obs, off_obs, stats


def run_microbench():
    rows = []
    for subject in all_subjects():
        inc_timings, off_timings, inc_obs, off_obs, stats = (
            _best_chains(subject)
        )
        assert inc_obs == off_obs, (
            f"{subject.id}: incremental chain diverged from the legacy path"
        )
        row = {"subject": subject.id}
        for stage in STAGES:
            row[f"{stage}_off_s"] = round(off_timings[stage], 4)
            row[f"{stage}_inc_s"] = round(inc_timings[stage], 4)
        off_total = sum(off_timings.values())
        inc_total = sum(inc_timings.values())
        row["off_total_s"] = round(off_total, 4)
        row["inc_total_s"] = round(inc_total, 4)
        if inc_total > off_total * (1.0 + REGRESSION_TOLERANCE):
            row["verdict"] = "regressed"
        elif off_total > inc_total * (1.0 + REGRESSION_TOLERANCE):
            row["verdict"] = "faster"
        else:
            row["verdict"] = "parity"
        row["cache_stats"] = stats
        rows.append(row)
    return rows


def test_incremental_eval(benchmark):
    rows = benchmark.pedantic(run_microbench, rounds=1, iterations=1)

    stage_totals = {
        stage: {
            "off_s": round(sum(r[f"{stage}_off_s"] for r in rows), 4),
            "incremental_s": round(sum(r[f"{stage}_inc_s"] for r in rows), 4),
        }
        for stage in STAGES
    }
    off_total = sum(r["off_total_s"] for r in rows)
    inc_total = sum(r["inc_total_s"] for r in rows)
    lowering = stage_totals["interp_compile"]
    lowering_speedup = lowering["off_s"] / lowering["incremental_s"]

    payload = {
        "chain_length": CHAIN_LENGTH,
        "per_stage_microbench": rows,
        "stage_totals": stage_totals,
        "microbench_speedup": round(off_total / inc_total, 2) if inc_total else 0.0,
        "lowering_memo_speedup": round(lowering_speedup, 2),
    }
    write_bench_json("BENCH_incremental.json", payload)

    lines = [
        "Incremental evaluation — content-addressed caches vs full re-analysis",
        f"{'ID':4} {'Off(s)':>8} {'Incr(s)':>8} {'Speedup':>8}  Verdict",
    ]
    for row in rows:
        speedup = (
            row["off_total_s"] / row["inc_total_s"] if row["inc_total_s"] else 0.0
        )
        lines.append(
            f"{row['subject']:4} {row['off_total_s']:8.3f} "
            f"{row['inc_total_s']:8.3f} {speedup:7.2f}x  {row['verdict']}"
        )
    lines.append("")
    lines.append("per-stage totals (all subjects):")
    for stage, totals in stage_totals.items():
        lines.append(
            f"  {stage:15} {totals['off_s']:8.3f}s off   "
            f"{totals['incremental_s']:8.3f}s incremental"
        )
    lines.append(
        f"lowering {lowering_speedup:.2f}x cheaper with the code memo "
        f"(target: >= {LOWERING_TARGET_SPEEDUP}x)"
    )
    write_table("bench_incremental.txt", "\n".join(lines))

    assert inc_total < off_total
    assert lowering_speedup >= LOWERING_TARGET_SPEEDUP
    # Memo bookkeeping must pay for itself on every subject, the
    # 2-function ones included: none may show a resolvable slowdown.
    regressed = [r["subject"] for r in rows if r["verdict"] == "regressed"]
    assert not regressed, f"incremental overhead regression on {regressed}"
