"""Process-parallel sweeps × the persistent result store.

The full workers × store matrix, emitted into
``benchmarks/out/BENCH_parallel.json`` (mirrored to the repo root and
uploaded as a CI artifact): for each worker count in
:data:`WORKER_COUNTS`, one **cold** ten-subject HeteroGen sweep against
a fresh store file and one **warm** rerun against the store the cold
sweep just filled.  Three guarantees are asserted along the way:

1. every cell's per-subject results (history, clock journal, attempts,
   final source) are bit-identical — parallelism and the store may only
   move wall-clock;
2. the warm rerun answers >= 50 % of its evaluations from the store
   (in practice ~100 %: the sweep is deterministic);
3. on a host with >= 4 CPUs, the cold sweep at 4 process workers is
   >= 2x faster than at 1 worker.  Subject-level fan-out
   (:func:`repro.core.parallel.run_subjects`) is what scales — inside
   one search, candidate evaluation is only ~20 % of wall-clock and is
   consumed in strict priority order, so candidate-grain speculation
   alone cannot reach 2x.  On smaller hosts the matrix is still
   measured and recorded, but the speedup assertion is skipped (and
   flagged in the payload): you cannot buy wall-clock parallelism the
   kernel does not offer;
4. a warm (100 %-hit) rerun is never slower than its cold run at any
   worker count (one retry absorbs host noise).

A second section measures the **delta wire format** at candidate grain:
the same ten subjects swept with ``executor="process"`` in the parent —
with delta wire on (graft on and ``REPRO_AST_GRAFT=0``) and once with
``REPRO_DELTA_WIRE=0`` — under
:func:`~repro.core.parallel.set_wire_accounting`.  All three sweeps
must be bit-identical; mean pickle bytes per job must drop by
:data:`MIN_WIRE_BYTES_RATIO`; and with AST grafting on, mean worker
parse seconds per *delta* job must drop by
:data:`MIN_PARSE_SECONDS_RATIO` against the PR 8 recorded baseline
(:data:`PR8_BASELINE_PARSE_SECONDS`) and by
:data:`MIN_INRUN_PARSE_RATIO` against the same-run graft-off sweep
(both enforced under ``REPRO_PARALLEL_ENFORCE``, recorded always).  The per-job overhead breakdown (splice seconds,
worker parse/graft/uid-remap seconds, per-tier cache hit rates,
resends) lands in the payload side by side for both graft modes.

``REPRO_PARALLEL_ENFORCE=1`` (the CI ``parallel-perf`` job) refuses to
run on a host with fewer than :data:`TARGET_WORKERS` CPUs instead of
silently recording an unenforced matrix.
"""

from __future__ import annotations

import itertools
import os
import time
from pathlib import Path

import pytest

from repro.baselines.variants import make_heterogen
from repro.cfront import nodes as N
from repro.cfront.graft import GRAFT_ENV, clear_decl_templates
from repro.core.parallel import (
    DELTA_ENV,
    reset_wire_totals,
    run_subjects,
    set_wire_accounting,
    shutdown_pool,
    wire_totals,
)
from repro.core.store import close_stores
from repro.hls.memo import clear_analysis_caches
from repro.subjects import all_subjects, get_subject

from _shared import OUT_DIR, config_for, write_bench_json, write_table

WORKER_COUNTS = (1, 2, 4, 8)

#: Worker count whose cold sweep must beat the 1-worker cold sweep 2x
#: (enforced only when the host can actually run 4 workers at once).
TARGET_WORKERS = 4
TARGET_SPEEDUP = 2.0
MIN_WARM_HIT_RATE = 0.5
#: Mean pickle bytes per job: full-source sweep vs delta-wire sweep.
MIN_WIRE_BYTES_RATIO = 5.0
#: Mean worker parse seconds per *delta* job before decl-grain grafting
#: existed: the PR 8 recorded bench (full reassembled-unit re-parse per
#: job, 2-worker wire sweep).  The PR 9 acceptance target is a >=5x
#: reduction of this mean with grafting on.
PR8_BASELINE_PARSE_SECONDS = 0.00944
#: Floor for ``PR8_BASELINE_PARSE_SECONDS / on-mean`` (the acceptance
#: criterion).  Delta jobs only — a cold process answers its first
#: delta job per context with a DeltaMiss and the resent full job pays
#: a full parse in either mode, so full jobs are bucketed separately.
#: Wall-clock, so the hard assertion runs under :data:`ENFORCE_ENV`
#: like the speedup floor; the measured ratio is always recorded.
MIN_PARSE_SECONDS_RATIO = 5.0
#: Floor for the stricter same-run graft-off/graft-on mean ratio, both
#: sweeps at :data:`WIRE_WORKERS` in this very process.  Contention-
#: free single-worker sweeps measure ~4.5-5.1x on a 1-CPU host: the
#: on-side mean is dominated by genuinely novel candidate edits (one
#: mini-parse each, unavoidable by caching), so the floor sits below
#: the baseline target with ~12% noise margin.
MIN_INRUN_PARSE_RATIO = 4.0
#: Pool width for the candidate-grain wire sweep (candidate evaluation
#: inside one search, not subject fan-out).  One worker: the wire sweep
#: measures per-job parse cost, not pool throughput, and a single
#: worker keeps the measurement honest — no cross-worker duplicate
#: mini-parses (each process misses independently; ProcessPoolExecutor
#: offers no job affinity) and no core contention on small hosts.
WIRE_WORKERS = 1
#: Set to 1 (the CI parallel-perf job does) to refuse hosts that cannot
#: enforce the speedup target instead of recording an unenforced matrix.
ENFORCE_ENV = "REPRO_PARALLEL_ENFORCE"

#: Result fields that must be bit-identical across every cell.  Cache
#: and store counters are deliberately absent: ``cache_hits`` counts
#: evaluations answered without running the toolchain (any tier), so
#: cold and warm runs *should* differ there — that difference is the
#: entire point of the store.
IDENTICAL_FIELDS = (
    "subject",
    "success",
    "hls_compatible",
    "repair_minutes",
    "clock_seconds",
    "history",
    "attempts",
    "final_source",
)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _fresh_store(workers: int) -> str:
    """A per-cell store file (removing any previous run's leftovers)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"parallel_store_w{workers}.sqlite"
    for suffix in ("", "-wal", "-shm"):
        leftover = Path(str(path) + suffix)
        if leftover.exists():
            leftover.unlink()
    return str(path)


def _run_cell(subject_ids, config, workers, store_path):
    """One sweep cell: fresh pool, cold parent caches, timed."""
    # Every cell forks its workers from the same parent state: analysis
    # memos cleared, no warm pool inherited from the previous cell.
    clear_analysis_caches()
    shutdown_pool()
    close_stores()
    start = time.perf_counter()
    summaries = run_subjects(
        subject_ids, "HeteroGen", config, workers, store_path=store_path
    )
    elapsed = time.perf_counter() - start
    return summaries, elapsed


def _comparable(summaries):
    return [{k: s[k] for k in IDENTICAL_FIELDS} for s in summaries]


def _hit_rate(summaries):
    hits = sum(s["store_hits"] for s in summaries)
    misses = sum(s["store_misses"] for s in summaries)
    return hits / (hits + misses) if hits + misses else 0.0


def run_matrix(subject_ids, config):
    cells = []
    reference = None
    for workers in WORKER_COUNTS:
        store_path = _fresh_store(workers)
        cold_summaries, cold_s = _run_cell(
            subject_ids, config, workers, store_path
        )
        warm_summaries, warm_s = _run_cell(
            subject_ids, config, workers, store_path
        )
        if warm_s > cold_s:
            # A 100%-hit warm sweep must not lose to cold; one retry
            # absorbs host noise before the assertion below bites.
            retry_summaries, retry_s = _run_cell(
                subject_ids, config, workers, store_path
            )
            if retry_s < warm_s:
                warm_summaries, warm_s = retry_summaries, retry_s
        assert _hit_rate(cold_summaries) == 0.0, (
            f"workers={workers}: the cold store was not cold"
        )
        warm_rate = _hit_rate(warm_summaries)
        comparable = _comparable(cold_summaries)
        assert _comparable(warm_summaries) == comparable, (
            f"workers={workers}: warm-store rerun diverged from the cold run"
        )
        if reference is None:
            reference = comparable
        assert comparable == reference, (
            f"workers={workers}: results diverged from the 1-worker cell"
        )
        cells.append({
            "workers": workers,
            "cold_seconds": round(cold_s, 1),
            "warm_seconds": round(warm_s, 1),
            "warm_store_hit_rate": round(warm_rate, 3),
        })
    return cells


def _run_wire_sweep(subject_ids, delta, graft="on"):
    """Ten subjects at candidate grain: ``executor="process"`` in the
    parent, wire accounting on, delta wire forced on or off, AST graft
    mode forced to *graft*.  Returns the accumulated wire totals, a
    per-subject comparable (history and fitness — bit-identity across
    every mode), and wall-clock."""
    previous = os.environ.get(DELTA_ENV)
    previous_graft = os.environ.get(GRAFT_ENV)
    os.environ[DELTA_ENV] = "1" if delta else "0"
    os.environ[GRAFT_ENV] = graft
    shutdown_pool()
    close_stores()
    clear_decl_templates()
    reset_wire_totals()
    set_wire_accounting(True)
    comparables = []
    start = time.perf_counter()
    try:
        for subject_id in subject_ids:
            # Same parent state for both modes: uids appear in history
            # labels, so both sweeps must mint them identically.
            N._uid_counter = itertools.count(1)
            clear_analysis_caches()
            subject = get_subject(subject_id)
            config = config_for("HeteroGen")
            config.search.executor = "process"
            config.search.workers = WIRE_WORKERS
            result = make_heterogen(config).transpile(
                subject.source,
                kernel_name=subject.kernel,
                solution=subject.solution,
                host_name=subject.host,
                host_args=list(subject.host_args),
                tests=subject.existing_test_list() or None,
                subject_name=subject.id,
            )
            best = result.search_result.best
            comparables.append({
                "subject": subject_id,
                "history": list(result.search_result.history),
                "fitness": best.fitness if best is not None else None,
            })
        elapsed = time.perf_counter() - start
        totals = wire_totals()
    finally:
        set_wire_accounting(False)
        reset_wire_totals()
        shutdown_pool()
        if previous is None:
            os.environ.pop(DELTA_ENV, None)
        else:
            os.environ[DELTA_ENV] = previous
        if previous_graft is None:
            os.environ.pop(GRAFT_ENV, None)
        else:
            os.environ[GRAFT_ENV] = previous_graft
    return totals, comparables, elapsed


def _wire_mode_stats(totals, elapsed):
    measured = max(1, totals["measured_jobs"])
    results = max(1, totals["worker_results"])
    return {
        "jobs": totals["jobs"],
        "delta_jobs": totals["delta_jobs"],
        "full_jobs": totals["full_jobs"],
        "resends": totals["resends"],
        "mean_wire_bytes_per_job": round(totals["wire_bytes"] / measured, 1),
        "splice_seconds": round(totals["splice_seconds"], 3),
        "mean_splice_seconds_per_job": round(
            totals["splice_seconds"] / results, 6
        ),
        "worker_parse_seconds": round(totals["parse_seconds"], 3),
        "mean_worker_parse_seconds_per_job": round(
            totals["parse_seconds"] / results, 6
        ),
        "mean_worker_parse_seconds_per_delta_job": round(
            totals["delta_parse_seconds"] / max(1, totals["delta_results"]), 6
        ),
        "unit_cache_hit_rate": round(
            totals["unit_cache_hits"] / results, 3
        ),
        "grafted_jobs": totals["grafted_jobs"],
        "graft_seconds": round(totals["graft_seconds"], 3),
        "mean_graft_seconds_per_job": round(
            totals["graft_seconds"] / results, 6
        ),
        "uid_remap_seconds": round(totals["uid_remap_seconds"], 3),
        "mean_uid_remap_seconds_per_job": round(
            totals["uid_remap_seconds"] / results, 6
        ),
        "decl_cache_hit_rate": round(
            totals["decl_cache_hits"]
            / max(1, totals["decl_cache_hits"] + totals["decl_cache_misses"]),
            3,
        ),
        "sweep_seconds": round(elapsed, 1),
    }


def wire_stats_section(subject_ids):
    """Delta-wire sweeps with graft on and off, plus the full-source
    sweep: identical results across all three, >= MIN_WIRE_BYTES_RATIO
    mean pickle-bytes drop per job, and the graft-on/off worker parse
    seconds reported side by side for the MIN_PARSE_SECONDS_RATIO
    floor."""
    delta_totals, delta_results, delta_s = _run_wire_sweep(
        subject_ids, True, graft="on"
    )
    off_totals, off_results, off_s = _run_wire_sweep(
        subject_ids, True, graft="off"
    )
    full_totals, full_results, full_s = _run_wire_sweep(
        subject_ids, False, graft="off"
    )
    assert delta_results == off_results, (
        "graft-on sweep diverged from the REPRO_AST_GRAFT=0 sweep"
    )
    assert delta_results == full_results, (
        "delta-wire sweep diverged from the REPRO_DELTA_WIRE=0 sweep"
    )
    delta_stats = _wire_mode_stats(delta_totals, delta_s)
    off_stats = _wire_mode_stats(off_totals, off_s)
    full_stats = _wire_mode_stats(full_totals, full_s)
    ratio = (
        full_stats["mean_wire_bytes_per_job"]
        / max(1.0, delta_stats["mean_wire_bytes_per_job"])
    )
    # The elision claim is about delta jobs: a cold process answers its
    # first delta job per context with a DeltaMiss and the resent full
    # job pays a full parse in either mode, so the per-kind bucket keeps
    # those out of the comparison.
    parse_ratio = off_stats["mean_worker_parse_seconds_per_delta_job"] / max(
        1e-9, delta_stats["mean_worker_parse_seconds_per_delta_job"]
    )
    baseline_ratio = PR8_BASELINE_PARSE_SECONDS / max(
        1e-9, delta_stats["mean_worker_parse_seconds_per_delta_job"]
    )
    return {
        "workers": WIRE_WORKERS,
        "delta": delta_stats,
        "delta_graft_off": off_stats,
        "full": full_stats,
        "wire_bytes_ratio": round(ratio, 2),
        "min_wire_bytes_ratio": MIN_WIRE_BYTES_RATIO,
        "worker_parse_seconds_ratio": round(parse_ratio, 2),
        "min_inrun_parse_ratio": MIN_INRUN_PARSE_RATIO,
        "pr8_baseline_parse_seconds": PR8_BASELINE_PARSE_SECONDS,
        "parse_ratio_vs_pr8_baseline": round(baseline_ratio, 2),
        "min_parse_seconds_ratio": MIN_PARSE_SECONDS_RATIO,
    }


def test_parallel_sweep(benchmark):
    cpus = _available_cpus()
    enforce_requested = os.environ.get(ENFORCE_ENV, "") == "1"
    if enforce_requested and cpus < TARGET_WORKERS:
        pytest.skip(
            f"{ENFORCE_ENV}=1 requires >= {TARGET_WORKERS} CPUs to enforce "
            f"the speedup target; this host has {cpus}"
        )

    subject_ids = [s.id for s in all_subjects()]
    config = config_for("HeteroGen")
    config.search.workers = 1  # subject-level fan-out only
    cells = benchmark.pedantic(
        run_matrix, args=(subject_ids, config), rounds=1, iterations=1
    )
    shutdown_pool()
    close_stores()

    wire = wire_stats_section(subject_ids)
    close_stores()

    baseline = next(c for c in cells if c["workers"] == 1)
    target = next(c for c in cells if c["workers"] == TARGET_WORKERS)
    for cell in cells:
        cell["cold_speedup_vs_1"] = round(
            baseline["cold_seconds"] / cell["cold_seconds"], 2
        )
    speedup_enforced = cpus >= TARGET_WORKERS

    payload = {
        "subjects": subject_ids,
        "available_cpus": cpus,
        "matrix": cells,
        "cold_speedup_at_target": target["cold_speedup_vs_1"],
        "target_workers": TARGET_WORKERS,
        "target_speedup": TARGET_SPEEDUP,
        "speedup_target_enforced": speedup_enforced,
        "speedup_enforce_requested": enforce_requested,
        "min_warm_hit_rate": MIN_WARM_HIT_RATE,
        "wire": wire,
    }
    write_bench_json("BENCH_parallel.json", payload)

    lines = [
        "Process-parallel sweeps x persistent store "
        f"({len(subject_ids)} subjects, {cpus} CPUs available)",
        f"{'Workers':>7} {'Cold(s)':>8} {'Warm(s)':>8} {'WarmHit':>8} "
        f"{'Speedup':>8}",
    ]
    for cell in cells:
        lines.append(
            f"{cell['workers']:7} {cell['cold_seconds']:8.1f} "
            f"{cell['warm_seconds']:8.1f} "
            f"{cell['warm_store_hit_rate']:7.0%} "
            f"{cell['cold_speedup_vs_1']:7.2f}x"
        )
    lines.append("")
    lines.append(
        f"cold speedup at {TARGET_WORKERS} workers: "
        f"{target['cold_speedup_vs_1']:.2f}x "
        f"(target {TARGET_SPEEDUP:.0f}x, "
        f"{'enforced' if speedup_enforced else 'not enforced: too few CPUs'})"
    )
    lines.append("")
    lines.append(
        f"delta wire at {WIRE_WORKERS} workers (candidate grain): "
        f"{wire['delta']['mean_wire_bytes_per_job']:.0f} B/job vs "
        f"{wire['full']['mean_wire_bytes_per_job']:.0f} B/job full "
        f"({wire['wire_bytes_ratio']:.1f}x, "
        f"target {MIN_WIRE_BYTES_RATIO:.0f}x); "
        f"unit-cache hit rate {wire['delta']['unit_cache_hit_rate']:.0%}, "
        f"splice {wire['delta']['mean_splice_seconds_per_job'] * 1e3:.2f} "
        f"ms/job, {wire['delta']['resends']} resends"
    )
    on, off = wire["delta"], wire["delta_graft_off"]
    lines.append(
        f"AST graft on: parse "
        f"{on['mean_worker_parse_seconds_per_delta_job'] * 1e3:.2f} "
        f"ms/delta job + graft "
        f"{on['mean_graft_seconds_per_job'] * 1e3:.2f} ms/job + uid remap "
        f"{on['mean_uid_remap_seconds_per_job'] * 1e3:.2f} ms/job, "
        f"decl-cache hit rate {on['decl_cache_hit_rate']:.0%}, "
        f"{on['grafted_jobs']} grafted jobs; graft off: parse "
        f"{off['mean_worker_parse_seconds_per_delta_job'] * 1e3:.2f} "
        f"ms/delta job "
        f"({wire['worker_parse_seconds_ratio']:.1f}x in-run drop, "
        f"floor {MIN_INRUN_PARSE_RATIO:.0f}x; "
        f"{wire['parse_ratio_vs_pr8_baseline']:.1f}x vs PR 8 baseline "
        f"{PR8_BASELINE_PARSE_SECONDS * 1e3:.2f} ms, "
        f"target {MIN_PARSE_SECONDS_RATIO:.0f}x)"
    )
    write_table("bench_parallel.txt", "\n".join(lines))

    for cell in cells:
        assert cell["warm_store_hit_rate"] >= MIN_WARM_HIT_RATE
        assert cell["warm_seconds"] <= cell["cold_seconds"], (
            f"workers={cell['workers']}: warm rerun "
            f"({cell['warm_seconds']}s) slower than cold "
            f"({cell['cold_seconds']}s) despite a "
            f"{cell['warm_store_hit_rate']:.0%} store hit rate"
        )
    assert wire["wire_bytes_ratio"] >= MIN_WIRE_BYTES_RATIO
    assert wire["delta"]["grafted_jobs"] > 0, (
        "graft-on sweep never exercised the graft path"
    )
    assert wire["delta_graft_off"]["grafted_jobs"] == 0, (
        "REPRO_AST_GRAFT=0 sweep still grafted"
    )
    if enforce_requested:
        # Wall-clock ratios: enforced only where the runner is
        # dedicated enough to assert timing (the CI parallel-perf job),
        # always recorded in the payload above.  The acceptance target
        # is the drop against the PR 8 recorded baseline (whole-unit
        # re-parse per delta job); the same-run off/on ratio is a
        # stricter contention-free cross-check with its own floor.
        assert (
            wire["parse_ratio_vs_pr8_baseline"] >= MIN_PARSE_SECONDS_RATIO
        ), (
            f"worker parse seconds per delta job dropped only "
            f"{wire['parse_ratio_vs_pr8_baseline']:.1f}x vs the PR 8 "
            f"baseline (target {MIN_PARSE_SECONDS_RATIO:.0f}x)"
        )
        assert (
            wire["worker_parse_seconds_ratio"] >= MIN_INRUN_PARSE_RATIO
        ), (
            f"worker parse seconds dropped only "
            f"{wire['worker_parse_seconds_ratio']:.1f}x with graft on "
            f"in the same run (floor {MIN_INRUN_PARSE_RATIO:.0f}x)"
        )
    if speedup_enforced:
        assert target["cold_speedup_vs_1"] >= TARGET_SPEEDUP
