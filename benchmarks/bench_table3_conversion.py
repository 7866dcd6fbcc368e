"""Table 3 — Subjects and overall results.

For each of P1–P10: did HeteroGen produce an HLS-compatible version with
identical test behaviour, and did the converted version outperform the
CPU original?

Paper's shape: 10/10 HLS-compatible, 9/10 faster (P1, loop-free, is the
single ✗).
"""

import pytest

from repro.subjects import all_subjects

from _shared import transpile, write_table


def run_table3():
    rows = []
    for subject in all_subjects():
        result = transpile(subject.id, "HeteroGen")
        rows.append((subject, result))
    return rows


def render(rows):
    header = (
        f"{'ID':4} {'Subject':24} {'Compat':7} {'Behaves':8} "
        f"{'Faster?':8} {'Speedup':8} {'Edits':6} {'Repair(min)':>11} "
        f"{'Cache':>6}"
    )
    lines = ["Table 3 — subjects and overall results", header, "-" * len(header)]
    for subject, result in rows:
        stats = result.search_result.stats
        lines.append(
            f"{subject.id:4} {subject.name:24} "
            f"{'yes' if result.hls_compatible else 'NO':7} "
            f"{'yes' if result.behavior_preserved else 'NO':8} "
            f"{'yes' if result.improved_performance else 'no':8} "
            f"{result.speedup:7.2f}x {len(result.applied_edits):6} "
            f"{result.search_result.repair_minutes:11.1f} "
            f"{stats.cache_hit_ratio:6.0%}"
        )
    compat = sum(1 for _s, r in rows if r.hls_compatible and r.behavior_preserved)
    faster = sum(1 for _s, r in rows if r.improved_performance)
    speedups = [r.speedup for _s, r in rows if r.improved_performance]
    mean = sum(speedups) / len(speedups) if speedups else 0.0
    attempts = sum(r.search_result.stats.attempts for _s, r in rows)
    hits = sum(r.search_result.stats.cache_hits for _s, r in rows)
    lines.append("")
    lines.append(
        f"compatible+behaving: {compat}/10 (paper: 10/10)   "
        f"faster: {faster}/10 (paper: 9/10)   "
        f"mean speedup of improved: {mean:.2f}x (paper: 1.63x)"
    )
    lines.append(
        f"eval-cache hits: {hits}/{attempts} candidate evaluations "
        f"({hits / attempts if attempts else 0.0:.0%}) answered without "
        f"re-running the toolchain"
    )
    stage_totals = {}
    stage_counts = {}
    for _s, result in rows:
        clock = result.search_result.clock
        for activity, seconds in clock.by_activity.items():
            stage_totals[activity] = stage_totals.get(activity, 0.0) + seconds
            stage_counts[activity] = (
                stage_counts.get(activity, 0) + clock.counts.get(activity, 0)
            )
    total = sum(stage_totals.values())
    lines.append("")
    lines.append("simulated time by stage (all subjects):")
    for activity in sorted(stage_totals, key=lambda a: (-stage_totals[a], a)):
        share = stage_totals[activity] / total if total else 0.0
        lines.append(
            f"  {activity:<15}: {stage_totals[activity] / 60.0:9.1f} min "
            f"({share:5.1%}, {stage_counts[activity]} charges)"
        )
    return "\n".join(lines)


def test_table3(benchmark):
    rows = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    text = render(rows)
    write_table("table3_conversion.txt", text)

    # Shape assertions (the paper's headline results):
    for subject, result in rows:
        assert result.hls_compatible, f"{subject.id} not HLS compatible"
        assert result.behavior_preserved, f"{subject.id} diverges"
        if subject.expect_perf_improvement:
            assert result.improved_performance, f"{subject.id} not faster"
    p1 = next(r for s, r in rows if s.id == "P1")
    assert not p1.improved_performance  # the single ✗ of Table 3
