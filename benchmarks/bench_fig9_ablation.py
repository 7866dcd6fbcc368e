"""Figure 9 — repair time and HLS invocations, ablated.

Per subject: simulated repair wall-clock for HeteroGen vs
WithoutDependence (dependence-blind random search, 12-hour cap), and the
fraction of repair attempts that reached a full HLS compilation for
HeteroGen vs WithoutChecker (which always compiles).

Paper's shape: dependence guidance is up to 35× faster (and
WithoutDependence fails outright on P9 within 12 hours); the style
checker avoids a large share of HLS invocations (4× speedup on P3).
"""

import pytest

from repro.subjects import all_subjects

from _shared import transpile, write_table

#: WithoutDependence is benchmarked on every subject, as in the paper.
VARIANTS = ("HeteroGen", "WithoutChecker", "WithoutDependence")


def run_fig9():
    rows = []
    for subject in all_subjects():
        per_variant = {v: transpile(subject.id, v) for v in VARIANTS}
        rows.append((subject, per_variant))
    return rows


def render(rows):
    header = (
        f"{'ID':4} {'HG(min)':>9} {'NoDep(min)':>11} {'slowdown':>9} "
        f"{'HG HLS%':>8} {'NoChk HLS%':>11} {'NoDep ok':>9}"
    )
    lines = ["Figure 9 — ablation of the two search optimizations", header,
             "-" * len(header)]
    for subject, per in rows:
        hg = per["HeteroGen"]
        nodep = per["WithoutDependence"]
        nochk = per["WithoutChecker"]
        hg_min = hg.search_result.repair_minutes
        nodep_min = nodep.search_result.repair_minutes
        slowdown = nodep_min / hg_min if hg_min else float("inf")
        lines.append(
            f"{subject.id:4} {hg_min:9.1f} {nodep_min:11.1f} {slowdown:8.1f}x "
            f"{hg.search_result.stats.hls_invocation_ratio:8.0%} "
            f"{nochk.search_result.stats.hls_invocation_ratio:11.0%} "
            f"{'yes' if nodep.success else 'NO':>9}"
        )
    lines.append("")
    lines.append(
        "paper: WithoutDependence up to 35x slower (fails on P9 in 12h); "
        "the checker lets HeteroGen skip a large share of HLS invocations."
    )
    return "\n".join(lines)


def test_fig9(benchmark):
    rows = benchmark.pedantic(run_fig9, rounds=1, iterations=1)
    write_table("fig9_ablation.txt", render(rows))

    slowdowns = []
    for subject, per in rows:
        hg = per["HeteroGen"]
        nochk = per["WithoutChecker"]
        nodep = per["WithoutDependence"]
        assert hg.success, subject.id
        assert nochk.success, subject.id
        # WithoutChecker never runs the style checker, so every
        # evaluation the cache did not answer is a full HLS compile
        # (cache hits skip the compile, so the ratio to attempts may sit
        # below 1); HeteroGen skips some.
        nochk_stats = nochk.search_result.stats
        assert nochk_stats.style_checks == 0, subject.id
        assert nochk_stats.hls_invocations == nochk_stats.cache_misses, subject.id
        assert (
            hg.search_result.stats.hls_invocation_ratio
            <= nochk.search_result.stats.hls_invocation_ratio
        )
        if hg.search_result.repair_minutes:
            slowdowns.append(
                nodep.search_result.repair_minutes
                / hg.search_result.repair_minutes
            )
    # The paper's Figure 9 claims are aggregate, and a random explorer can
    # get lucky on single-edit subjects:
    # 1. dependence-blind search is substantially slower in the worst
    #    case ("up to 35x");
    assert max(slowdowns) > 5.0
    # 2. ...and slower or tied on most subjects (10% tolerance for ties);
    slower_or_tied = sum(1 for s in slowdowns if s >= 0.9)
    assert slower_or_tied >= 6, slowdowns
    # 3. ...and does not transpile every subject inside 12 hours (the
    #    paper's P9 failure).
    assert any(not per["WithoutDependence"].success for _s, per in rows)
    # 4. The style checker saves HLS invocations on most subjects.
    saved = [
        1 - per["HeteroGen"].search_result.stats.hls_invocation_ratio
        for _s, per in rows
    ]
    assert max(saved) > 0.1
    assert sum(1 for s in saved if s > 0.1) >= 6
