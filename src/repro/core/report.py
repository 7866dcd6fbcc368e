"""Transpilation result report."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..cfront import nodes as N
from ..cfront.printer import added_loc, count_loc, render
from ..difftest import DiffReport
from ..fuzz import FuzzReport
from ..hls.platform import SolutionConfig
from .search import SearchResult


@dataclass
class TranspileResult:
    """Everything a HeteroGen run produced (one row of Tables 3 and 5)."""

    subject: str
    original: N.TranslationUnit
    kernel_name: str
    fuzz_report: Optional[FuzzReport]
    search_result: SearchResult
    final_unit: Optional[N.TranslationUnit]
    final_config: Optional[SolutionConfig]
    final_diff: Optional[DiffReport]

    @property
    def hls_compatible(self) -> bool:
        best = self.search_result.best
        return best is not None and best.fitness.is_compatible

    @property
    def behavior_preserved(self) -> bool:
        return self.final_diff is not None and self.final_diff.behavior_preserved

    @property
    def success(self) -> bool:
        return self.hls_compatible and self.behavior_preserved

    @property
    def improved_performance(self) -> bool:
        return self.final_diff is not None and self.final_diff.speedup > 1.0

    @property
    def speedup(self) -> float:
        return self.final_diff.speedup if self.final_diff else 0.0

    @property
    def origin_loc(self) -> int:
        return count_loc(self.original)

    @property
    def delta_loc(self) -> int:
        if self.final_unit is None:
            return 0
        return added_loc(self.original, self.final_unit)

    @property
    def origin_runtime_ms(self) -> float:
        return self.final_diff.cpu_latency_ns / 1e6 if self.final_diff else 0.0

    @property
    def converted_runtime_ms(self) -> float:
        return self.final_diff.fpga_latency_ns / 1e6 if self.final_diff else 0.0

    @property
    def applied_edits(self) -> List[str]:
        best = self.search_result.best
        return list(best.candidate.applied) if best else []

    @property
    def remaining_errors(self) -> List[str]:
        """Unrepaired diagnostics of the best candidate.

        When the budget runs out before compatibility is reached, the
        paper's HeteroGen "reports an incomplete version with generated
        tests to guide the remaining manual edits" (§1) — these are the
        errors that version still carries.
        """
        best = self.search_result.best
        if best is None or best.compile_report is None:
            return []
        return [str(d) for d in best.compile_report.errors]

    def stage_breakdown(self) -> List[Tuple[str, float, int]]:
        """Per-stage simulated spend: ``(activity, seconds, charges)``,
        heaviest first.  Derived purely from the simulated clock, so it
        is bit-identical across serial/thread/process runs and with
        tracing on or off."""
        clock = self.search_result.clock
        return sorted(
            (
                (activity, seconds, clock.counts.get(activity, 0))
                for activity, seconds in clock.by_activity.items()
            ),
            key=lambda row: (-row[1], row[0]),
        )

    def final_source(self) -> str:
        if self.final_unit is None:
            return ""
        return render(self.final_unit)

    def source_diff(self) -> str:
        """Unified diff from the original program to the converted one —
        the human-readable view of what ΔLOC counts."""
        import difflib

        if self.final_unit is None:
            return ""
        before = render(self.original).splitlines(keepends=True)
        after = render(self.final_unit).splitlines(keepends=True)
        return "".join(
            difflib.unified_diff(
                before, after,
                fromfile=f"{self.subject}/original.c",
                tofile=f"{self.subject}/converted.c",
            )
        )

    def summary(self) -> str:
        stats = self.search_result.stats
        lines = [
            f"subject          : {self.subject}",
            f"HLS compatible   : {'yes' if self.hls_compatible else 'no'}",
            f"behavior kept    : {'yes' if self.behavior_preserved else 'no'}",
            f"improved perf    : {'yes' if self.improved_performance else 'no'}",
            f"speedup          : {self.speedup:.2f}x",
            f"origin LOC       : {self.origin_loc}",
            f"delta LOC        : {self.delta_loc}",
            f"edits applied    : {len(self.applied_edits)}",
            f"repair time      : {self.search_result.repair_minutes:.1f} simulated minutes",
            f"eval cache       : {stats.cache_hits}/{stats.attempts} hits "
            f"({stats.cache_hit_ratio:.0%}), "
            f"{stats.hls_invocations} real HLS compiles",
        ]
        if stats.store_hits or stats.store_misses:
            lines.append(
                f"eval store       : {stats.store_hits} hits / "
                f"{stats.store_misses} misses ({stats.store_hit_ratio:.0%})"
            )
        if self.fuzz_report is not None:
            lines.append(
                f"tests generated  : {self.fuzz_report.tests_generated} "
                f"({self.fuzz_report.coverage_ratio:.0%} branch coverage)"
            )
        breakdown = self.stage_breakdown()
        if breakdown:
            total = self.search_result.clock.seconds
            lines.append("time by stage    :")
            for activity, seconds, charges in breakdown:
                share = seconds / total if total else 0.0
                lines.append(
                    f"  {activity:<15}: {seconds / 60.0:8.1f} min "
                    f"({share:5.1%}, {charges} charges)"
                )
        if not self.hls_compatible and self.remaining_errors:
            lines.append("remaining errors (manual edits needed):")
            lines.extend(f"  {error}" for error in self.remaining_errors[:6])
        return "\n".join(lines)
