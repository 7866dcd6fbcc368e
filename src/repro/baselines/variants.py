"""The Figure 9 ablation variants and a shared experiment driver.

* ``WithoutChecker`` — no lightweight style gate: every candidate pays a
  full HLS compilation (§6.3, black bars of Figure 9);
* ``WithoutDependence`` — edits proposed blindly across all families in
  random order, dependences ignored (§6.3, the 35× slowdown).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from ..core.heterogen import HeteroGen, HeteroGenConfig
from ..core.report import TranspileResult
from ..core.search import SearchConfig
from ..fuzz import FuzzConfig
from ..subjects import Subject
from .heterorefactor import make_heterorefactor

#: Figure 9 caps WithoutDependence at 12 hours before declaring failure.
TWELVE_HOURS = 12 * 3600.0


def default_config(
    budget_seconds: float = 3 * 3600.0,
    max_iterations: int = 260,
    fuzz_execs: int = 1200,
    seed: int = 2022,
    use_cache: bool = True,
) -> HeteroGenConfig:
    """A configuration sized for the benchmark runs."""
    return HeteroGenConfig(
        fuzz=FuzzConfig(max_execs=fuzz_execs, plateau_execs=400, seed=seed),
        search=SearchConfig(
            budget_seconds=budget_seconds,
            max_iterations=max_iterations,
            seed=seed,
            use_cache=use_cache,
        ),
    )


def make_heterogen(config: Optional[HeteroGenConfig] = None) -> HeteroGen:
    return HeteroGen(config or default_config())


def make_without_checker(config: Optional[HeteroGenConfig] = None) -> HeteroGen:
    config = config or default_config()
    config.search.use_style_checker = False
    return HeteroGen(config)


def make_without_dependence(config: Optional[HeteroGenConfig] = None) -> HeteroGen:
    config = config or default_config(
        budget_seconds=TWELVE_HOURS, max_iterations=900
    )
    config.search.use_dependence = False
    return HeteroGen(config)


VARIANTS = {
    "HeteroGen": make_heterogen,
    "WithoutChecker": make_without_checker,
    "WithoutDependence": make_without_dependence,
    "HeteroRefactor": make_heterorefactor,
}


def run_variant(
    subject: Subject,
    variant: str = "HeteroGen",
    config: Optional[HeteroGenConfig] = None,
) -> TranspileResult:
    """Transpile *subject* with the named tool variant."""
    tool = VARIANTS[variant](config)
    return tool.transpile(
        subject.source,
        kernel_name=subject.kernel,
        solution=subject.solution,
        host_name=subject.host,
        host_args=subject.host_args,
        tests=subject.existing_test_list() or None,
        subject_name=f"{subject.id} {subject.name}",
    )
