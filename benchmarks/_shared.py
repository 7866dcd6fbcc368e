"""Shared infrastructure for the benchmark harness.

Each ``bench_*`` file regenerates one table or figure of the paper.  The
heavyweight computation (a full HeteroGen run per subject and variant) is
cached at module level so Table 3, Table 5 and Figure 9 do not repeat
each other's work; the cached callable is what ``pytest-benchmark``
times on its first execution.

Every benchmark writes its rendered table under ``benchmarks/out/`` so
the regenerated results can be inspected (and are quoted in
EXPERIMENTS.md).
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from repro.baselines import TWELVE_HOURS, default_config, run_variant
from repro.core.report import TranspileResult
from repro.subjects import all_subjects, get_subject

OUT_DIR = Path(__file__).parent / "out"

#: One deterministic seed for every run in the harness.
SEED = 2022

#: Schema tag stamped into every ``BENCH_*.json`` payload.  Bump when
#: the shape of a bench artifact changes incompatibly, so downstream
#: consumers (EXPERIMENTS.md tooling, trend dashboards) can tell old
#: artifacts from new ones.
BENCH_SCHEMA_VERSION = 1


def write_table(name: str, text: str) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(text)
    return path


def write_bench_json(name: str, payload: dict) -> Path:
    """Emit a ``BENCH_*.json`` artifact under ``benchmarks/out/``, like
    every other harness output (see benchmarks/README.md).  All bench
    scripts emit through here.

    Every payload is stamped with ``schema_version`` and nothing else
    about the run, so rerunning a bench whose numbers did not move
    rewrites its committed artifact byte for byte; the commit holding
    the file is what it is attributable to.
    """
    OUT_DIR.mkdir(exist_ok=True)
    stamped = {"schema_version": BENCH_SCHEMA_VERSION}
    stamped.update(payload)
    path = OUT_DIR / name
    path.write_text(json.dumps(stamped, indent=2))
    return path


def config_for(variant: str):
    """Benchmark-sized budgets per variant."""
    if variant == "WithoutDependence":
        # Figure 9 caps this variant at 12 simulated hours.
        return default_config(
            budget_seconds=TWELVE_HOURS,
            max_iterations=500,
            fuzz_execs=800,
            seed=SEED,
        )
    return default_config(
        budget_seconds=3 * 3600.0,
        max_iterations=220,
        fuzz_execs=800,
        seed=SEED,
    )


@functools.lru_cache(maxsize=None)
def transpile(subject_id: str, variant: str = "HeteroGen") -> TranspileResult:
    """Run (once) and cache a variant on a subject."""
    subject = get_subject(subject_id)
    return run_variant(subject, variant, config_for(variant))


def subject_ids():
    return [s.id for s in all_subjects()]
