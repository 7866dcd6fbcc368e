"""The benchmark's workloads: which programs run, under which config, and why.

Every workload runs the pipeline serially in one process with the
program's default configuration, except for the benchmark-sized budgets
below.  A workload's program list is fixed, so every run of it does the
same work; ``--seed`` feeds ``FuzzConfig.seed`` and ``SearchConfig.seed``.

Pass times quoted below are for one pass on a 2-CPU x86 VM at seed 2022.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

#: Simulated toolchain budget, as in the paper (three hours per subject).
BUDGET_SECONDS = 3 * 3600.0
#: Candidate evaluations per repair, the benchmark-sized guard of Table 3.
MAX_ITERATIONS = 220
#: Consecutive fuzz executions without new coverage before fuzzing stops.
PLATEAU_EXECS = 400


@dataclass(frozen=True)
class Workload:
    name: str
    programs: Tuple[str, ...]
    """Table 3 subject ids (``P1``..``P10``) or generated-kernel names."""
    fuzz_execs: int
    warm_store: bool = False
    """Run against an evaluation store that set-up filled with a cold
    pass of the same programs, config and seed."""


#: Why each workload exists is recorded in ``BENCHMARK.json`` and README.md.
WORKLOADS: Tuple[Workload, ...] = (
    # Every layer takes a share.  Short subjects of two error families:
    # data types (P1, P2) and dynamic data structures (P5); ~4s a pass.
    Workload(name="table3", programs=("P1", "P2", "P5"), fuzz_execs=800),
    # The repair search alone, on loop parallelization (P7) and dynamic
    # data structures (P8).  Both reach full coverage within 40 execs and
    # make the same candidate evaluations as at 800, so simulation and edit
    # application dominate; ~4s a pass.
    Workload(name="repair", programs=("P7", "P8"), fuzz_execs=40),
    # ``repair`` rerun against a store that set-up filled: every evaluation
    # is a store hit, so HLS compile and simulation are bypassed.
    Workload(
        name="store-warm", programs=("P7", "P8"), fuzz_execs=40,
        warm_store=True,
    ),
    # Small kernels from outside the ten subjects, one per shape family of
    # the generated corpus: fuzzing and fixed per-program costs dominate;
    # ~2s a pass.  Left out: the wrap_* widths, stream_relay and
    # stream_chain, fib and mix_float, each over a second and swinging with
    # the fuzz inputs; array_4, the array_16 template again; and fixed_s7,
    # fixed_u5 and fixed_s13, which raise "negative shift count" in the
    # interpreter today (a workload must not fail).  ptr_walk does not
    # convert, so converted_ratio is below 1.
    Workload(
        name="generated",
        programs=(
            "array_16", "matrix_4x4", "struct_mean", "div_trunc",
            "shortcircuit", "ptr_walk", "oob_read", "static_counter",
            "global_mix", "collatz", "clamp3", "first_gap",
        ),
        fuzz_execs=800,
    ),
)


def get_workload(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)


@dataclass(frozen=True)
class Program:
    """One input program and the arguments the pipeline is called with."""

    name: str
    kernel: str
    source: str
    top_name: str
    solution: Optional[Any] = None
    host: str = ""
    host_args: Optional[Sequence[Any]] = None
    tests: List[List[Any]] = field(default_factory=list)


def load_programs(names: Sequence[str]) -> List[Program]:
    """Resolve subject ids and generated-kernel names to programs."""
    from repro.subjects import generated_subjects, get_subject

    generated = {g.name: g for g in generated_subjects()}
    programs = []
    for name in names:
        if name in generated:
            g = generated[name]
            programs.append(Program(
                name=g.name, kernel=g.kernel, source=g.source,
                top_name=g.kernel, tests=[list(t) for t in g.tests],
            ))
            continue
        s = get_subject(name)
        programs.append(Program(
            name=s.id, kernel=s.kernel, source=s.source,
            top_name=s.solution.top_name, solution=s.solution,
            host=s.host, host_args=s.host_args,
            tests=s.existing_test_list(),
        ))
    return programs


def make_config(workload: Workload, seed: int):
    """The default config with the workload's budgets and seed.

    Fields left at their defaults keep reading the ``REPRO_*``
    environment, so ``--env`` can select an executor or worker count."""
    from repro.core.heterogen import HeteroGenConfig
    from repro.core.search import SearchConfig
    from repro.fuzz import FuzzConfig

    return HeteroGenConfig(
        fuzz=FuzzConfig(
            max_execs=workload.fuzz_execs,
            plateau_execs=PLATEAU_EXECS,
            seed=seed,
        ),
        search=SearchConfig(
            budget_seconds=BUDGET_SECONDS,
            max_iterations=MAX_ITERATIONS,
            seed=seed,
        ),
    )
