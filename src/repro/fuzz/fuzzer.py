"""Coverage-guided kernel fuzzing — the paper's Algorithm 1.

Differences from off-the-shelf AFL that the paper calls out (§4), both
implemented here:

1. the fuzzer targets the *kernel* function, seeded with the concrete
   argument values captured at the kernel call site of the host program
   (``getKernelSeed``), not the whole application;
2. mutation is HLS-type-aware: mutants are clamped to the kernel's
   declared parameter types so they exercise kernel logic instead of
   bouncing off the entry point.

The loop keeps an input iff it produced new branch coverage, and stops
when the time budget runs out or coverage has plateaued (the paper stops
30 minutes after the last new path; we count executions instead and
charge the simulated clock so Table 4 can report minutes).

Once the campaign has covered every branch outcome the kernel can reach
(its *branch universe*, :func:`~repro.interp.coverage.branch_universe`),
no input can add coverage, so the rest of the plateau is counted rather
than built or run: each further generation adds its mutants as execs
with delta 0, and no mutant is drawn.  The corpus, the exec and plateau
counters and the simulated clock go on exactly as if the inputs had
run; the RNG is the campaign's own and is not read after it.  A kernel
whose call graph is not known (a member call) has no universe and runs
every input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Sequence, Set

from ..errors import FuzzError, InterpError
from ..cfront import nodes as N
from ..interp import (
    CoverageRecorder,
    ExecLimits,
    branch_universe,
    engine_run_many,
    make_engine,
)
from ..hls.clock import ACT_FUZZING, SimulatedClock
from ..memo import canonical_value
from ..obs import SPAN_FUZZ, get_recorder
from .corpus import Corpus
from .mutation import Mutator, random_seed_args

#: Simulated seconds charged per kernel execution during fuzzing.
FUZZ_SECONDS_PER_EXEC = 0.05


@dataclass
class FuzzConfig:
    """Budgets and knobs for one fuzzing campaign."""

    max_execs: int = 4000
    plateau_execs: int = 600
    """Stop once this many consecutive executions found nothing new
    (the reproduction's analogue of AFL's 'no new path for 30 minutes')."""
    mutations_per_input: int = 8
    seed: int = 2022
    array_len: int = 16
    initial_random_seeds: int = 4


@dataclass
class FuzzReport:
    """Outcome of a fuzzing campaign (one row of Table 4)."""

    tests_generated: int
    corpus: Corpus
    coverage: CoverageRecorder
    coverage_ratio: float
    execs: int
    fuzz_seconds: float

    @property
    def fuzz_minutes(self) -> float:
        return self.fuzz_seconds / 60.0

    def suite(self, cap: Optional[int] = None) -> List[List[Any]]:
        return self.corpus.suite(cap)


def get_kernel_seed(
    unit: N.TranslationUnit,
    host_name: str,
    kernel_name: str,
    host_args: Sequence[Any],
    backend: Optional[str] = None,
) -> List[List[Any]]:
    """Algorithm 1's ``getKernelSeed``: run the host program and capture
    the concrete arguments it passes to the kernel."""
    interp = make_engine(
        unit, backend=backend, capture_calls=kernel_name, want_out_args=False
    )
    try:
        interp.run(host_name, list(host_args))
    except InterpError as exc:
        raise FuzzError(
            f"host program failed while capturing seeds: {exc}",
            partial_seeds=interp.captured,
        ) from exc
    if not interp.captured:
        raise FuzzError(
            f"host function {host_name!r} never invoked kernel {kernel_name!r}"
        )
    return [list(args) for args in interp.captured]


def fuzz_kernel(
    unit: N.TranslationUnit,
    kernel_name: str,
    config: Optional[FuzzConfig] = None,
    seeds: Optional[List[List[Any]]] = None,
    clock: Optional[SimulatedClock] = None,
    limits: Optional[ExecLimits] = None,
    backend: Optional[str] = None,
) -> FuzzReport:
    """Run Algorithm 1 against *kernel_name* of *unit*."""
    config = config or FuzzConfig()
    rng = random.Random(config.seed)
    kernel = unit.function(kernel_name)
    if kernel is None:
        raise FuzzError(f"no kernel function named {kernel_name!r}")
    param_types = [p.type for p in kernel.params]
    mutator = Mutator(param_types, rng)
    # The fuzz loop only consumes coverage, so skip out-arg materialization.
    interp = make_engine(
        unit, backend=backend, limits=limits or ExecLimits(),
        want_out_args=False,
    )

    corpus = Corpus()
    coverage = CoverageRecorder()
    execs = 0
    tests_generated = 0
    since_new = 0
    seen: Set[Hashable] = set()
    rec = get_recorder()
    universe = branch_universe(unit, kernel_name)
    # The exec index after which no input can add coverage; 0 when the
    # kernel has no branch to cover.
    saturated_at: Optional[int] = 0 if universe == frozenset() else None

    def execute_batch(arg_sets: List[List[Any]]) -> List[int]:
        """Run a batch of inputs; per-input newly uncovered branch counts.

        One ``run_many`` call under the batch backend (pooled runtime,
        one specialized pass), a plain loop elsewhere.  Each input's
        coverage is recorded independently and merged in input order, so
        the per-input deltas are identical to one-at-a-time execution.

        Only inputs the campaign has not run before are executed.  Both
        engines reset globals, statics and heap per input, so a run is a
        pure function of its input: a repeat's coverage is already
        merged, and it gets a delta of 0.  A repeat still counts as an
        exec, so the budget, the plateau counter and the simulated fuzz
        time are those of running it.  Inputs are told apart by
        :func:`~repro.memo.canonical_value`, which separates ``0.0`` from
        ``-0.0`` and ``1`` from ``1.0`` and ``True``.

        Once coverage equals the kernel's branch universe, no input is
        run at all: every input counts as an exec with delta 0, which is
        what running it would give.  Only the initial seeds of a kernel
        with no branch take this path; the campaign loop draws no
        mutants once saturated.  A run that records a branch outside
        the universe raises :class:`FuzzError`, since skipping on a wrong
        universe would change the campaign.  Without a universe (see
        :func:`~repro.interp.coverage.branch_universe`) every distinct
        input runs.
        """
        nonlocal execs, saturated_at
        if saturated_at is not None:
            execs += len(arg_sets)
            return [0] * len(arg_sets)
        first_run: List[bool] = []
        unseen: List[List[Any]] = []
        for args in arg_sets:
            key = canonical_value(args)
            fresh = key not in seen
            if fresh:
                seen.add(key)
                unseen.append(args)
            first_run.append(fresh)
        records = iter(
            engine_run_many(interp, kernel_name, unseen) if unseen else ()
        )
        deltas: List[int] = []
        for fresh in first_run:
            execs += 1
            if not fresh:
                deltas.append(0)
                continue
            record = next(records)
            before = len(coverage.hits)
            if record.result is None:
                deltas.append(0)  # crashing inputs exercise nothing repeatable
                continue
            hits = record.result.coverage.hits
            if universe is not None and not hits <= universe:
                uid, _outcome = min(hits - universe)
                raise FuzzError(
                    f"kernel {kernel_name!r} recorded branch {uid}, which "
                    "is outside its branch universe"
                )
            coverage.merge(record.result.coverage)
            deltas.append(len(coverage.hits) - before)
            if (saturated_at is None and universe is not None
                    and len(coverage.hits) == len(universe)):
                saturated_at = execs
        return deltas

    with rec.span(SPAN_FUZZ, clock=clock, kernel=kernel_name,
                  max_execs=config.max_execs):
        # Seed the queue (line 4-6): captured kernel states when the host
        # provided them, random type-valid vectors only as a fallback —
        # Algorithm 1 never pads captured seeds with extra random ones.
        initial: List[List[Any]] = list(seeds or [])
        if not initial:
            for _ in range(config.initial_random_seeds):
                initial.append(
                    random_seed_args(param_types, rng, config.array_len)
                )
        for args, delta in zip(initial, execute_batch(initial)):
            tests_generated += 1
            corpus.add(args, new_branches=delta)
            if rec.enabled and delta > 0:
                rec.metrics.observe("fuzz.new_branches", delta)

        generation = 0
        while execs < config.max_execs and since_new < config.plateau_execs:
            entry = corpus.next_input()
            if entry is None:
                break
            generation += 1
            if saturated_at is not None:
                # No mutant can add coverage, so none is drawn: the
                # generation is counted as the execs with delta 0 that
                # running it would give.  Nothing reads the RNG after
                # the campaign, so skipping its draws changes no output.
                count = min(config.mutations_per_input,
                            config.max_execs - execs)
                execs += count
                tests_generated += count
                since_new += count
                continue
            mutants = mutator.mutate(entry.args, config.mutations_per_input)
            # The whole generation goes through one batched call,
            # truncated to the remaining execution budget (matching the
            # per-mutant budget check of the sequential loop).
            mutants = mutants[:config.max_execs - execs]
            for mutant, delta in zip(mutants, execute_batch(mutants)):
                tests_generated += 1
                if delta > 0:
                    corpus.add(mutant, new_branches=delta,
                               generation=generation)
                    since_new = 0
                    if rec.enabled:
                        rec.metrics.observe("fuzz.new_branches", delta)
                else:
                    since_new += 1

        fuzz_seconds = execs * FUZZ_SECONDS_PER_EXEC
        if clock is not None:
            clock.charge(ACT_FUZZING, fuzz_seconds)
        assert kernel.body is not None
        ratio = coverage.ratio(kernel.body)
        if rec.enabled:
            rec.metrics.inc("fuzz.execs", execs)
            rec.metrics.inc("fuzz.tests_generated", tests_generated)
            rec.metrics.set_gauge(
                "fuzz.coverage_ratio", ratio, kernel=kernel_name
            )
            if saturated_at is not None:
                rec.metrics.set_gauge(
                    "fuzz.saturated_at", saturated_at, kernel=kernel_name
                )
    return FuzzReport(
        tests_generated=tests_generated,
        corpus=corpus,
        coverage=coverage,
        coverage_ratio=ratio,
        execs=execs,
        fuzz_seconds=fuzz_seconds,
    )


def coverage_of_suite(
    unit: N.TranslationUnit,
    kernel_name: str,
    tests: List[List[Any]],
    limits: Optional[ExecLimits] = None,
    backend: Optional[str] = None,
) -> float:
    """Branch coverage a fixed test suite achieves (Table 4's 'Existing'
    columns)."""
    kernel = unit.function(kernel_name)
    if kernel is None or kernel.body is None:
        raise FuzzError(f"no kernel function named {kernel_name!r}")
    interp = make_engine(
        unit, backend=backend, limits=limits or ExecLimits(),
        want_out_args=False,
    )
    coverage = CoverageRecorder()
    for record in engine_run_many(interp, kernel_name, tests):
        if record.result is not None:
            coverage.merge(record.result.coverage)
    return coverage.ratio(kernel.body)
