"""Differential testing between the CPU run and the HLS simulation.

This is HeteroGen's behaviour-preservation oracle (§5.3, "Behavior
Preservation via Differential Testing"): execute the original C program
on the CPU model and the transpiled candidate on the FPGA model with the
same generated tests, and compare input-output behaviour.  The harness
also reports both latencies, since the fitness function weighs
performance once behaviour is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ..cfront import nodes as N
from ..hls.clock import ACT_CPU_RUN, SimulatedClock
from ..hls.platform import SolutionConfig
from ..hls.simulator import SimulationReport, simulate
from ..interp import ExecLimits, engine_run_many, make_engine
from ..obs import SPAN_CPU_REFERENCE, SPAN_DIFFTEST, get_recorder

#: CPU latency model: abstract interpreter steps to nanoseconds.  An
#: abstract step is roughly one scalar operation; 1.5 ns/step models a
#: superscalar core retiring a couple of ops per cycle, which keeps the
#: CPU baseline competitive the way the paper's i7 was.
CPU_NS_PER_STEP = 1.5

#: Relative tolerance when comparing floating-point outputs.  Custom HLS
#: float types legitimately round differently from x86 long double; the
#: oracle asks for behavioural equivalence, not bit equality.
FLOAT_RTOL = 1e-4
FLOAT_ATOL = 1e-6


@dataclass
class DiffReport:
    """Outcome of one differential-testing session."""

    total: int
    matching: int
    mismatching_tests: List[int] = field(default_factory=list)
    untested: int = 0
    """Tests never executed because ``max_faults`` aborted the simulation
    early.  They are neither matches nor observed mismatches, so the
    report stays internally consistent:
    ``matching + len(mismatching_tests) + untested == total``."""
    cpu_latency_ns: float = 0.0
    fpga_latency_ns: float = 0.0
    fpga_faults: int = 0

    @property
    def pass_ratio(self) -> float:
        return self.matching / self.total if self.total else 1.0

    @property
    def behavior_preserved(self) -> bool:
        return self.total > 0 and self.matching == self.total

    @property
    def speedup(self) -> float:
        """CPU time / FPGA time — >1 means the FPGA version is faster."""
        if self.fpga_latency_ns <= 0:
            return 0.0
        return self.cpu_latency_ns / self.fpga_latency_ns


def outputs_equal(left: Any, right: Any) -> bool:
    """Structural comparison with float tolerance.

    Fast path: exact equality implies tolerant equality (ints compare
    exactly; ``1 == 1.0`` is also isclose; ``==`` never equates NaNs, so
    the NaN==NaN rule is untouched), and the overwhelmingly common case —
    int-only nested lists from a passing candidate — short-circuits in a
    single C-level comparison instead of a Python walk.  Only a ``False``
    falls through to the tolerant traversal, so mixed list/tuple shapes
    and near-equal floats behave exactly as before."""
    if left == right:
        return True
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        if len(left) != len(right):
            return False
        return all(outputs_equal(a, b) for a, b in zip(left, right))
    if isinstance(left, dict) and isinstance(right, dict):
        if left.keys() != right.keys():
            return False
        return all(outputs_equal(left[k], right[k]) for k in left)
    if isinstance(left, float) or isinstance(right, float):
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            return False
        if math.isnan(float(left)) and math.isnan(float(right)):
            return True
        return math.isclose(
            float(left), float(right), rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL
        )
    return left == right


def run_cpu_reference(
    unit: N.TranslationUnit,
    kernel_name: str,
    tests: Sequence[List[Any]],
    limits: Optional[ExecLimits] = None,
    clock: Optional[SimulatedClock] = None,
    backend: Optional[str] = None,
) -> Tuple[List[Optional[Tuple[Any, Tuple[Any, ...]]]], float]:
    """Execute the original program on every test.

    Returns per-test observables (None when the reference itself faulted,
    which only happens for hostile fuzz inputs) and the average CPU
    latency in nanoseconds.
    """
    with get_recorder().span(
        SPAN_CPU_REFERENCE, clock=clock, kernel=kernel_name, tests=len(tests)
    ):
        interp = make_engine(unit, backend=backend, limits=limits or ExecLimits())
        observables: List[Optional[Tuple[Any, Tuple[Any, ...]]]] = []
        max_steps = 0
        runs = 0
        # All tests in one batched call (pooled runtime under the batch
        # backend; a per-input loop with identical semantics elsewhere).
        for record in engine_run_many(interp, kernel_name, tests):
            if record.result is not None:
                observables.append(record.result.observable())
                max_steps = max(max_steps, record.result.steps)
                runs += 1
            else:
                observables.append(None)
        # The reported CPU latency is that of the *heaviest* passing test:
        # the scheduler's FPGA estimate models the full-size workload
        # (static tripcounts), so the CPU side must too — an average over
        # trivial fuzz inputs would not be comparable.
        cpu_ns = max_steps * CPU_NS_PER_STEP if runs else float("inf")
        if clock is not None:
            clock.charge(ACT_CPU_RUN, 0.01 * len(tests))
    return observables, cpu_ns


def differential_test(
    original: N.TranslationUnit,
    candidate: N.TranslationUnit,
    kernel_name: str,
    config: SolutionConfig,
    tests: Sequence[List[Any]],
    limits: Optional[ExecLimits] = None,
    clock: Optional[SimulatedClock] = None,
    reference: Optional[List[Optional[Tuple[Any, Tuple[Any, ...]]]]] = None,
    cpu_latency_ns: Optional[float] = None,
    max_faults: Optional[int] = None,
    backend: Optional[str] = None,
) -> DiffReport:
    """Compare *candidate* (FPGA model) against *original* (CPU model).

    The CPU reference can be precomputed once and passed in — the repair
    loop compares many candidates against the same reference.
    """
    tests = list(tests)
    if reference is None or cpu_latency_ns is None:
        reference, cpu_latency_ns = run_cpu_reference(
            original, kernel_name, tests, limits=limits, clock=clock,
            backend=backend,
        )
    with get_recorder().span(
        SPAN_DIFFTEST, clock=clock, kernel=kernel_name, tests=len(tests)
    ):
        sim: SimulationReport = simulate(
            candidate, config, tests, clock=clock, limits=limits,
            max_faults=max_faults, backend=backend,
        )
        matching = 0
        untested = 0
        mismatching: List[int] = []
        for i, (ref, outcome) in enumerate(zip(reference, sim.outcomes)):
            if ref is None:
                # The reference faulted on this input; any candidate
                # behaviour is acceptable (the paper's oracle is defined
                # on well-formed CPU behaviour).
                matching += 1
                continue
            if outcome.skipped:
                # The fault budget aborted the session before this test
                # ran: no observation was made either way.
                untested += 1
                continue
            if outcome.ok and outputs_equal(
                _obs_py(ref), _obs_py(outcome.observable)
            ):
                matching += 1
            else:
                mismatching.append(i)
    return DiffReport(
        total=len(tests),
        matching=matching,
        mismatching_tests=mismatching,
        untested=untested,
        cpu_latency_ns=cpu_latency_ns,
        fpga_latency_ns=sim.kernel_latency_ns,
        fpga_faults=sim.faults,
    )


def _obs_py(obs: Any) -> Any:
    """Convert frozen observables back to comparable nested lists."""
    if isinstance(obs, tuple):
        return [_obs_py(o) for o in obs]
    return obs
