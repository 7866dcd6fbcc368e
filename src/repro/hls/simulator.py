"""HLS co-simulation: functional execution plus latency reporting.

Reproduces what the paper's toolchain reports after C/RTL co-simulation:
per-test outputs (for differential testing) and kernel latency (for the
performance side of the fitness function).  Functional execution uses the
interpreter in HLS mode, so finite-resource bugs (undersized arrays,
too-narrow bitwidths, overflowing software stacks) surface as divergent
outputs or :class:`HlsSimulationFault` — both observable to the harness.

Pragmas steer synthesis, not what the design computes, so the functional
model runs the candidate's *pragma-free* program: latency still comes
from :func:`~repro.hls.schedule.estimate` on the real candidate.  Most
repair edits only insert or retune pragmas, and the candidates they make
share one pragma-free program, so the per-test outcomes are memoized on
a digest of that program and every other input of the run.  The
simulated clock is charged on every call, hit or miss.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Any, List, Optional, Tuple

from ..cfront import nodes as N
from ..cfront.fingerprint import pragma_free_fingerprint, strip_pragmas
from ..interp import ExecLimits, default_backend, engine_run_many, make_engine
from ..memo import AnalysisCache, canonical_value
from .clock import ACT_SIMULATION, SimulatedClock
from .platform import SolutionConfig
from .schedule import ScheduleReport, estimate

#: Simulated seconds charged per co-simulated test input.
SIMULATION_SECONDS_PER_TEST = 2.0


@dataclass
class TestOutcome:
    """Result of simulating one test input."""

    ok: bool
    observable: Optional[Tuple[Any, Tuple[Any, ...]]] = None
    fault: str = ""
    skipped: bool = False
    """True when the test was never executed because the ``max_faults``
    budget aborted the session first — distinct from a real fault, so the
    differential report can account for it as *untested* rather than
    silently folding it into the mismatch count."""


@dataclass
class SimulationReport:
    """Outcome of co-simulating a design over a test suite."""

    outcomes: List[TestOutcome] = field(default_factory=list)
    schedule: Optional[ScheduleReport] = None
    sim_seconds: float = 0.0

    @property
    def kernel_latency_ns(self) -> float:
        return self.schedule.total_latency_ns if self.schedule else float("inf")

    @property
    def faults(self) -> int:
        """Tests that actually executed and faulted (skipped ones are
        counted separately by :attr:`skipped_tests`)."""
        return sum(1 for o in self.outcomes if not o.ok and not o.skipped)

    @property
    def skipped_tests(self) -> int:
        return sum(1 for o in self.outcomes if o.skipped)


def simulate(
    unit: N.TranslationUnit,
    config: SolutionConfig,
    tests: List[List[Any]],
    clock: Optional[SimulatedClock] = None,
    limits: Optional[ExecLimits] = None,
    max_faults: Optional[int] = None,
    backend: Optional[str] = None,
) -> SimulationReport:
    """Run every test through the HLS functional model.

    A test that raises any interpreter error (memory fault, stream
    underflow, budget blow-up) is recorded as a fault rather than
    propagated: a crashing candidate is simply a very unfit one.

    :param max_faults: stop executing once this many tests have faulted
        and record the remainder as faults.  Deep-broken candidates (a
        wrapped loop counter spinning to the step budget on *every*
        test) are common in the dependence-blind ablation; running all
        of their tests buys no fitness signal.
    """
    report = SimulationReport()
    limits = limits or ExecLimits()
    kernel = config.top_name
    backend = backend or default_backend()
    outcomes = _OUTCOMES.get_or_compute(
        lambda: (
            pragma_free_fingerprint(unit), kernel, canonical_value(tests),
            astuple(limits), max_faults, backend,
        ),
        lambda: _run_tests(unit, kernel, tests, limits, max_faults, backend),
    )
    report.outcomes = [TestOutcome(*outcome) for outcome in outcomes]
    report.schedule = estimate(unit, config)
    report.sim_seconds = SIMULATION_SECONDS_PER_TEST * len(tests)
    if clock is not None:
        clock.charge(ACT_SIMULATION, report.sim_seconds)
    return report


#: Per-test outcomes of a pragma-free program, as ``(ok, observable,
#: fault, skipped)`` tuples.
_OUTCOMES = AnalysisCache("simulate.outcomes")


def _run_tests(
    unit: N.TranslationUnit,
    kernel: str,
    tests: List[List[Any]],
    limits: ExecLimits,
    max_faults: Optional[int],
    backend: str,
) -> Tuple[Tuple[Any, ...], ...]:
    """Execute *tests* on the pragma-free program of *unit*.

    Both interpreters charge a step for each pragma statement they
    pass, so running *unit* itself could exhaust a step budget the
    pragma-free program stays within — and the memo key is blind to
    pragmas.  Running the stripped program makes the outcomes a function
    of the key alone.
    """
    interp = make_engine(
        strip_pragmas(unit), backend=backend, limits=limits, hls_mode=True
    )
    outcomes = []
    # One batched call covers all inputs: the batch backend pools its
    # runtime across the suite, every other backend is looped with the
    # same record contract (per-input fault isolation, max_faults abort
    # ordering with the remainder marked skipped).
    for record in engine_run_many(interp, kernel, tests,
                                  max_faults=max_faults):
        if record.skipped:
            outcomes.append(
                (False, None, "skipped: fault budget exhausted", True)
            )
        elif record.error is not None:
            outcomes.append((False, None, str(record.error), False))
        else:
            outcomes.append(
                (True, record.result.observable(), "", False)
            )
    return tuple(outcomes)
