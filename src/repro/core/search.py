"""Dependence-guided evolutionary repair search (§5.3).

One engine implements HeteroGen proper and both Figure 9 ablations:

* ``use_style_checker=False`` → *WithoutChecker*: every candidate goes
  straight to the (expensive) full HLS compilation;
* ``use_dependence=False`` → *WithoutDependence*: edits are proposed
  blindly across all families, dependences ignored, in random order.

All toolchain activity charges a :class:`SimulatedClock`, so the
benchmarks can report repair wall-clock in the paper's units (minutes of
toolchain time) while actually running in milliseconds.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..cfront import nodes as N
from ..difftest import DiffReport, differential_test, run_cpu_reference
from ..hls.clock import SimulatedClock
from ..hls.compiler import compile_unit
from ..hls.diagnostics import CompileReport, Diagnostic
from ..hls.stylecheck import check_style
from ..interp import ExecLimits
from ..obs import (
    SPAN_EVALUATE,
    SPAN_ITERATION,
    SPAN_SEARCH,
    get_recorder,
)
from .classification import RepairLocalizer, classify
from .dependence import ordered_applications, unordered_applications
from .edits import (
    Candidate,
    EditApplication,
    EditRegistry,
    RepairContext,
    build_registry,
)
from .evalcache import (
    CachedEvaluation,
    EvalCache,
    cached_candidate_key,
    canonicalize_evaluation,
    context_token,
    rebind_evaluation,
)
from .fitness import Fitness, fitness_from_reports
from .store import default_store_path, get_store

#: Fault budget per fitness evaluation: deeply broken candidates fault on
#: every test; cut them off early — the signal is already conclusive.
EVAL_MAX_FAULTS = 10


@dataclass
class SearchConfig:
    """Knobs for one repair run."""

    budget_seconds: float = 3 * 3600.0
    """Simulated toolchain budget (the paper's three-hour limit, §6.1)."""
    max_iterations: int = 300
    """Real-time guard: candidate evaluations per run."""
    max_children_per_round: int = 14
    """Proposals each evaluated candidate may queue: the first this many
    applicable edits in proposal order.  It shapes the search (which
    children exist to be popped), not its cost — a queued child is only
    cloned and rewritten if the search pops it."""
    diff_test_cap: int = 24
    """Tests used per fitness evaluation during the search (the full
    suite is replayed on the final answer)."""
    use_style_checker: bool = True
    use_dependence: bool = True
    perf_exploration: bool = True
    seed: int = 2022
    use_cache: bool = True
    """Memoize candidate evaluations (see :mod:`repro.core.evalcache`).
    Cached and uncached searches produce identical results and identical
    simulated-clock activity; only real wall-clock differs."""
    store_path: Optional[str] = field(default_factory=default_store_path)
    """Path of the persistent evaluation store (env ``REPRO_STORE`` sets
    the default; None/empty disables).  Ignored when ``use_cache`` is
    False — the store is a durable tier *under* the in-memory cache."""


@dataclass
class Evaluation:
    candidate: Candidate
    compile_report: Optional[CompileReport]
    diff_report: Optional[DiffReport]
    fitness: Fitness
    style_rejected: bool = False


@dataclass
class SearchStats:
    attempts: int = 0
    """Candidate evaluations requested (cache hits included)."""
    style_checks: int = 0
    """Real style-checker executions (cache hits excluded)."""
    style_rejections: int = 0
    hls_invocations: int = 0
    """Real full-compile executions (cache hits excluded)."""
    iterations: int = 0
    cache_hits: int = 0
    """Evaluations answered from the memo without re-running anything
    (both tiers: in-memory and persistent-store hits)."""
    cache_misses: int = 0
    """Evaluations that ran the real toolchain pipeline."""
    store_hits: int = 0
    """Subset of ``cache_hits`` answered by the persistent store (a
    previous run, or a concurrent run sharing the store, produced the
    entry)."""
    store_misses: int = 0
    """Evaluations that probed a configured store and found nothing."""

    @property
    def hls_invocation_ratio(self) -> float:
        return self.hls_invocations / self.attempts if self.attempts else 0.0

    @property
    def cache_hit_ratio(self) -> float:
        return self.cache_hits / self.attempts if self.attempts else 0.0

    @property
    def store_hit_ratio(self) -> float:
        lookups = self.store_hits + self.store_misses
        return self.store_hits / lookups if lookups else 0.0


@dataclass
class SearchResult:
    best: Optional[Evaluation]
    stats: SearchStats
    clock: SimulatedClock
    history: List[str] = field(default_factory=list)
    success_seconds: Optional[float] = None
    """Simulated toolchain time when the first compatible,
    behaviour-preserving candidate was found (the paper's Figure 9 repair
    time).  None if the search never got there.  The search keeps
    spending the remaining budget on performance exploration afterwards
    (§1), so this is distinct from the total clock."""
    budget_seconds: float = math.inf
    """The configured budget, kept so reported repair times can be
    clamped: the budget is checked before each evaluation, so the final
    in-flight toolchain run may push the raw clock past it (exactly as a
    real compile started just under the deadline finishes past it), but
    the *reported* repair time never exceeds what was configured."""

    @property
    def success(self) -> bool:
        return self.best is not None and self.best.fitness.is_behavior_preserving

    @property
    def repair_seconds(self) -> float:
        """Time to the first successful repair; total spend if it never
        succeeded (i.e. the whole budget was consumed failing).  Never
        exceeds the configured budget."""
        if self.success_seconds is not None:
            return min(self.success_seconds, self.budget_seconds)
        return min(self.clock.seconds, self.budget_seconds)

    @property
    def repair_minutes(self) -> float:
        return self.repair_seconds / 60.0


@dataclass
class _Brood:
    """The children one evaluated candidate proposed, built on demand."""

    parent: Candidate
    priority: Tuple
    round: int
    """Evaluation order of the parent: ties on priority pop the older
    round's children first, then each round's in proposal order."""
    applications: List[EditApplication]
    slots: int
    """Children this brood may still queue: each queued child holds a
    slot, an inapplicable one gives it back, a duplicate keeps it."""
    cursor: int = 0
    """Index of the next application not yet queued."""


class _Frontier:
    """The search frontier: a priority queue of *pending* children.

    An entry is a parent plus the index of one of its edit applications;
    the child's clone and rewrite run when the entry is popped, so the
    many proposals the search never reaches are never built.  Queueing
    needs nothing from the child's program: its priority comes from the
    parent (:meth:`RepairSearch._child_priority`).  The dedup key, the
    applied chain ``parent.applied + (label,)``, can only collide
    between siblings, which pop in proposal order, so deduping at pop
    time rejects exactly what deduping at queue time would.

    The search is therefore the one an eager loop gives, which builds
    the first ``max_children`` applicable children of every parent and
    queues those not seen before: an application that turns out
    inapplicable (``apply`` returns None) is dropped without spending an
    iteration, and the parent's next unqueued application takes its slot
    at the ``(round, index)`` tie-break the eager loop would have given
    it.
    """

    def __init__(self, initial: Candidate, max_children: int) -> None:
        self._initial: Optional[Candidate] = initial
        self._heap: List[Tuple] = []
        self._seen: Set[Tuple[str, ...]] = {initial.applied}
        self._max_children = max_children
        self._rounds = itertools.count(1)

    def __bool__(self) -> bool:
        return self._initial is not None or bool(self._heap)

    def push_children(
        self,
        parent: Candidate,
        priority: Tuple,
        applications: List[EditApplication],
    ) -> None:
        brood = _Brood(
            parent=parent,
            priority=priority,
            round=next(self._rounds),
            applications=applications,
            slots=self._max_children,
        )
        self._fill(brood)

    def pop(self) -> Optional[Candidate]:
        """The initial candidate, then the next child, built now; None
        when every remaining entry was inapplicable or a duplicate."""
        if self._initial is not None:
            initial, self._initial = self._initial, None
            return initial
        while self._heap:
            _prio, _round, index, brood = heapq.heappop(self._heap)
            child = self._build(brood, index)
            if child is not None:
                return child
            self._fill(brood)
        return None

    def _fill(self, brood: _Brood) -> None:
        """Queue *brood*'s next applications while it has free slots."""
        while brood.slots > 0 and brood.cursor < len(brood.applications):
            index = brood.cursor
            brood.cursor += 1
            brood.slots -= 1
            heapq.heappush(
                self._heap, (brood.priority, brood.round, index, brood)
            )

    def _build(self, brood: _Brood, index: int) -> Optional[Candidate]:
        """Apply one application to the parent.  None when it is
        inapplicable (its slot is freed) or its child was already seen
        (the slot stays used, as in the eager loop)."""
        child = brood.applications[index].apply(brood.parent)
        if child is None:
            brood.slots += 1
            return None
        if child.applied in self._seen:
            return None
        self._seen.add(child.applied)
        return child


class RepairSearch:
    """Evolutionary search over repair candidates."""

    def __init__(
        self,
        original: N.TranslationUnit,
        kernel_name: str,
        tests: Sequence[List[Any]],
        config: Optional[SearchConfig] = None,
        registry: Optional[EditRegistry] = None,
        clock: Optional[SimulatedClock] = None,
        limits: Optional[ExecLimits] = None,
        context: Optional[RepairContext] = None,
        cache: Optional[EvalCache] = None,
    ) -> None:
        self.original = original
        self.kernel_name = kernel_name
        self.tests = list(tests)
        self.config = config or SearchConfig()
        self.registry = registry or build_registry()
        self.clock = clock or SimulatedClock()
        self.limits = limits
        self.context = context or RepairContext(kernel_name=kernel_name)
        self.rng = random.Random(self.config.seed)
        self.localizer = RepairLocalizer()
        self.stats = SearchStats()
        self.history: List[str] = []
        subset = self.tests[: self.config.diff_test_cap]
        self._diff_tests = subset
        self._reference, self._cpu_ns = run_cpu_reference(
            original, kernel_name, subset, limits=limits, clock=self.clock,
        )
        # Memoization: an explicitly shared cache wins; otherwise one is
        # created per search when enabled, read-through-backed by the
        # persistent store when one is configured.  The context token
        # scopes the entries to this oracle (original program, kernel,
        # test subset, harness knobs) so shared caches and stores can
        # never cross-contaminate.
        if cache is not None:
            self.cache: Optional[EvalCache] = cache
        elif self.config.use_cache:
            store = (
                get_store(self.config.store_path)
                if self.config.store_path
                else None
            )
            self.cache = EvalCache(store=store)
        else:
            self.cache = None
        self._cache_context = context_token(
            original,
            kernel_name,
            subset,
            extra=f"max_faults={EVAL_MAX_FAULTS}|limits={limits!r}",
        )
        self._families: Optional[Dict[str, str]] = None

    # -- observability helpers ---------------------------------------------------

    def _edit_family(self, label: str) -> str:
        """Metrics label: the error family of the edit template behind a
        concretized application label like ``array_static(buf, 1024)``."""
        if self._families is None:
            families: Dict[str, str] = {}
            for edit in self.registry.all_edits():
                families[edit.name] = (
                    edit.error_type.value if edit.error_type else "repair"
                )
            for edit in self.registry.perf_edits:
                families.setdefault(edit.name, "performance")
            for edit in self.registry.behavior_edits:
                families.setdefault(edit.name, "behavior")
            self._families = families
        return self._families.get(label.split("(", 1)[0], "unknown")

    # -- public ------------------------------------------------------------------

    def run(self, initial: Candidate) -> SearchResult:
        frontier = _Frontier(
            initial, max_children=self.config.max_children_per_round
        )
        best: Optional[Evaluation] = None
        success_seconds: Optional[float] = None
        rec = get_recorder()
        with rec.span(SPAN_SEARCH, clock=self.clock, kernel=self.kernel_name):
            if rec.enabled:
                # Spans are reported at *close*; live subscribers
                # (repro.obs.stream) learn the budget from this
                # event, which is emitted immediately.
                rec.event(
                    "search_started",
                    kernel=self.kernel_name,
                    budget_seconds=self.config.budget_seconds,
                    max_iterations=self.config.max_iterations,
                )
            while (
                frontier
                and self.stats.iterations < self.config.max_iterations
                and self.clock.seconds < self.config.budget_seconds
            ):
                with rec.span(
                    SPAN_ITERATION,
                    clock=self.clock,
                    iteration=self.stats.iterations + 1,
                ):
                    candidate = frontier.pop()
                    if candidate is None:
                        break  # only inapplicable or seen children were left
                    self.stats.iterations += 1
                    evaluation = self.evaluate(candidate)
                    if evaluation.style_rejected:
                        self.history.append(
                            f"style-reject {candidate.applied[-1:]}"
                        )
                        if rec.enabled and candidate.applied:
                            label = candidate.applied[-1]
                            rec.metrics.inc(
                                "edit.style_rejects",
                                edit=label.split("(", 1)[0],
                                family=self._edit_family(label),
                            )
                        continue
                    if evaluation.fitness.better_than(
                        best.fitness if best else None
                    ):
                        best = evaluation
                        self.history.append(
                            f"new best {evaluation.fitness} "
                            f"after {candidate.applied}"
                        )
                        if rec.enabled and candidate.applied:
                            label = candidate.applied[-1]
                            rec.metrics.inc(
                                "edit.new_best",
                                edit=label.split("(", 1)[0],
                                family=self._edit_family(label),
                            )
                        if (
                            success_seconds is None
                            and evaluation.fitness.is_behavior_preserving
                        ):
                            success_seconds = min(
                                self.clock.seconds,
                                self.config.budget_seconds,
                            )
                            if rec.enabled:
                                rec.event(
                                    "repair_success",
                                    sim_seconds=success_seconds,
                                    iteration=self.stats.iterations,
                                    attempts=self.stats.attempts,
                                )
                                # Candidate evaluations spent per
                                # repaired subject.
                                rec.metrics.observe(
                                    "search.candidates_per_repair",
                                    float(self.stats.attempts),
                                    kernel=self.kernel_name,
                                )
                    frontier.push_children(
                        candidate,
                        self._child_priority(evaluation),
                        self._propose_children(evaluation),
                    )
        return SearchResult(
            best=best,
            stats=self.stats,
            clock=self.clock,
            history=self.history,
            success_seconds=success_seconds,
            budget_seconds=self.config.budget_seconds,
        )

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, candidate: Candidate) -> Evaluation:
        """Style gate → full compile → differential test, memoized.

        A cache hit replays the recorded simulated charges (identical
        clock activity to a real run) without re-running the toolchain;
        a miss runs the pipeline on a recording clock and merges its
        charges here.  A miss's stage spans record under this call's
        ``search.evaluate`` span."""
        self.stats.attempts += 1
        rec = get_recorder()
        last = candidate.applied[-1] if candidate.applied else ""
        with rec.span(
            SPAN_EVALUATE,
            clock=self.clock,
            edit=last.split("(", 1)[0] if last else "initial",
            depth=len(candidate.applied),
        ):
            if rec.enabled and last:
                rec.metrics.inc(
                    "edit.attempts",
                    edit=last.split("(", 1)[0],
                    family=self._edit_family(last),
                )
            raw = self._lookup_or_execute(candidate, rec)
            # Replay inside the span so its simulated duration covers the
            # candidate's journalled toolchain charges.
            self.clock.replay(raw.charges)
        if raw.style_rejected:
            return Evaluation(
                candidate=candidate,
                compile_report=None,
                diff_report=None,
                fitness=Fitness(10**6, 1.0, math.inf),
                style_rejected=True,
            )
        assert raw.compile_report is not None
        # Payloads live in the canonical uid space (they may have come
        # from a previous run or a structurally-equal twin of this
        # candidate); rebind them to this candidate's tree.
        bound = rebind_evaluation(raw, candidate.unit)
        return Evaluation(
            candidate=candidate,
            compile_report=bound.compile_report,
            diff_report=bound.diff_report,
            fitness=fitness_from_reports(bound.compile_report, bound.diff_report),
        )

    def _lookup_or_execute(
        self, candidate: Candidate, rec: Any
    ) -> CachedEvaluation:
        """Cache tiers → real execution."""
        raw: Optional[CachedEvaluation] = None
        key: Optional[str] = None
        if self.cache is not None:
            key = cached_candidate_key(candidate, self._cache_context)
            raw, tier = self.cache.lookup(key)
            if tier == "store":
                self.stats.store_hits += 1
            elif raw is None and self.cache.store is not None:
                self.stats.store_misses += 1
        if raw is not None:
            self.stats.cache_hits += 1
        else:
            raw = self._run_toolchain(candidate)
            self.stats.cache_misses += 1
            if self.config.use_style_checker:
                self.stats.style_checks += 1
            if raw.style_rejected:
                self.stats.style_rejections += 1
            if raw.compile_report is not None:
                self.stats.hls_invocations += 1
                if rec.enabled:
                    rec.metrics.inc("hls.compiles")
                    for diag in raw.compile_report.diagnostics:
                        rec.metrics.inc(
                            "hls.diagnostics",
                            code=diag.code,
                            severity=diag.severity,
                        )
            if self.cache is not None and key is not None:
                self.cache.put(key, raw)
        return raw

    def _run_toolchain(self, candidate: Candidate) -> CachedEvaluation:
        """Execute the real pipeline against a recording clock.

        Returns a canonical-uid-space payload (see
        :mod:`repro.core.evalcache`), so every entry that reaches the
        cache or store is uniform.  Pure in everything but the recorder:
        reads only immutable search state (original unit, precomputed
        CPU reference, test subset)."""
        recorder = SimulatedClock.recording()
        violations: Tuple = ()
        if self.config.use_style_checker:
            violations = tuple(check_style(candidate.unit, clock=recorder))
            if violations:
                return canonicalize_evaluation(
                    CachedEvaluation(
                        style_violations=violations,
                        compile_report=None,
                        diff_report=None,
                        charges=tuple(recorder.events or ()),
                    ),
                    candidate.unit,
                )
        compile_report = compile_unit(candidate.unit, candidate.config, clock=recorder)
        diff_report: Optional[DiffReport] = None
        if compile_report.ok:
            diff_report = differential_test(
                self.original,
                candidate.unit,
                self.kernel_name,
                candidate.config,
                self._diff_tests,
                limits=self.limits,
                clock=recorder,
                reference=self._reference,
                cpu_latency_ns=self._cpu_ns,
                max_faults=EVAL_MAX_FAULTS,
            )
        return canonicalize_evaluation(
            CachedEvaluation(
                style_violations=violations,
                compile_report=compile_report,
                diff_report=diff_report,
                charges=tuple(recorder.events or ()),
            ),
            candidate.unit,
        )

    # -- proposal ---------------------------------------------------------------

    def _propose_children(
        self, evaluation: Evaluation
    ) -> List[EditApplication]:
        """The ranked edit applications for *evaluation*'s children.

        Nothing is applied here: the frontier queues each application
        as a pending child and clones and rewrites the parent only when
        the search pops it (see :class:`_Frontier`)."""
        candidate = evaluation.candidate
        report = evaluation.compile_report
        assert report is not None
        if report.errors:
            return self._repair_proposals(candidate, report.errors)
        assert evaluation.diff_report is not None
        if not evaluation.diff_report.behavior_preserved:
            return self._behavior_proposals(candidate, report.errors)
        if self.config.perf_exploration:
            return self._perf_proposals(candidate)
        return []

    def _repair_proposals(
        self,
        candidate: Candidate,
        errors: Sequence[Diagnostic],
    ):
        if not self.config.use_dependence:
            # WithoutDependence: every template, blind, shuffled.
            applications = []
            for edit in self.registry.all_edits():
                applications.extend(
                    edit.blind_propose(candidate, errors, self.context)
                )
            self.rng.shuffle(applications)
            return applications
        # Dependence-guided: focus the first error's family, in dependence
        # order ({➊, ➋, ➊➌, ➋➍, …} of Figure 7c).
        focus = errors[0]
        family = classify(focus)
        # Localization is consulted so unfocused families still contribute
        # when they share the reported symbol.
        edits = self.registry.edits_for(family)
        applications = ordered_applications(
            edits, candidate, errors, self.context
        )
        if not applications:
            # The focused family is exhausted; widen to all families.
            applications = ordered_applications(
                self.registry.all_edits(), candidate, errors, self.context
            )
        return applications

    def _behavior_proposals(self, candidate: Candidate, errors):
        edits = self.registry.behavior_edits
        if self.config.use_dependence:
            return ordered_applications(edits, candidate, errors, self.context)
        return unordered_applications(edits, candidate, errors, self.context, self.rng)

    def _perf_proposals(self, candidate: Candidate):
        edits = self.registry.perf_edits
        applications = ordered_applications(edits, candidate, (), self.context)
        if not self.config.use_dependence:
            self.rng.shuffle(applications)
        return applications

    # -- ordering ------------------------------------------------------------------

    def _child_priority(self, parent: Evaluation) -> Tuple:
        """Optimistic priority: children of fitter parents first.  Known
        before any child is built: a child's chain is its parent's plus
        one label."""
        parent_fit = parent.fitness
        return (
            parent_fit.compile_errors,
            parent_fit.fail_ratio,
            len(parent.candidate.applied) + 1,
        )
