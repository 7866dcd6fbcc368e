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

import hashlib
import heapq
import itertools
import math
import random
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..cfront import nodes as N
from ..cfront.fingerprint import incremental_mode
from ..cfront.graft import graft_mode
from ..cfront.printer import render
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
    SPAN_SYNTH,
    TraceRecorder,
    get_recorder,
    scoped_recorder,
)
from .classification import RepairLocalizer, classify
from .dependence import ordered_applications, unordered_applications
from .edits import Candidate, EditRegistry, RepairContext, build_registry
from .evalcache import (
    CachedEvaluation,
    EvalCache,
    cached_candidate_key,
    canonicalize_evaluation,
    context_token,
    rebind_evaluation,
)
from .fitness import Fitness, fitness_from_reports
from .parallel import (
    EXECUTORS,
    DeltaJob,
    DeltaMiss,
    EvalJob,
    default_executor,
    default_workers,
    delta_wire_enabled,
    note_delta_miss,
    plan_decl_entries,
    record_worker_wire,
    register_baseline,
    submit_job,
    submit_job_batch,
)
from .store import default_store_path, get_store
from .synth import Evidence, synthesis_default

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
    workers: int = field(default_factory=lambda: default_workers() or 1)
    """Worker-pool width for speculative candidate evaluation (env
    ``REPRO_WORKERS`` sets the default).

    **Determinism contract:** speculation never changes reported
    results.  Values above 1 pre-evaluate the frontier's best entries
    concurrently, but the main loop consumes candidates strictly in
    priority order and merges each one's journalled clock charges at
    consumption time, so the search history, fitness trajectory and
    every simulated-clock measurement are bit-identical to serial mode
    under a fixed seed — only real wall-clock changes.

    With the default ``executor="thread"`` the workers share the GIL
    and CPU-bound evaluation barely overlaps; use
    ``executor="process"`` (CLI ``--executor process``) for real
    scaling."""
    executor: str = field(default_factory=default_executor)
    """``"thread"`` or ``"process"`` (env ``REPRO_EXECUTOR`` sets the
    default).  ``process`` ships candidates to a persistent worker-
    process pool as compact jobs — by default in the delta wire format
    (``REPRO_DELTA_WIRE``; only the edit's dirty declarations cross the
    wire, see :mod:`repro.core.parallel`) — same determinism contract
    as above, without the GIL."""
    eval_batch: int = 2
    """Process-executor dispatch batching: up to this many speculative
    frontier jobs share one pool submission, amortizing pickle/IPC
    per candidate.  ``1`` disables batching.  Pure wall-clock knob —
    the main loop still consumes results strictly in priority order
    and replays charges at consumption time, so every reported
    measurement is unchanged.  Ignored by the thread executor."""
    store_path: Optional[str] = field(default_factory=default_store_path)
    """Path of the persistent evaluation store (env ``REPRO_STORE`` sets
    the default; None/empty disables).  Ignored when ``use_cache`` is
    False — the store is a durable tier *under* the in-memory cache."""
    interp_backend: Optional[str] = None
    """Execution backend for every interpreted run ("tree", "batch",
    "batch-cross"; None = process default).  Deliberately NOT part of the
    evaluation-cache context token: backends are bit-identical in every
    simulated measurement, so entries written under one backend are valid
    under any other."""
    use_synthesis: bool = field(default_factory=synthesis_default)
    """Evidence-driven parameter synthesis (env ``REPRO_SYNTH`` sets the
    default, off otherwise): parameterized edit families derive stack
    capacities, array extents, bitwidths and partition/II factors from
    the value profile and difftest counterexamples instead of
    enumerating ladders (see :mod:`repro.core.synth`).  Changes only
    *which* candidates are proposed — each candidate's evaluation, and
    hence the cache/store keying, is untouched; with the flag off the
    search is bit-identical to the pre-synthesis implementation.  Only
    active together with ``use_dependence`` (the WithoutDependence
    ablation measures blind enumeration by design)."""

    def __post_init__(self) -> None:
        if (
            not isinstance(self.workers, int)
            or isinstance(self.workers, bool)
            or self.workers < 1
        ):
            raise ValueError(
                f"SearchConfig.workers must be an integer >= 1, got "
                f"{self.workers!r} (0 would deadlock the process "
                f"executor; negatives are meaningless)"
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {EXECUTORS}"
            )
        if (
            not isinstance(self.eval_batch, int)
            or isinstance(self.eval_batch, bool)
            or self.eval_batch < 1
        ):
            raise ValueError(
                f"SearchConfig.eval_batch must be an integer >= 1, got "
                f"{self.eval_batch!r}"
            )


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
    previous run or another worker produced the entry)."""
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

    @property
    def total_minutes(self) -> float:
        """Everything, including post-success performance exploration."""
        return self.clock.minutes


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
            backend=self.config.interp_backend,
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
        # What the worker pool keys contexts by.  Workers keep one job
        # template per context and outlive a search, so the token also
        # covers the template's per-search knobs the cache context leaves
        # out; a later search with the checker off must not inflate its
        # jobs against a template that has it on.  Tens of bytes ride
        # every job, so the wire carries a 64-bit prefix (collision odds
        # across the handful of live contexts: ~1e-17).
        self._wire_context = hashlib.sha256(
            f"{self._cache_context}|style={self.config.use_style_checker}"
            f"|backend={self.config.interp_backend}".encode()
        ).hexdigest()[:16]
        self._inflight: Dict[str, "Future[CachedEvaluation]"] = {}
        if self.config.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.config.executor!r}; "
                f"expected one of {EXECUTORS}"
            )
        self._process_mode = self.config.executor == "process"
        self._original_source: Optional[str] = None
        self._job_template: Optional[EvalJob] = None
        self._baseline_registered = False
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
        counter = itertools.count()
        frontier: List[Tuple[Tuple, int, Candidate]] = []
        heapq.heappush(frontier, ((math.inf, 0, 0.0), next(counter), initial))
        # Synthesis mode dedupes frontier entries by candidate *content*
        # (the evaluation cache's structural digest): derived
        # applications are parameter-exact, so two chains applying the
        # same edits in different orders build the same program, and
        # with k commuting pragma insertions the chain-based key admits
        # up to k! duplicate evaluations of it.  The enumerated path
        # keeps the ordered applied-chain key for bit-identical
        # behaviour with the pre-synthesis search.
        if self.config.use_synthesis:
            dedup_key = lambda cand: cached_candidate_key(
                cand, self._cache_context
            )
        else:
            dedup_key = lambda cand: cand.applied
        seen: Set[Any] = {dedup_key(initial)}
        best: Optional[Evaluation] = None
        success_seconds: Optional[float] = None
        executor: Optional[ThreadPoolExecutor] = None
        speculative = self.config.workers > 1
        if speculative and not self._process_mode:
            warnings.warn(
                "SearchConfig.workers > 1 with executor='thread': the GIL "
                "serializes the CPU-bound toolchain pipeline, so thread "
                "workers barely overlap real work; use executor='process' "
                "(--executor process / REPRO_EXECUTOR=process) for scaling.",
                RuntimeWarning,
                stacklevel=2,
            )
            executor = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repair-eval",
            )

        rec = get_recorder()
        try:
            with rec.span(
                SPAN_SEARCH,
                clock=self.clock,
                kernel=self.kernel_name,
                executor=self.config.executor,
                workers=self.config.workers,
            ):
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
                    if speculative:
                        self._speculate(frontier, executor)
                    _prio, _tick, candidate = heapq.heappop(frontier)
                    self.stats.iterations += 1
                    with rec.span(
                        SPAN_ITERATION,
                        clock=self.clock,
                        iteration=self.stats.iterations,
                    ):
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
                                    # Synthesis's headline measurement:
                                    # candidate evaluations spent per
                                    # repaired subject.
                                    rec.metrics.observe(
                                        "search.candidates_per_repair",
                                        float(self.stats.attempts),
                                        kernel=self.kernel_name,
                                        synthesis=self.config.use_synthesis,
                                    )
                        children = self._propose_children(evaluation)
                        for child in children:
                            key = dedup_key(child)
                            if key in seen:
                                continue
                            seen.add(key)
                            priority = self._child_priority(evaluation, child)
                            heapq.heappush(
                                frontier, (priority, next(counter), child)
                            )
        finally:
            for future in self._inflight.values():
                future.cancel()
            self._inflight.clear()
            if executor is not None:
                executor.shutdown(wait=True)
            # The process pool is shared and persistent (fork-server
            # style): it is deliberately NOT shut down here, so later
            # searches reuse warm workers.
        return SearchResult(
            best=best,
            stats=self.stats,
            clock=self.clock,
            history=self.history,
            success_seconds=success_seconds,
            budget_seconds=self.config.budget_seconds,
        )

    def _speculate(
        self,
        frontier: List[Tuple[Tuple, int, Candidate]],
        executor: Optional[ThreadPoolExecutor],
    ) -> None:
        """Pre-evaluate the frontier's best entries on the worker pool.

        The main loop still consumes candidates strictly in priority
        order and merges each one's journalled clock charges at that
        point, so speculation changes *when* the toolchain pipeline runs
        but never what the search observes: results, history and
        simulated-clock activity are bit-identical to serial mode.
        Speculative results for candidates that never get popped are
        simply dropped (their charges never reach the main clock).

        On the process executor the window widens to
        ``workers * eval_batch`` and pending submissions go out as
        chunked batches (:func:`~repro.core.parallel.submit_job_batch`)
        so pickle/IPC round trips are amortized over several
        candidates; cache presence is probed for the whole window in
        one batched query either way."""
        batch = 1
        window = self.config.workers
        if executor is None and self.config.eval_batch > 1:
            batch = self.config.eval_batch
            window = self.config.workers * batch
        pending: List[Tuple[str, Candidate]] = []
        taken: Set[str] = set()
        for _prio, _tick, candidate in heapq.nsmallest(window, frontier):
            if len(self._inflight) + len(pending) >= window * 2:
                break
            key = cached_candidate_key(candidate, self._cache_context)
            if key in self._inflight or key in taken:
                continue
            taken.add(key)
            pending.append((key, candidate))
        if not pending:
            return
        if self.cache is not None:
            cached = self.cache.contains_many([key for key, _ in pending])
            pending = [
                (key, candidate)
                for key, candidate in pending
                if key not in cached
            ]
        if executor is not None:
            for key, candidate in pending:
                self._inflight[key] = executor.submit(
                    self._run_toolchain, candidate
                )
            return
        for start in range(0, len(pending), batch):
            chunk = pending[start:start + batch]
            futures = submit_job_batch(
                [self._make_job(candidate) for _, candidate in chunk],
                self.config.workers,
            )
            for (key, _), future in zip(chunk, futures):
                self._inflight[key] = future

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, candidate: Candidate) -> Evaluation:
        """Style gate → full compile → differential test, memoized.

        A cache hit replays the recorded simulated charges (identical
        clock activity to a real run) without re-running the toolchain;
        a miss runs the pipeline on a recording clock and merges its
        charges here, on the main thread, in consumption order — which
        keeps batched and serial execution bit-identical.

        Observability mirrors that contract: a worker subtrace riding
        the payload is grafted under this call's ``search.evaluate``
        span at consumption order — then stripped, so wall-clock data
        never reaches a cache tier."""
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
        # from another process, a previous run, or a structurally-equal
        # twin of this candidate); rebind them to this candidate's tree.
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
        """Cache tiers → in-flight speculation → real execution."""
        raw: Optional[CachedEvaluation] = None
        key: Optional[str] = None
        if self.cache is not None or self._inflight or self._process_mode:
            key = cached_candidate_key(candidate, self._cache_context)
        if self.cache is not None and key is not None:
            raw, tier = self.cache.lookup(key)
            if tier == "store":
                self.stats.store_hits += 1
            elif raw is None and self.cache.store is not None:
                self.stats.store_misses += 1
        if raw is not None:
            self.stats.cache_hits += 1
            # A speculative run for the same key may still be in flight
            # (submitted before the entry landed): pop and cancel it so
            # it stops occupying an inflight slot — and a worker — until
            # shutdown.
            if key is not None:
                stale = self._inflight.pop(key, None)
                if stale is not None:
                    stale.cancel()
        else:
            future = self._inflight.pop(key, None) if key is not None else None
            raw = future.result() if future is not None else self._execute(candidate)
            while isinstance(raw, DeltaMiss):
                # The worker lacked referenced decl blocks (spawn pool,
                # cache eviction): note the gap so planning re-ships
                # them, then fall back to a full-source job.  Wall-clock
                # only — the full job's result is what is consumed.
                note_delta_miss(raw.missing)
                raw = submit_job(
                    self._make_job(candidate, full_source=True),
                    self.config.workers,
                ).result()
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
            if raw.wire is not None:
                # Fold the worker's overhead breakdown into the parent-
                # side wire counters, then strip it: wall-clock data
                # must not reach any cache tier.
                record_worker_wire(raw.wire)
                raw = replace(raw, wire=None)
            if raw.trace is not None:
                # Graft the captured stage spans under the open
                # ``search.evaluate`` span (consumption order), then
                # strip them: wall-clock data must not reach any cache
                # tier.
                if rec.enabled:
                    rec.attach_subtrace(raw.trace)
                    rec.metrics.inc("worker.jobs", pid=raw.trace[1])
                raw = replace(raw, trace=None)
            if self.cache is not None and key is not None:
                self.cache.put(key, raw)
        return raw

    def _execute(self, candidate: Candidate) -> CachedEvaluation:
        """Run the toolchain pipeline where the executor says to run it."""
        if self._process_mode:
            return submit_job(self._make_job(candidate), self.config.workers).result()
        return self._run_toolchain(candidate)

    def _make_job(
        self, candidate: Candidate, full_source: bool = False
    ) -> Any:
        """Package a candidate as a picklable worker job (wire format of
        :mod:`repro.core.parallel`): plain data, never live AST or
        engine objects.  By default the candidate travels as a slim
        :class:`DeltaJob` envelope — packed per-decl fingerprints with
        dictionary-compressed blocks only for declarations not already
        known to the workers, inflated worker-side against the
        context-resident job template; ``full_source=True`` (the
        :class:`DeltaMiss` fallback) and the ``REPRO_DELTA_WIRE=0`` /
        ``REPRO_INCREMENTAL=0`` escape hatches ship a whole-source
        :class:`EvalJob` instead."""
        import dataclasses

        if self._job_template is None:
            self._original_source = render(self.original)
            self._job_template = EvalJob(
                source="",
                config=candidate.config,
                context_id=self._wire_context,
                original_source=self._original_source,
                kernel_name=self.kernel_name,
                tests=tuple(tuple(test) for test in self._diff_tests),
                limits=self.limits,
                max_faults=EVAL_MAX_FAULTS,
                use_style_checker=self.config.use_style_checker,
                interp_backend=self.config.interp_backend,
                incremental=incremental_mode(),
            )
        delta = not full_source and self._delta_wire()
        if delta and not self._baseline_registered:
            # Baseline broadcast: workers re-derive the decl blocks,
            # original source, diff tests and job template from the
            # context registries (filled before the pool forks), so
            # delta jobs never re-ship any of them.
            register_baseline(
                self._wire_context,
                self.original,
                tests=self._job_template.tests,
                original_source=self._original_source,
                template=self._job_template,
            )
            self._baseline_registered = True
        if delta:
            return DeltaJob(
                c=self._wire_context,
                g=candidate.config,
                d=plan_decl_entries(
                    candidate.unit, self._wire_context, self.config.workers
                ),
                i=incremental_mode(),
                t=get_recorder().enabled,
                a=graft_mode(),
            )
        return dataclasses.replace(
            self._job_template,
            source=render(candidate.unit),
            config=candidate.config,
            incremental=incremental_mode(),
            trace=get_recorder().enabled,
            graft=graft_mode(),
        )

    def _delta_wire(self) -> bool:
        return delta_wire_enabled() and incremental_mode() != "off"

    def _run_toolchain(self, candidate: Candidate) -> CachedEvaluation:
        """Execute the real pipeline against a recording clock.

        Returns a canonical-uid-space payload (see
        :mod:`repro.core.evalcache`), exactly like the process workers
        do, so every entry that reaches the cache or store is uniform.
        Pure in everything but the recorder: reads only immutable search
        state (original unit, precomputed CPU reference, test subset), so
        worker threads may run it speculatively.

        When tracing is enabled, stage spans are captured into a
        run-local recorder and returned as a subtrace on the payload's
        ``trace`` side-channel — identical to what a process worker
        ships back — so the consuming ``evaluate`` call re-parents them
        uniformly regardless of executor."""
        if not get_recorder().enabled:
            return self._toolchain_pipeline(candidate)
        tracer = TraceRecorder()
        with scoped_recorder(tracer):
            result = self._toolchain_pipeline(candidate)
        return replace(result, trace=tracer.subtrace())

    def _toolchain_pipeline(self, candidate: Candidate) -> CachedEvaluation:
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
                backend=self.config.interp_backend,
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

    def _propose_children(self, evaluation: Evaluation) -> List[Candidate]:
        candidate = evaluation.candidate
        report = evaluation.compile_report
        assert report is not None
        evidence = self._evidence_for(evaluation)
        if evidence is not None:
            # Synthesis-first proposal: derivations consume the evidence
            # inside a dedicated span so journal consumers can see how
            # often parameters were computed rather than enumerated.
            with get_recorder().span(
                SPAN_SYNTH,
                clock=self.clock,
                counterexamples=len(evidence.counterexamples),
            ):
                applications = self._applications_for(evaluation, evidence)
        else:
            applications = self._applications_for(evaluation, None)
        # Applying an edit deep-copies the program; only materialize as
        # many children as the round may actually enqueue.
        children: List[Candidate] = []
        for application in applications:
            if len(children) >= self.config.max_children_per_round:
                break
            child = application.apply(candidate)
            if child is not None:
                children.append(child)
        return children

    def _applications_for(
        self, evaluation: Evaluation, evidence: Optional[Evidence]
    ) -> List:
        candidate = evaluation.candidate
        report = evaluation.compile_report
        assert report is not None
        if report.errors:
            return self._repair_proposals(candidate, report.errors, evidence)
        assert evaluation.diff_report is not None
        if not evaluation.diff_report.behavior_preserved:
            return self._behavior_proposals(candidate, report.errors, evidence)
        if self.config.perf_exploration:
            return self._perf_proposals(candidate, evidence)
        return []

    def _evidence_for(self, evaluation: Evaluation) -> Optional[Evidence]:
        """Evidence bundle for synthesis-first proposal, or None when
        synthesis is off (None keeps every downstream code path
        bit-identical to the pre-synthesis search)."""
        if not (self.config.use_synthesis and self.config.use_dependence):
            return None
        counterexamples: Tuple = ()
        if evaluation.diff_report is not None:
            counterexamples = tuple(evaluation.diff_report.counterexamples)
        return Evidence(
            kernel_name=self.kernel_name,
            profile=self.context.profile,
            counterexamples=counterexamples,
        )

    def _repair_proposals(
        self,
        candidate: Candidate,
        errors: Sequence[Diagnostic],
        evidence: Optional[Evidence] = None,
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
            edits, candidate, errors, self.context, evidence=evidence
        )
        if not applications:
            # The focused family is exhausted; widen to all families.
            applications = ordered_applications(
                self.registry.all_edits(), candidate, errors, self.context,
                evidence=evidence,
            )
        return applications

    def _behavior_proposals(
        self,
        candidate: Candidate,
        errors,
        evidence: Optional[Evidence] = None,
    ):
        edits = self.registry.behavior_edits
        if self.config.use_dependence:
            return ordered_applications(
                edits, candidate, errors, self.context, evidence=evidence
            )
        return unordered_applications(edits, candidate, errors, self.context, self.rng)

    def _perf_proposals(
        self, candidate: Candidate, evidence: Optional[Evidence] = None
    ):
        edits = self.registry.perf_edits
        applications = ordered_applications(
            edits, candidate, (), self.context, evidence=evidence
        )
        if not self.config.use_dependence:
            self.rng.shuffle(applications)
        return applications

    # -- ordering ------------------------------------------------------------------

    def _child_priority(self, parent: Evaluation, child: Candidate) -> Tuple:
        """Optimistic priority: children of fitter parents first."""
        parent_fit = parent.fitness
        return (
            parent_fit.compile_errors,
            parent_fit.fail_ratio,
            len(child.applied),
        )
