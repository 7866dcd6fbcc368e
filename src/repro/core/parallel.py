"""Process-based evaluation executor — the GIL-free verify pool.

``SearchConfig.workers`` (PR 1) fans candidate verification out on a
``ThreadPoolExecutor``, but style checking, HLS compilation and the
interpreter are pure Python: the GIL serializes them, so thread workers
overlap almost nothing.  This module ships the same work to a pool of
**worker processes** instead (``SearchConfig.executor = "process"``,
CLI ``--executor``, env :data:`EXECUTOR_ENV`).

Wire format
-----------

Live search state does not cross the process boundary.  AST nodes are
mutable, lowered programs (:mod:`repro.interp.batch`) hold exec'd
functions and unpicklable cell chains, and shipping either would be
both slow and a determinism hazard.  A job (:class:`EvalJob`) therefore carries only
plain data:

* the candidate's source — as a whole rendered string, or (the default)
  in the **delta wire format** below;
* the evaluation context, once per context: the original program's
  rendered source, kernel name, diff-test subset, execution limits and
  fault budget — exactly the inputs :func:`~repro.core.evalcache.context_token`
  hashes, and the token itself as the worker-side context-cache key;
* the pipeline knobs (style checker on/off, interpreter backend,
  incremental mode) that the worker must mirror.

The worker parses the source, runs the identical style → compile →
differential-test pipeline against a recording clock, and returns a
:class:`~repro.core.evalcache.CachedEvaluation` in the **canonical uid
space** (worker-local uids would be meaningless to the parent).  The
parent replays the journalled charges into its own clock at consumption
time, so serial, thread-parallel and process-parallel runs are
bit-identical in every simulated measurement.

Delta wire format
-----------------

Candidates differ from the baseline program by one or two edited
declarations, yet the PR 4 wire format re-shipped (and every worker
re-parsed) the whole unit per job — which is why cold 2-worker runs
*lost* to serial.  With delta wire (:data:`DELTA_ENV`, on by default
whenever incremental mode is on), a job instead carries
``(packed_fps, dirty)``: one flat ``bytes`` of concatenated per-decl
wire fingerprints in declaration order (:func:`wire_fp` is the
structural fingerprint truncated to 96 bits and byte-packed — 12 bytes
per declaration, no per-entry pickle framing) plus a tuple of
``(decl_index, compressed_block)`` pairs for the dirty declarations
only:

* a fingerprint with no dirty entry means "you already hold this
  block": the parent only elides a block it registered via
  :func:`register_baseline` (every worker re-derives baseline blocks
  from the context payload when it first builds the context, *before*
  splicing — so baseline references always resolve) or that was in the
  block cache when the current pool forked (fork children inherit it)
  — provable knowledge only, never a shipped-count guess;
* a dirty block is the declaration's rendered source
  (:func:`~repro.cfront.printer.render_decl`), zlib-compressed against
  the context's original source as shared dictionary (``zdict``) —
  candidate declarations are near-copies of baseline declarations, so
  the dictionary collapses them to roughly the size of the edit; the
  worker decompresses (its payload registry holds the identical
  dictionary bytes) and caches the block under its fingerprint for
  later jobs;
* the whole job travels as a slim :class:`DeltaJob` envelope — context
  token, candidate config, the decls above, two mode flags — inflated
  worker-side against the context-resident :class:`EvalJob` template,
  so the per-run constants (kernel name, limits, fault budget, knobs)
  and pickle's per-field-name strings stay off the wire entirely.

The per-context constants — the original's rendered source and the
diff-test subset, typically as large as the candidate source itself —
are likewise **context-resident**: :func:`register_baseline` records
them in a parent-side registry that fork children inherit, and delta
jobs ship ``original_source=""`` / ``tests=None``.  A worker asked to
build a context it cannot resolve locally (spawn-start pools) returns
:class:`DeltaMiss`; the full-source resubmission carries the payload
inline and heals that worker for the rest of the run.

The worker reassembles the **exact** full source
(:func:`~repro.cfront.printer.render_unit_from_blocks` is
byte-identical to ``render(unit)`` — property-tested) and parses with
the same uid-counter reset as a full-source job, so delta-on and
delta-off runs are bit-identical by construction; the protocol only
changes what crosses the wire.  A worker missing a referenced block
(spawn-start pools, block-cache eviction) returns :class:`DeltaMiss`
and the parent re-submits that candidate as a full-source job — a pure
wall-clock fallback.

On top of the splice, workers keep two parse-elision tiers.  The
content-addressed **parsed-unit LRU** (same content addressing as the
parent's evalcache) skips the parse entirely when the whole spliced
source was seen before — rare in steady state, since candidates are
almost never byte-identical.  Below it, the **decl-template cache**
(:mod:`repro.cfront.graft`) works at the grain where candidates *are*
identical: delta jobs reconstruct their unit by cloning cached
per-declaration ASTs and remapping uids/lines into place, mini-parsing
only the blocks without a cached template — in practice the one or two
declarations the candidate edited.  The graft contract (the grafted
unit is bit-identical to a full parse of the spliced source) is
enforced on every job under ``REPRO_AST_GRAFT=cross`` and switched off
entirely under ``REPRO_AST_GRAFT=0``; the mode rides the job envelope
so workers mirror the parent, never their own environment.  Identical
source text parses (under the counter reset) to a value-identical
tree, so reuse in either tier is observationally exact.

Fork-server pool
----------------

Workers are persistent (fork-server style): one pool outlives the
search that first needed it, so later searches — a benchmark sweep, a
long-lived service — reuse warm workers whose imports, parsed contexts
and analysis memos are already paid for.  Each worker keeps a small
context cache keyed by the context token (parsed original, precomputed
CPU reference) and resets the node-uid counter before parsing each
candidate, which keeps exact fingerprints — and therefore the
per-function analysis memos of PR 3 — shared across jobs.

Subject-level fan-out
---------------------

One search's candidate stream is consumed strictly in priority order,
which caps how much latency speculation can hide.  Sweeps over many
independent subjects (Table 3) have no such ordering constraint, so
:func:`run_subjects` fans whole-subject pipeline runs out over the same
pool and reaches near-linear speedups.  Workers return a plain summary
dict (a ``TranspileResult`` holds ASTs and is deliberately not
picklable as a whole).
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import multiprocessing
import os
import pickle
import time
import zlib
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..cfront import nodes as N
from ..cfront.fingerprint import forced_mode, incremental_mode, structural_fp
from ..cfront.graft import (
    GraftStats,
    GraftUnsupported,
    graft_mode,
    graft_unit,
    graft_unit_cross,
    warm_templates,
)
from ..cfront.parser import parse
from ..cfront.printer import render_decl, render_unit_from_blocks
from ..difftest import DiffReport, differential_test, run_cpu_reference
from ..hls.clock import SimulatedClock
from ..hls.compiler import compile_unit
from ..hls.platform import SolutionConfig
from ..hls.stylecheck import check_style
from ..interp import ExecLimits
from ..obs import TraceRecorder, get_recorder, scoped_recorder
from .evalcache import CachedEvaluation, WireStats, canonicalize_evaluation

EXECUTORS = ("thread", "process")

#: Environment variable selecting the default executor.
EXECUTOR_ENV = "REPRO_EXECUTOR"
#: Environment variable selecting the default worker count.
WORKERS_ENV = "REPRO_WORKERS"
#: Environment variable gating the delta wire format (on by default;
#: ``0`` ships every job as whole rendered source, the escape hatch).
DELTA_ENV = "REPRO_DELTA_WIRE"

#: Worker-side context-cache capacity.  Contexts are one parsed unit
#: plus one reference-output list each; a handful covers any sweep.
_MAX_WORKER_CONTEXTS = 8
#: Per-process rendered-decl block cache capacity (parent and workers).
#: Blocks are content-addressed by structural fingerprint; a search
#: touches a few dozen distinct decl versions, so this never evicts in
#: practice — the bound exists for long-lived (server-style) processes.
_MAX_DECL_BLOCKS = 4096
#: Worker-side parsed-unit LRU capacity.  Each entry pins a full AST
#: plus its memos, so this stays small.  What it serves:
#: :class:`DeltaMiss` resends re-parsing content their delta twin
#: shipped, and later searches over the same subject (reruns, warm
#: sweeps) re-submitting content a previous search already parsed —
#: entries are keyed by content, so they survive context turnover and
#: the bound must cover a couple of search generations, not one
#: speculation window.
_MAX_PARSED_UNITS = 32
#: Wire fingerprints are structural fingerprints truncated to this many
#: hex characters and packed into raw bytes (96 bits).  The block cache
#: holds at most :data:`_MAX_DECL_BLOCKS` entries, so the collision
#: probability is ~1e-21 — far below the pickle layer's own
#: undetected-corruption odds — and the 12-byte packing saves ~50
#: bytes per declaration per job over the full hex digest.
_WIRE_FP_LEN = 24
_WIRE_FP_BYTES = _WIRE_FP_LEN // 2
#: zlib level for shipped decl blocks.  Dirty blocks are compressed
#: against the context's original source as shared dictionary
#: (``zdict``): a candidate declaration is a near-copy of a baseline
#: declaration, so the dictionary collapses it to roughly the size of
#: the edit, at tens of microseconds per block.
_WIRE_COMPRESSION = 6


def default_executor() -> str:
    raw = os.environ.get(EXECUTOR_ENV, "").strip().lower()
    return raw if raw in EXECUTORS else "thread"


def default_workers() -> Optional[int]:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    try:
        return max(1, int(raw)) if raw else None
    except ValueError:
        return None


def delta_wire_enabled() -> bool:
    """Is the delta wire format enabled (env :data:`DELTA_ENV`)?

    The search additionally requires incremental mode to be on: with
    ``REPRO_INCREMENTAL=0`` every pipeline must behave exactly as the
    pre-incremental code, and the delta protocol is fingerprint-based.
    """
    raw = os.environ.get(DELTA_ENV, "1").strip().lower()
    return raw not in ("0", "off", "false", "no")


# --------------------------------------------------------------------------
# Job wire format
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalJob:
    """One candidate verification, as plain picklable data."""

    source: str
    """Rendered candidate source (the worker re-parses it)."""
    config: SolutionConfig
    context_id: str
    """The search's cache-context token; keys the worker context cache."""
    original_source: str
    """The baseline program's rendered source, or ``""`` on delta jobs:
    the payload is context-resident (see :func:`register_baseline`) and
    a worker that cannot resolve it locally answers :class:`DeltaMiss`."""
    kernel_name: str
    tests: Optional[Tuple[Tuple[Any, ...], ...]]
    """The diff-test subset, or ``None`` on delta jobs (context-resident,
    like ``original_source`` — tests can outweigh the candidate source
    on the wire)."""
    limits: Optional[ExecLimits]
    max_faults: int
    use_style_checker: bool
    interp_backend: Optional[str]
    incremental: str
    """Incremental mode the worker must force (the parent may be inside
    ``forced_mode``, which the child cannot see through the pool)."""
    trace: bool = False
    """Capture a worker-local span subtrace and return it on the
    evaluation's ``trace`` side-channel (see :mod:`repro.obs.recorder`).
    Deliberately NOT part of any cache key and never persisted: the
    parent strips the subtrace before every cache tier."""
    decls: Optional[Tuple[bytes, Tuple[Tuple[int, bytes], ...]]] = None
    """Delta wire format: ``(packed_fps, dirty)`` — the concatenated
    12-byte wire fingerprints of every top-level declaration in
    declaration order, plus ``(decl_index, compressed_block)`` pairs
    for the dirty declarations (zlib with the context's original source
    as shared dictionary); see the module docstring.  Fingerprints with
    no dirty entry reference the worker's content-addressed block
    cache.  When set, ``source`` is empty and the worker reassembles
    the exact full source before parsing."""
    graft: str = "on"
    """AST-graft mode the worker must apply (``on``/``off``/``cross``) —
    stamped by the producer from :func:`~repro.cfront.graft.graft_mode`
    so workers mirror the parent even across environment drift."""


@dataclass(frozen=True)
class DeltaJob:
    """Slim wire envelope for one delta evaluation.

    Everything constant per context — kernel name, limits, diff tests,
    fault budget, style/backend knobs — rides the worker-resident job
    template registered by :func:`register_baseline`; the envelope
    ships only what varies per candidate.  The single-letter field
    names are deliberate: a pickled dataclass ships every field name as
    a string, and on :class:`EvalJob` those strings alone cost ~150
    bytes per job.  Workers inflate the envelope back into an
    :class:`EvalJob` before evaluating; an unknown context token
    answers :class:`DeltaMiss`, and the full-source resubmission heals
    the worker's template registry for the rest of the run."""

    c: str
    """Context token (:attr:`EvalJob.context_id`)."""
    g: SolutionConfig
    """The candidate's solution config (:attr:`EvalJob.config`)."""
    d: Tuple[bytes, Tuple[Tuple[int, bytes], ...]]
    """Packed-fps delta declarations (:attr:`EvalJob.decls`)."""
    i: str
    """Incremental mode (:attr:`EvalJob.incremental`)."""
    t: bool = False
    """Trace capture flag (:attr:`EvalJob.trace`)."""
    a: str = "on"
    """AST-graft mode (:attr:`EvalJob.graft`)."""


@dataclass(frozen=True)
class DeltaMiss:
    """Worker verdict: a delta job referenced decl blocks this worker
    does not hold (spawn-start pool, block-cache eviction).  The parent
    notes the gap (:func:`note_delta_miss`) and re-submits the candidate
    as a full-source job — a pure wall-clock fallback, invisible to
    every simulated measurement."""

    missing: Tuple[Any, ...]


# --------------------------------------------------------------------------
# Content-addressed decl blocks (parent plans against this; workers
# inherit it via fork and extend it from arriving jobs)
# --------------------------------------------------------------------------

_DECL_BLOCKS: "OrderedDict[bytes, str]" = OrderedDict()
#: Baseline decl fingerprints per context token: every worker re-derives
#: these blocks from the context payload before its first splice, so the
#: parent may always elide them.
_BASELINE_FPS: Dict[str, Set[bytes]] = {}
#: Fingerprints present in the block cache when the current pool forked
#: (fork children inherit the cache, so these are known to every worker).
_SEEDED_AT_FORK: Set[bytes] = set()
#: Full-block sends per fingerprint since the current pool was created.
_SHIPPED_COUNTS: Dict[bytes, int] = {}
#: Context-resident job payload per context token:
#: ``(original_source, tests)``.  Registered by the parent before the
#: pool exists, inherited by fork children; delta jobs reference it
#: instead of re-shipping both every job.
_CONTEXT_PAYLOADS: Dict[str, Tuple[str, Tuple[Tuple[Any, ...], ...]]] = {}
#: Context-resident :class:`EvalJob` template per context token: the
#: per-run constants a :class:`DeltaJob` envelope is inflated against.
#: Registered alongside the payload; healed from full-source jobs.
_CONTEXT_TEMPLATES: Dict[str, "EvalJob"] = {}


def wire_fp(unit: N.TranslationUnit, decl: N.Decl) -> bytes:
    """The truncated, byte-packed structural fingerprint a decl travels
    under (see :data:`_WIRE_FP_LEN`).  Parent and worker derive it with
    this one function, so the content addressing always agrees."""
    return bytes.fromhex(structural_fp(unit, decl)[:_WIRE_FP_LEN])


def _remember_block(fp: bytes, block: str) -> None:
    _DECL_BLOCKS[fp] = block
    _DECL_BLOCKS.move_to_end(fp)
    while len(_DECL_BLOCKS) > _MAX_DECL_BLOCKS:
        _DECL_BLOCKS.popitem(last=False)


def _block_for(fp: bytes) -> Optional[str]:
    block = _DECL_BLOCKS.get(fp)
    if block is not None:
        _DECL_BLOCKS.move_to_end(fp)
    return block


def _register_unit_blocks(unit: N.TranslationUnit) -> Set[bytes]:
    fps = set()
    for decl in unit.decls:
        fp = wire_fp(unit, decl)
        fps.add(fp)
        if fp not in _DECL_BLOCKS:
            _remember_block(fp, render_decl(decl))
        else:
            _DECL_BLOCKS.move_to_end(fp)
    return fps


def register_baseline(
    context_id: str,
    unit: N.TranslationUnit,
    tests: Optional[Tuple[Tuple[Any, ...], ...]] = None,
    original_source: Optional[str] = None,
    template: Optional[EvalJob] = None,
) -> None:
    """Register a context's baseline unit for delta-wire planning.

    Called by the search before its first job (and harmless to repeat):
    caches every baseline decl block under its structural fingerprint
    and marks the fingerprints as always-elidable for this context —
    workers rebuild the identical blocks from the context payload when
    they first materialize the context, before any splice, so a
    baseline reference can never miss.

    When *tests* and *original_source* are given they become the
    context-resident payload: the pool forks after this call, so fork
    children inherit the registry and delta jobs can ship
    ``original_source=""`` / ``tests=None``.  A *template* likewise
    becomes the context-resident :class:`EvalJob` the slim
    :class:`DeltaJob` envelope is inflated against."""
    _BASELINE_FPS.setdefault(context_id, set()).update(
        _register_unit_blocks(unit)
    )
    if tests is not None and original_source is not None:
        _CONTEXT_PAYLOADS[context_id] = (original_source, tests)
    if template is not None:
        _CONTEXT_TEMPLATES[context_id] = template


def _context_zdict(context_id: str) -> bytes:
    """The shared compression dictionary for a context's dirty blocks:
    the registered original source, byte-identical on both sides of the
    wire (the parent registers it, fork workers inherit it, and healed
    workers record it from the full-source resubmission)."""
    payload = _CONTEXT_PAYLOADS.get(context_id)
    return payload[0].encode() if payload is not None else b""


def _compress_block(block: str, zdict: bytes) -> bytes:
    co = zlib.compressobj(
        _WIRE_COMPRESSION,
        zlib.DEFLATED,
        zlib.MAX_WBITS,
        zlib.DEF_MEM_LEVEL,
        zlib.Z_DEFAULT_STRATEGY,
        zdict,
    )
    return co.compress(block.encode()) + co.flush()


def _decompress_block(blob: bytes, zdict: bytes) -> str:
    do = zlib.decompressobj(zlib.MAX_WBITS, zdict)
    return (do.decompress(blob) + do.flush()).decode()


def plan_decl_entries(
    unit: N.TranslationUnit, context_id: str, pool_width: int
) -> Tuple[bytes, Tuple[Tuple[int, bytes], ...]]:
    """Parent-side delta planning: ``(packed_fps, dirty)`` for one job.

    A block is elided (no dirty entry) only when every worker
    **provably** holds it: baseline decls of this context (re-derived
    worker-side from the context payload) and blocks that were in the
    cache when the pool forked (inherited).  Everything else — in
    practice the one or two decls the candidate edited — ships as a
    ``(decl_index, block)`` pair, compressed against the context's
    original source.  An earlier shipped-count heuristic ("sent
    pool-width times, someone must have it") turned out to *lose*
    wall-clock: the pool queue says nothing about which worker got
    those sends, and every wrong guess costs a :class:`DeltaMiss`
    round trip plus a full-source resubmission."""
    baseline = _BASELINE_FPS.get(context_id, ())
    zdict = _context_zdict(context_id)
    fps: List[bytes] = []
    dirty: List[Tuple[int, bytes]] = []
    for index, decl in enumerate(unit.decls):
        fp = wire_fp(unit, decl)
        fps.append(fp)
        if fp in baseline or fp in _SEEDED_AT_FORK:
            continue
        block = _block_for(fp)
        if block is None:
            block = render_decl(decl)
            _remember_block(fp, block)
        _SHIPPED_COUNTS[fp] = _SHIPPED_COUNTS.get(fp, 0) + 1
        dirty.append((index, _compress_block(block, zdict)))
    return b"".join(fps), tuple(dirty)


def note_delta_miss(missing: Sequence[Any]) -> None:
    """Record a worker's :class:`DeltaMiss`: forget every "already
    shipped/seeded" claim for the missing fingerprints so future jobs
    ship the blocks again, and count the resend.  ``context:<token>``
    entries (unresolvable context payload) have no parent-side claim to
    clear — the full-source resubmission itself heals the worker."""
    _WIRE_TOTALS["resends"] += 1
    for fp in missing:
        _SHIPPED_COUNTS.pop(fp, None)
        _SEEDED_AT_FORK.discard(fp)
        for fps in _BASELINE_FPS.values():
            fps.discard(fp)
    recorder = get_recorder()
    if recorder.enabled:
        recorder.metrics.inc("parallel.delta.misses", len(missing))


class _ContextUnavailable(Exception):
    """A delta job's context payload could not be resolved locally
    (spawn-start worker, payload registered after fork).  Surfaces to
    the parent as :class:`DeltaMiss`."""

    def __init__(self, missing: Tuple[Any, ...]) -> None:
        super().__init__(f"unresolvable context payload: {missing!r}")
        self.missing = missing


@dataclass
class _WorkerContext:
    original: N.TranslationUnit
    reference: Any
    cpu_ns: float
    tests: Tuple[Tuple[Any, ...], ...] = ()
    """The diff-test subset the context was materialized with — delta
    jobs ship ``tests=None`` and read it from here."""


_WORKER_CONTEXTS: "OrderedDict[str, _WorkerContext]" = OrderedDict()
_CONTEXT_STATS = {"hits": 0, "misses": 0, "evictions": 0}
_PARSED_UNITS: "OrderedDict[Tuple[str, Any], N.TranslationUnit]" = OrderedDict()
_UNIT_CACHE_STATS = {"hits": 0, "misses": 0}


def context_cache_stats() -> Dict[str, int]:
    """This process's worker-context cache counters (tests, debugging)."""
    return dict(_CONTEXT_STATS)


def unit_cache_stats() -> Dict[str, int]:
    """This process's parsed-unit cache counters (tests, debugging)."""
    return dict(_UNIT_CACHE_STATS)


def _worker_context(job: EvalJob) -> _WorkerContext:
    context = _WORKER_CONTEXTS.get(job.context_id)
    recorder = get_recorder()
    if context is not None:
        _WORKER_CONTEXTS.move_to_end(job.context_id)
        _CONTEXT_STATS["hits"] += 1
        if recorder.enabled:
            recorder.metrics.inc("worker.context_cache", outcome="hit")
        return context
    _CONTEXT_STATS["misses"] += 1
    if recorder.enabled:
        recorder.metrics.inc("worker.context_cache", outcome="miss")
    original_source = job.original_source
    tests = job.tests
    if not original_source or tests is None:
        # Delta job: the payload is context-resident.  A fork worker
        # inherited the registry; a spawn worker that cannot resolve it
        # reports DeltaMiss and the full-source resubmission heals it.
        payload = _CONTEXT_PAYLOADS.get(job.context_id)
        if payload is not None:
            if not original_source:
                original_source = payload[0]
            if tests is None:
                tests = payload[1]
        if not original_source or tests is None:
            raise _ContextUnavailable((f"context:{job.context_id}",))
    # A full-source job carries everything inline: record the payload
    # (the tests and the shared compression dictionary) and a job
    # template for DeltaJob inflation, so one resubmission heals a
    # worker that missed the pre-fork registration for good.
    _CONTEXT_PAYLOADS.setdefault(job.context_id, (original_source, tests))
    _CONTEXT_TEMPLATES.setdefault(
        job.context_id,
        replace(
            job,
            source="",
            original_source=original_source,
            tests=tests,
            decls=None,
            trace=False,
        ),
    )
    original = parse(original_source, top_name=job.kernel_name)
    # Make the baseline decl blocks resolvable before any splice: the
    # parent elides them unconditionally (see register_baseline).
    _register_unit_blocks(original)
    # The reference run's charges were already paid by the parent
    # when *its* search initialized; here they go to a scratch clock.
    reference, cpu_ns = run_cpu_reference(
        original,
        job.kernel_name,
        [list(test) for test in tests],
        limits=job.limits,
        clock=SimulatedClock(),
        backend=job.interp_backend,
    )
    if job.graft != "off":
        # Pre-warm the decl-template cache with the baseline's blocks:
        # context construction already pays a full parse and a reference
        # run once per search, so the first delta job grafts warm and
        # per-job parse time only covers edited declarations.  (After
        # the reference run: warming resets the node-uid counter.)
        warm_templates([render_decl(decl) for decl in original.decls])
    context = _WorkerContext(original, reference, cpu_ns, tests=tests)
    while len(_WORKER_CONTEXTS) >= _MAX_WORKER_CONTEXTS:
        # True LRU: evict the least-recently *used* context, not the
        # oldest-inserted one (FIFO would evict the sweep's hottest
        # context whenever an eighth subject showed up).
        _WORKER_CONTEXTS.popitem(last=False)
        _CONTEXT_STATS["evictions"] += 1
        if recorder.enabled:
            recorder.metrics.inc("worker.context_evictions")
    _WORKER_CONTEXTS[job.context_id] = context
    return context


def evaluate_job(job: Any) -> Any:
    """Worker entry point: the search's ``_run_toolchain`` on plain data.

    Accepts either a full :class:`EvalJob` or a slim :class:`DeltaJob`
    envelope; the latter is inflated against the context-resident job
    template first (unknown template → :class:`DeltaMiss`, healed by
    the full-source resubmission).

    Mirrors :meth:`repro.core.search.RepairSearch._run_toolchain` stage
    for stage.  The returned payload is canonical-space: uids minted in
    this process never leak out.  Returns :class:`DeltaMiss` instead of
    an evaluation when a delta job references blocks this worker lacks.

    When ``job.trace`` is set, stage spans are captured into a
    job-local :class:`~repro.obs.TraceRecorder` (installed as the
    thread-scoped recorder so the instrumented stage functions find it)
    and returned as a picklable subtrace on ``CachedEvaluation.trace``;
    the consuming parent re-parents those spans under its own
    ``search.evaluate`` span and strips them before any cache tier.
    """
    if isinstance(job, DeltaJob):
        template = _CONTEXT_TEMPLATES.get(job.c)
        if template is None:
            return DeltaMiss((f"context:{job.c}",))
        job = replace(
            template,
            config=job.g,
            decls=job.d,
            incremental=job.i,
            trace=job.t,
            graft=job.a,
        )
    if not job.trace:
        return _evaluate_pipeline(job)
    tracer = TraceRecorder()
    with scoped_recorder(tracer):
        result = _evaluate_pipeline(job)
    if isinstance(result, DeltaMiss):
        return result
    return replace(result, trace=tracer.subtrace())


def _splice_blocks(
    job: EvalJob,
) -> Tuple[Optional[List[str]], Tuple[Any, ...]]:
    """Resolve a delta job's decl blocks from cached + shipped entries.

    Returns ``(blocks, ())`` in declaration order or
    ``(None, missing_fps)``.  Shipped blocks are cached for later jobs
    either way."""
    packed, dirty = job.decls or (b"", ())
    shipped = dict(dirty)
    if shipped and job.context_id not in _CONTEXT_PAYLOADS:
        # Dirty blocks are compressed against the context payload; a
        # worker without it cannot decompress them (and could not have
        # built the context either — this is belt and braces).
        return None, (f"context:{job.context_id}",)
    zdict = _context_zdict(job.context_id)
    blocks: List[str] = []
    missing: List[Any] = []
    for index in range(len(packed) // _WIRE_FP_BYTES):
        fp = packed[index * _WIRE_FP_BYTES : (index + 1) * _WIRE_FP_BYTES]
        blob = shipped.get(index)
        if blob is None:
            block = _block_for(fp)
            if block is None:
                missing.append(fp)
                continue
        else:
            block = _decompress_block(blob, zdict)
            _remember_block(fp, block)
        blocks.append(block)
    if missing:
        return None, tuple(missing)
    return blocks, ()


def _splice_source(job: EvalJob) -> Tuple[Optional[str], Tuple[Any, ...]]:
    """Reassemble a delta job's full source from cached + shipped blocks.

    Returns ``(source, ())`` or ``(None, missing_fps)``."""
    blocks, missing = _splice_blocks(job)
    if blocks is None:
        return None, missing
    return render_unit_from_blocks(blocks), ()


def _candidate_unit(
    job: EvalJob, source: str, blocks: Optional[List[str]] = None
) -> Tuple[N.TranslationUnit, float, bool, Optional[GraftStats]]:
    """Parse the candidate, served from the worker's parsed-unit LRU
    when the content was seen before, or grafted from the decl-template
    cache when the job arrived as delta blocks.

    Cache key: the kernel name plus a digest of the (spliced) source —
    pure content addressing, deliberately *not* scoped by wire format
    or context token.  The first cut keyed delta jobs by their packed
    decl-fingerprint bytes and full jobs by a source digest, both
    scoped by context — two disjoint namespaces for the same content.
    That defeated exactly the repeats the cache exists for: a
    :class:`DeltaMiss` resend re-parses content its delta twin already
    referenced, and a later search over the same subject (a rerun, a
    warm sweep) re-parses everything because its fresh context token
    changes every key.  Parent-side eval-cache/inflight dedup already
    guarantees each distinct content is submitted at most once *per
    search*, so those cross-format and cross-context repeats are the
    only hits structurally available — which is why the wire sweep
    measured a ~0 hit rate before the keys were unified.

    A hit is observationally exact: identical source parses (under the
    uid-counter reset) to a value-identical tree regardless of which
    context asked, and units are never mutated after evaluation
    starts.  Bypassed when incremental mode is off so the escape hatch
    restores pre-incremental behaviour to the letter.

    Below the unit LRU, a miss with *blocks* in hand (a delta job) and
    graft mode on goes to the decl-grain template cache instead of a
    full parse: :func:`~repro.cfront.graft.graft_unit` mini-parses only
    the blocks without a cached template and grafts the rest.  ``cross``
    mode additionally full-parses and asserts node-exact equality on
    every job; a :class:`~repro.cfront.graft.GraftUnsupported` block
    falls back to the plain full parse.  Returns
    ``(unit, parse_seconds, was_cache_hit, graft_stats_or_None)``."""
    key: Optional[Tuple[str, Any]] = None
    if job.incremental != "off":
        key = (
            job.kernel_name,
            hashlib.sha256(source.encode()).hexdigest(),
        )
        unit = _PARSED_UNITS.get(key)
        if unit is not None:
            _PARSED_UNITS.move_to_end(key)
            _UNIT_CACHE_STATS["hits"] += 1
            return unit, 0.0, True, None
        _UNIT_CACHE_STATS["misses"] += 1
    gstats: Optional[GraftStats] = None
    unit = None
    if blocks is not None and key is not None and job.graft != "off":
        reconstruct = graft_unit_cross if job.graft == "cross" else graft_unit
        try:
            unit, gstats = reconstruct(blocks, top_name=job.kernel_name)
        except GraftUnsupported:
            unit, gstats = None, None
    if unit is None:
        started = time.perf_counter()
        # Deterministic uids per job: re-parses of the same source get
        # identical exact fingerprints, so the per-function analysis
        # memos hit across jobs that share unedited functions.
        N._uid_counter = itertools.count(1)
        unit = parse(source, top_name=job.kernel_name)
        parse_seconds = time.perf_counter() - started
    else:
        parse_seconds = gstats.parse_seconds
    if key is not None:
        _PARSED_UNITS[key] = unit
        while len(_PARSED_UNITS) > _MAX_PARSED_UNITS:
            _PARSED_UNITS.popitem(last=False)
    return unit, parse_seconds, False, gstats


def _evaluate_pipeline(job: EvalJob) -> Any:
    with forced_mode(job.incremental):
        try:
            context = _worker_context(job)
        except _ContextUnavailable as exc:
            return DeltaMiss(exc.missing)
        started = time.perf_counter()
        blocks: Optional[List[str]] = None
        if job.decls is not None:
            blocks, missing = _splice_blocks(job)
            if blocks is None:
                return DeltaMiss(missing)
            source = render_unit_from_blocks(blocks)
        else:
            source = job.source
        splice_seconds = time.perf_counter() - started
        unit, parse_seconds, unit_cached, gstats = _candidate_unit(
            job, source, blocks
        )
        result = _run_stages(job, context, unit)
        return replace(
            result,
            wire=WireStats(
                splice_seconds=splice_seconds,
                parse_seconds=parse_seconds,
                unit_cache_hit=unit_cached,
                delta=job.decls is not None,
                graft_seconds=gstats.graft_seconds if gstats else 0.0,
                uid_remap_seconds=gstats.remap_seconds if gstats else 0.0,
                decl_cache_hits=gstats.hits if gstats else 0,
                decl_cache_misses=gstats.misses if gstats else 0,
                grafted=gstats is not None,
            ),
        )


def _run_stages(
    job: EvalJob, context: _WorkerContext, unit: N.TranslationUnit
) -> CachedEvaluation:
    recorder = SimulatedClock.recording()
    violations: Tuple = ()
    if job.use_style_checker:
        violations = tuple(check_style(unit, clock=recorder))
        if violations:
            return canonicalize_evaluation(
                CachedEvaluation(
                    style_violations=violations,
                    compile_report=None,
                    diff_report=None,
                    charges=tuple(recorder.events or ()),
                ),
                unit,
            )
    compile_report = compile_unit(unit, job.config, clock=recorder)
    diff_report: Optional[DiffReport] = None
    if compile_report.ok:
        diff_report = differential_test(
            context.original,
            unit,
            job.kernel_name,
            job.config,
            [list(test) for test in context.tests],
            limits=job.limits,
            clock=recorder,
            reference=context.reference,
            cpu_latency_ns=context.cpu_ns,
            max_faults=job.max_faults,
            backend=job.interp_backend,
        )
    return canonicalize_evaluation(
        CachedEvaluation(
            style_violations=violations,
            compile_report=compile_report,
            diff_report=diff_report,
            charges=tuple(recorder.events or ()),
        ),
        unit,
    )


# --------------------------------------------------------------------------
# The pool
# --------------------------------------------------------------------------

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_SIZE = 0


def _start_method() -> str:
    methods = multiprocessing.get_all_start_methods()
    # fork: cheapest start, and the child inherits warm imports and
    # analysis memos.  Jobs are submitted from the main thread only, so
    # the classic fork-under-held-lock hazard does not apply.
    return "fork" if "fork" in methods else "spawn"


def _worker_init() -> None:
    """Fork-child initializer: take the inherited heap out of cyclic GC.

    A fork child starts with the parent's entire object graph — warm
    imports, analysis memos, the block cache — in its collectable
    generations, so every full collection the worker's own allocation
    bursts trigger traverses megabytes of objects that will never
    become garbage.  ``gc.freeze`` moves them to the permanent
    generation: collections then scan only what the worker itself
    allocated, which turns the heavy-tailed multi-millisecond GC pauses
    observed inside ``_parse_template`` back into microseconds.
    """
    gc.collect()
    gc.freeze()


def get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared persistent pool, grown to at least *workers* wide.

    A narrower request reuses the existing (wider) pool — recreating it
    would throw away warm worker contexts for no benefit.
    """
    global _POOL, _POOL_SIZE
    if _POOL is not None and _POOL_SIZE >= workers:
        return _POOL
    if _POOL is not None:
        _POOL.shutdown(wait=True)
    mp_context = multiprocessing.get_context(_start_method())
    _POOL = ProcessPoolExecutor(
        max_workers=workers, mp_context=mp_context, initializer=_worker_init
    )
    _POOL_SIZE = workers
    _SHIPPED_COUNTS.clear()
    _SEEDED_AT_FORK.clear()
    if mp_context.get_start_method() == "fork":
        # Fork children inherit the block cache as of right now (the
        # pool forks workers lazily, but always after this point), so
        # every fingerprint currently cached is known to every worker.
        _SEEDED_AT_FORK.update(_DECL_BLOCKS)
    return _POOL


def shutdown_pool() -> None:
    """Tear the shared pool down (tests, end-of-process hygiene)."""
    global _POOL, _POOL_SIZE
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_SIZE = 0
        _SHIPPED_COUNTS.clear()
        _SEEDED_AT_FORK.clear()


def pool_width() -> int:
    """Current pool width (0 when no pool exists yet)."""
    return _POOL_SIZE


# --------------------------------------------------------------------------
# Wire accounting
# --------------------------------------------------------------------------

_WIRE_TOTALS: Dict[str, Any] = {
    "jobs": 0,
    "delta_jobs": 0,
    "full_jobs": 0,
    "resends": 0,
    "wire_bytes": 0,
    "measured_jobs": 0,
    "splice_seconds": 0.0,
    "parse_seconds": 0.0,
    "delta_parse_seconds": 0.0,
    "delta_results": 0,
    "graft_seconds": 0.0,
    "uid_remap_seconds": 0.0,
    "unit_cache_hits": 0,
    "decl_cache_hits": 0,
    "decl_cache_misses": 0,
    "grafted_jobs": 0,
    "worker_results": 0,
}
_ACCOUNT_WIRE_BYTES = False


def set_wire_accounting(enabled: bool) -> None:
    """Toggle per-job pickle-size measurement (benchmarks only: it
    pickles every job a second time, so it stays off in production)."""
    global _ACCOUNT_WIRE_BYTES
    _ACCOUNT_WIRE_BYTES = bool(enabled)


def wire_totals() -> Dict[str, Any]:
    """Parent-side wire counters: jobs by format, resends after delta
    misses, measured pickle bytes, and the worker-reported overhead
    breakdown (splice/parse seconds, parse-cache hits)."""
    return dict(_WIRE_TOTALS)


def reset_wire_totals() -> None:
    for key in _WIRE_TOTALS:
        _WIRE_TOTALS[key] = 0.0 if isinstance(_WIRE_TOTALS[key], float) else 0


def _account_job(job: Any) -> None:
    _WIRE_TOTALS["jobs"] += 1
    delta = isinstance(job, DeltaJob) or job.decls is not None
    _WIRE_TOTALS["delta_jobs" if delta else "full_jobs"] += 1
    recorder = get_recorder()
    if recorder.enabled:
        recorder.metrics.inc(
            "parallel.wire.jobs", mode="delta" if delta else "full"
        )
    if _ACCOUNT_WIRE_BYTES:
        nbytes = len(pickle.dumps(job, protocol=4))
        _WIRE_TOTALS["wire_bytes"] += nbytes
        _WIRE_TOTALS["measured_jobs"] += 1
        if recorder.enabled:
            recorder.metrics.inc("parallel.wire.bytes", nbytes)


def record_worker_wire(wire: WireStats) -> None:
    """Fold a worker's :class:`~repro.core.evalcache.WireStats` into the
    parent-side totals (the search strips the side-channel right after)
    and publish the per-tier cache counters — ``worker.unit_cache`` for
    the whole-unit parsed LRU, ``worker.decl_cache`` for the decl-grain
    template cache — to the metrics registry."""
    _WIRE_TOTALS["worker_results"] += 1
    _WIRE_TOTALS["splice_seconds"] += wire.splice_seconds
    _WIRE_TOTALS["parse_seconds"] += wire.parse_seconds
    if wire.delta:
        # Per-kind parse buckets: the ≥5× elision claim is about delta
        # jobs, so cold-process resends (full jobs at full-parse cost)
        # must not blur the delta mean.
        _WIRE_TOTALS["delta_results"] += 1
        _WIRE_TOTALS["delta_parse_seconds"] += wire.parse_seconds
    _WIRE_TOTALS["graft_seconds"] += wire.graft_seconds
    _WIRE_TOTALS["uid_remap_seconds"] += wire.uid_remap_seconds
    if wire.unit_cache_hit:
        _WIRE_TOTALS["unit_cache_hits"] += 1
    _WIRE_TOTALS["decl_cache_hits"] += wire.decl_cache_hits
    _WIRE_TOTALS["decl_cache_misses"] += wire.decl_cache_misses
    if wire.grafted:
        _WIRE_TOTALS["grafted_jobs"] += 1
    recorder = get_recorder()
    if recorder.enabled:
        recorder.metrics.inc(
            "worker.unit_cache",
            outcome="hit" if wire.unit_cache_hit else "miss",
        )
        if wire.decl_cache_hits:
            recorder.metrics.inc(
                "worker.decl_cache", wire.decl_cache_hits, outcome="hit"
            )
        if wire.decl_cache_misses:
            recorder.metrics.inc(
                "worker.decl_cache", wire.decl_cache_misses, outcome="miss"
            )


def submit_job(job: EvalJob, workers: int) -> "Future[CachedEvaluation]":
    pool = get_pool(max(1, workers))
    _account_job(job)
    return pool.submit(evaluate_job, job)


def evaluate_job_batch(jobs: Tuple[EvalJob, ...]) -> List[Any]:
    """Worker entry point for a chunked submission: one pool round trip
    (and one pickle envelope) amortized over several jobs."""
    return [evaluate_job(job) for job in jobs]


class _BatchSlice:
    """Future-like view of one element of a batched submission."""

    __slots__ = ("_future", "_index")

    def __init__(self, future: Future, index: int) -> None:
        self._future = future
        self._index = index

    def result(self, timeout: Optional[float] = None) -> Any:
        return self._future.result(timeout)[self._index]

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        # Cancelling one slice must not cancel its batch siblings; the
        # batch runs to completion and the unwanted element is dropped.
        return False


def submit_job_batch(jobs: Sequence[EvalJob], workers: int) -> List[Any]:
    """Submit *jobs* as one pool task, returning one future-like handle
    per job (in order).  A singleton batch degenerates to
    :func:`submit_job` — no wrapper, cancellable as before."""
    pool = get_pool(max(1, workers))
    for job in jobs:
        _account_job(job)
    if len(jobs) == 1:
        return [pool.submit(evaluate_job, jobs[0])]
    future = pool.submit(evaluate_job_batch, tuple(jobs))
    return [_BatchSlice(future, index) for index in range(len(jobs))]


# --------------------------------------------------------------------------
# Subject-level fan-out
# --------------------------------------------------------------------------


def _run_subject_summary(
    subject_id: str,
    variant: str,
    config: Any,
    store_path: Optional[str],
    incremental: str,
) -> Dict[str, Any]:
    """Worker entry point for whole-subject runs (Table 3 sweeps).

    Returns a plain summary dict; the full ``TranspileResult`` holds
    ASTs and stays in the worker.
    """
    # Deferred imports: core → baselines is a cycle at module scope.
    from ..baselines.variants import run_variant
    from ..cfront.printer import render
    from ..subjects import get_subject

    if config is not None:
        config.search.store_path = store_path
    # Deterministic uids per subject run: search-history labels embed
    # node uids, so without this a subject's history would depend on
    # which worker (or how warm a parent process) ran it.
    N._uid_counter = itertools.count(1)
    with forced_mode(incremental):
        result = run_variant(get_subject(subject_id), variant, config)
    search = result.search_result
    return {
        "subject": subject_id,
        "success": result.success,
        "hls_compatible": result.hls_compatible,
        "repair_minutes": search.repair_minutes,
        "clock_seconds": search.clock.seconds,
        "history": list(search.history),
        "attempts": search.stats.attempts,
        "cache_hits": search.stats.cache_hits,
        "store_hits": search.stats.store_hits,
        "store_misses": search.stats.store_misses,
        "final_source": render(result.final_unit) if result.final_unit else "",
    }


def run_subjects(
    subject_ids: Sequence[str],
    variant: str,
    config: Any,
    workers: int,
    store_path: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Run independent subjects concurrently on the shared pool.

    Results come back in ``subject_ids`` order regardless of completion
    order, and each subject's run is bit-identical to a serial run (the
    subjects share no mutable state; the persistent store, when given,
    is multi-process safe by construction).
    """
    mode = incremental_mode()
    if workers <= 1:
        return [
            _run_subject_summary(sid, variant, config, store_path, mode)
            for sid in subject_ids
        ]
    if store_path:
        # Create (and WAL-convert) the store before any worker opens it:
        # the rollback-journal → WAL switch on a brand-new file needs a
        # moment of exclusivity that racing first-opens would fight over.
        from .store import get_store

        get_store(store_path)
    pool = get_pool(workers)
    futures = [
        pool.submit(_run_subject_summary, sid, variant, config, store_path, mode)
        for sid in subject_ids
    ]
    return [future.result() for future in futures]
