"""Memoized candidate evaluation — the repair loop's verify cache.

The search's inner loop runs the same style → compile → differential-test
pipeline on every candidate, yet distinct edit paths routinely converge
on *identical* programs (apply-A-then-B and apply-B-then-A, or two
parameter bindings that rewrite to the same tree).  Re-verifying such a
candidate buys no information: the toolchain is deterministic in the
candidate source, the solution configuration and the test suite.  Real
iterative C-to-HLS flows (C2HLSC-style verify loops) lean on exactly
this memoization to stay tractable; this module gives the reproduction
the same layer.

Key and value
-------------

An entry is keyed by a SHA-256 over

* the candidate unit's structural fingerprint
  (:func:`~repro.cfront.fingerprint.unit_fingerprint`, at least as fine as
  the pretty-printed source),
* the :class:`~repro.hls.platform.SolutionConfig` knobs, and
* a *context token* binding the entry to one evaluation context (the
  original program, kernel name, differential-test suite, execution
  limits and fault budget — everything else the pipeline reads).

The stored value holds the toolchain artifacts (style violations,
compile report, diff report) **plus the journalled simulated-clock
charges** of the real run.

Clock semantics on a hit
------------------------

The :class:`~repro.hls.clock.SimulatedClock` models what the *paper's*
toolchain would cost; the search budget and every Figure 9 number are
denominated in it.  A hit therefore **replays** the recorded charges
into the live clock: simulated time, per-activity totals and activity
counts end up bit-identical to an uncached run, so cached and uncached
searches are indistinguishable in every reported measurement — only the
*real* wall-clock drops, because the toolchain was not re-run.  What a
hit does *not* do is touch the real-invocation counters
(``SearchStats.hls_invocations``, ``repro.hls.compiler.compile_invocations``):
those count actual toolchain executions, which is how the cost-asymmetry
measurements stay meaningful.

Entries are safe to share across runs and threads: reports are treated
as immutable once stored, and the cache itself is lock-protected.

Canonical uid space
-------------------

Node uids are drawn from a process-global counter, so the uids embedded
in diagnostics are an artifact of *which* structurally-equal candidate
was evaluated first — meaningless to another process and to the next
run (the persistent store outlives the uid counter).  Payloads that
cross a cache or store boundary are therefore held in the **canonical
uid space**: every ``node_uid`` is replaced by the node's position in
the unit's pre-order walk, encoded as ``-(index + 1)`` (0 keeps meaning
"no node").  Structural equality implies walk isomorphism, so rebinding a
canonical payload against the consuming candidate's tree
(:func:`rebind_evaluation`) yields exactly the diagnostics a fresh
toolchain run on that candidate would have produced — which is also why
rebound cache hits are *more* faithful to an uncached run than raw
first-writer uids ever were.  Positions are read off the declaration
records' uid lists (:func:`~repro.cfront.fingerprint.decl_record`), so
no candidate builds a whole-unit index for its handful of diagnostics.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence, Tuple

from ..cfront import nodes as N
from ..cfront.fingerprint import decl_record, unit_fingerprint
from ..cfront.printer import render
from ..difftest import DiffReport
from ..hls.clock import ChargeEvent
from ..hls.diagnostics import CompileReport
from ..hls.platform import SolutionConfig
from ..hls.stylecheck import StyleViolation
from ..obs import get_recorder
from .store import EvalStore

#: Default capacity: one entry holds a couple of small report objects, so
#: a few thousand entries comfortably cover the largest search runs while
#: bounding a long-lived (server-style) cache.
DEFAULT_MAX_ENTRIES = 8192


@dataclass(frozen=True)
class CachedEvaluation:
    """The toolchain's verdict on one (source, config) point, plus the
    simulated charges the real run cost."""

    style_violations: Tuple[StyleViolation, ...]
    compile_report: Optional[CompileReport]
    diff_report: Optional[DiffReport]
    charges: Tuple[ChargeEvent, ...]

    @property
    def style_rejected(self) -> bool:
        return bool(self.style_violations)


def candidate_key(
    unit: N.TranslationUnit,
    config: SolutionConfig,
    context: str = "",
) -> str:
    """Canonical cache key: hash of the candidate source, the solution
    knobs and the evaluation-context token.

    The source component is the unit's structural fingerprint, in every
    incremental mode — combined from cached per-declaration digests, so
    an edited candidate re-hashes only the declarations its edit touched
    instead of pretty-printing the whole unit.  The fingerprint
    distinguishes at least everything the pretty-printer distinguishes
    (every semantic AST field), so two candidates share an entry only if
    they render identically.
    """
    digest = hashlib.sha256()
    digest.update(b"fp:")
    digest.update(unit_fingerprint(unit).encode())
    digest.update(
        f"|top={config.top_name}|dev={config.device}"
        f"|clk={config.clock_period_ns!r}|".encode()
    )
    digest.update(context.encode())
    return digest.hexdigest()


def cached_candidate_key(candidate: Any, context: str = "") -> str:
    """:func:`candidate_key` memoized on the candidate object itself.

    A candidate's unit and config are immutable once published, so the
    key is computed once and stashed on the (frozen) dataclass via
    ``object.__setattr__``.  The context token
    is kept alongside so a candidate crossing into another search (a
    shared frontier would be a bug, but a cheap guard beats a silent
    cross-context hit) never reuses a stale key.
    """
    memo = candidate.__dict__.get("_cache_key")
    if memo is not None and memo[0] == context:
        return memo[1]
    key = candidate_key(candidate.unit, candidate.config, context)
    object.__setattr__(candidate, "_cache_key", (context, key))
    return key


def context_token(
    original: N.TranslationUnit,
    kernel_name: str,
    tests: Sequence[Any],
    extra: str = "",
) -> str:
    """Token binding cache entries to one evaluation context.

    Two searches may share entries only when the differential oracle
    would judge candidates identically — same original program, kernel,
    test subset and harness knobs."""
    digest = hashlib.sha256()
    digest.update(render(original).encode())
    digest.update(f"|kernel={kernel_name}|{extra}|".encode())
    digest.update(json.dumps(list(tests), sort_keys=True, default=str).encode())
    return digest.hexdigest()


# --------------------------------------------------------------------------
# Canonical uid space
# --------------------------------------------------------------------------


def _walk_index(unit: N.TranslationUnit, uid: int) -> Optional[int]:
    """Walk index of the *last* node of ``unit`` carrying ``uid`` (uids
    an edit copied may repeat), or None."""
    lists = [decl_record(unit, decl).uids for decl in unit.decls]
    end = 1 + sum(map(len, lists))
    for uids in reversed(lists):
        end -= len(uids)
        if uid in uids:
            return end + len(uids) - 1 - uids[::-1].index(uid)
    return 0 if uid == unit.uid else None


def _uid_at(unit: N.TranslationUnit, index: int) -> int:
    """The uid at walk position ``index`` of ``unit``; 0 past the end."""
    if index == 0:
        return unit.uid
    index -= 1
    for decl in unit.decls:
        uids = decl_record(unit, decl).uids
        if index < len(uids):
            return uids[index]
        index -= len(uids)
    return 0


def _map_uid_out(uid: int, unit: N.TranslationUnit) -> int:
    if uid == 0:
        return 0
    index = _walk_index(unit, uid)
    # A uid outside the unit's walk has no canonical name; 0 ("no node")
    # is the only deterministic anchor left for it.
    return -(index + 1) if index is not None else 0


def _map_uid_in(uid: int, unit: N.TranslationUnit) -> int:
    if uid >= 0:
        # Already a live uid (or 0): payload did not cross a boundary.
        return uid
    return _uid_at(unit, -uid - 1)


def canonicalize_evaluation(
    evaluation: CachedEvaluation, unit: N.TranslationUnit
) -> CachedEvaluation:
    """Re-encode every ``node_uid`` as a walk-order index (``-(i+1)``).

    ``unit`` must be the tree the toolchain actually ran on.  The result
    is position-addressed, so it survives pickling to another process and
    persisting across runs, where live uids are meaningless.
    """
    return _remap_evaluation(evaluation, lambda uid: _map_uid_out(uid, unit))


def rebind_evaluation(
    evaluation: CachedEvaluation, unit: N.TranslationUnit
) -> CachedEvaluation:
    """Resolve canonical walk indices back to ``unit``'s live uids.

    ``unit`` must be structurally equal to the tree the payload was
    produced from (guaranteed by the cache key), which makes the two
    walks isomorphic and the rebind exact: diagnostics land on the same
    structural positions a fresh toolchain run on ``unit`` would report.
    """
    return _remap_evaluation(evaluation, lambda uid: _map_uid_in(uid, unit))


def _remap_evaluation(
    evaluation: CachedEvaluation, remap
) -> CachedEvaluation:
    changed = False

    violations = []
    for violation in evaluation.style_violations:
        uid = remap(violation.node_uid)
        if uid != violation.node_uid:
            violation = replace(violation, node_uid=uid)
            changed = True
        violations.append(violation)

    compile_report = evaluation.compile_report
    if compile_report is not None and compile_report.diagnostics:
        diagnostics = []
        diags_changed = False
        for diag in compile_report.diagnostics:
            uid = remap(diag.node_uid)
            if uid != diag.node_uid:
                diag = replace(diag, node_uid=uid)
                diags_changed = True
            diagnostics.append(diag)
        if diags_changed:
            compile_report = replace(compile_report, diagnostics=diagnostics)
            changed = True

    if not changed:
        return evaluation
    return replace(
        evaluation,
        style_violations=tuple(violations),
        compile_report=compile_report,
    )


class EvalCache:
    """Thread-safe LRU memo of :class:`CachedEvaluation` entries.

    Optionally backed by a persistent :class:`~repro.core.store.EvalStore`
    tier: ``lookup`` reads through to the store on a memory miss
    (promoting hits into memory), and ``put`` writes new entries
    through.  All entries that crossed or may cross a process/run
    boundary are kept in the canonical uid space; rebinding to the
    consuming candidate happens at the search layer, not here — the
    cache is uid-space agnostic.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        store: Optional[EvalStore] = None,
    ) -> None:
        self.max_entries = max_entries
        self.store = store
        self._entries: "OrderedDict[str, CachedEvaluation]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def get(self, key: str) -> Optional[CachedEvaluation]:
        """Fetch an entry, counting the lookup as a hit or miss."""
        return self.lookup(key)[0]

    def lookup(self, key: str) -> Tuple[Optional[CachedEvaluation], Optional[str]]:
        """Fetch an entry plus the tier that answered it.

        Returns ``(entry, "memory")``, ``(entry, "store")`` — the entry
        was promoted into memory on the way out — or ``(None, None)``.
        Memory hit/miss counters track only the memory tier; the store
        keeps its own, so a store hit shows up as a memory miss plus a
        store hit (which is what happened).
        """
        recorder = get_recorder()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                if recorder.enabled:
                    recorder.metrics.inc(
                        "cache.lookups", tier="memory", outcome="hit"
                    )
                return entry, "memory"
            self.misses += 1
        if recorder.enabled:
            recorder.metrics.inc("cache.lookups", tier="memory", outcome="miss")
        if self.store is None:
            return None, None
        entry = self.store.get(key)
        if entry is None:
            if recorder.enabled:
                recorder.metrics.inc(
                    "cache.lookups", tier="store", outcome="miss"
                )
            return None, None
        if recorder.enabled:
            recorder.metrics.inc("cache.lookups", tier="store", outcome="hit")
        self._insert(key, entry)
        return entry, "store"

    def contains(self, key: str) -> bool:
        """Presence probe that does not disturb hit/miss accounting."""
        with self._lock:
            if key in self._entries:
                return True
        return self.store is not None and self.store.contains(key)

    def put(self, key: str, value: CachedEvaluation) -> None:
        self._insert(key, value)
        if self.store is not None:
            self.store.put(key, value)

    def _insert(self, key: str, value: CachedEvaluation) -> None:
        """Memory-tier insert (no store write-through; used to promote
        store hits without rewriting an identical payload)."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
