"""Bounded, thread-safe memo tables for pure per-function sub-analyses.

The style checker, the synthesizability checker and the scheduler all
run pure analyses over individual functions; across a repair search the
same (function-content, context) point is analysed hundreds of times
because each candidate differs from its parent by one edit.  An
:class:`AnalysisCache` memoizes those sub-results content-addressed by
AST fingerprints (see :mod:`repro.cfront.fingerprint`).  The batch
interpreter keeps its compiled code objects in one too, keyed by a
digest of the generated source, and co-simulation keeps the per-test
outcomes of each pragma-free candidate program in another (see
:mod:`repro.hls.simulator`).

The module depends on nothing but the fingerprint mode switches, so the
interpreter and the HLS model can both import it without a cycle.  It is
also the only place that reads the incremental mode on behalf of a memo:
every memo site is one :meth:`AnalysisCache.get_or_compute` call, and
with ``REPRO_INCREMENTAL=0`` that call runs the computation and nothing
else — no key is built, no table is touched.

Rules for what may live in a cache:

* **pure computation only** — diagnostics, violation tuples, cycle
  counts, frozen resource snapshots, co-simulation outcomes.  Never
  simulated-clock charges, never invocation-counter bumps: those belong
  to the live pipeline so cached and uncached runs stay bit-identical in
  every reported measurement;
* values must be immutable (tuples of frozen dataclasses) or defensively
  copied by the caller on every hit;
* keys must capture *all* inputs of the computation — the function's
  exact fingerprint plus whatever unit-level context the analysis reads.

In cross-check mode (``REPRO_INCREMENTAL=cross``) every hit recomputes
the value and raises :class:`~repro.cfront.fingerprint.IncrementalMismatch`
if the cached result diverges — the regression harness for the
invalidation logic.  The two are compared by :func:`canonical_value`, so a
NaN in a memoized result matches the NaN its recomputation yields.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List

from .cfront.fingerprint import (
    IncrementalMismatch,
    cross_check_enabled,
    incremental_enabled,
)

#: Per-cache capacity.  Entries are small (tuples of diagnostics or a
#: handful of numbers); a few thousand cover the largest search runs.
DEFAULT_MAX_ENTRIES = 4096

_REGISTRY: List["AnalysisCache"] = []
_REGISTRY_LOCK = threading.Lock()


class AnalysisCache:
    """One LRU memo table for a named sub-analysis."""

    def __init__(
        self,
        name: str,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        verify: bool = True,
    ) -> None:
        self.name = name
        self.max_entries = max_entries
        self.verify = verify
        """Whether cross-check mode recomputes on hits.  Disabled for
        caches whose compute callback has side effects on the caller
        (e.g. the scheduler's counter frames) — those are covered by the
        report-level cross-check instead."""
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        with _REGISTRY_LOCK:
            _REGISTRY.append(self)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_compute(
        self, key: Callable[[], Hashable], compute: Callable[[], Any]
    ) -> Any:
        """Return the memoized value for ``key()``, computing (and
        storing) it on a miss.  The key is taken as a zero-argument
        callable so that with incremental mode off the call is a straight
        pass-through: neither the key nor the table is touched.  A key of
        None marks a point that must not be memoized; it is computed
        uncached.  Cross-check mode → hits recompute and verify."""
        if not incremental_enabled():
            return compute()
        entry = key()
        if entry is None:
            return compute()
        with self._lock:
            hit = entry in self._entries
            if hit:
                self._entries.move_to_end(entry)
                value = self._entries[entry]
                self.hits += 1
            else:
                self.misses += 1
        if not hit:
            value = compute()
            with self._lock:
                self._entries[entry] = value
                self._entries.move_to_end(entry)
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
            return value
        if cross_check_enabled() and self.verify:
            fresh = compute()
            # Compared by canonical key: a recomputed NaN is not ``==``
            # to the memoized one, yet it is the same value.
            if canonical_value(fresh) != canonical_value(value):
                raise IncrementalMismatch(
                    f"analysis cache {self.name!r}: memoized value diverges "
                    f"from recomputation for key {entry!r}\n"
                    f"  cached: {value!r}\n  fresh:  {fresh!r}"
                )
        return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0


_pack_double = struct.Struct("<d").pack


def canonical_value(value: Any) -> Hashable:
    """A hashable key for a plain test value that tells apart every value
    the interpreter can tell apart.

    ``==`` is too coarse for that: ``1 == 1.0 == True`` and
    ``0.0 == -0.0``, and ``nan`` equals nothing, not even itself.  Here a
    float is keyed by its bit pattern and a bool by its type, so two
    values get equal keys only if they are the same value of the same
    type.  Lists, tuples and dicts (in insertion order) are keyed
    element-wise.  Any other value is keyed by its type and itself, so
    an unhashable one raises :class:`TypeError` when the key is hashed.
    """
    kind = type(value)
    if kind is int or kind is str or value is None:
        return value
    if kind is float:
        return (float, _pack_double(value))
    if kind is list:
        return tuple([canonical_value(item) for item in value])
    if kind is tuple:
        return (tuple, tuple([canonical_value(item) for item in value]))
    if kind is dict:
        return (dict, tuple([
            (canonical_value(k), canonical_value(v)) for k, v in value.items()
        ]))
    return (kind, value)


def clear_analysis_caches() -> None:
    """Empty every registered cache (tests and benchmark cold runs)."""
    with _REGISTRY_LOCK:
        caches = list(_REGISTRY)
    for cache in caches:
        cache.clear()


def analysis_cache_stats() -> Dict[str, Dict[str, int]]:
    """Per-cache hit/miss/size counters (benchmark reporting)."""
    with _REGISTRY_LOCK:
        caches = list(_REGISTRY)
    return {
        c.name: {"hits": c.hits, "misses": c.misses, "entries": len(c)}
        for c in caches
    }
