"""Subject-level fan-out: independent whole-subject runs on worker processes.

One repair search consumes its candidates strictly in priority order —
each fitness decides what is proposed next — so a search runs serially.
Sweeps over many independent subjects (Table 3) have no such ordering
constraint: :func:`run_subjects` runs each subject's whole pipeline in a
worker process and returns a plain summary dict per subject (a
``TranspileResult`` holds ASTs and is deliberately not picklable as a
whole).  Every subject run resets the node-uid counter first, so a
summary is bit-identical whichever worker — or the parent, serially —
produced it.

Each call owns its pool and shuts it down before returning, so a worker
that dies takes only that call down: :func:`run_subjects` raises a
``RuntimeError`` naming the subjects left without a result, and the
next call starts from fresh workers.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence

from ..cfront import nodes as N
from ..cfront.fingerprint import forced_mode, incremental_mode
from ..interp import default_backend, set_default_backend


def _worker_init() -> None:
    """Fork-child initializer: take the inherited heap out of cyclic GC.

    A fork child starts with the parent's entire object graph (warm
    imports, analysis memos) in its collectable generations, so every
    full collection the worker's own allocation bursts trigger would
    traverse objects that never become garbage.  ``gc.freeze`` moves
    them to the permanent generation: collections then scan only what
    the worker itself allocated.
    """
    gc.collect()
    gc.freeze()


def _run_subject_summary(
    subject_id: str,
    variant: str,
    config: Any,
    store_path: Optional[str],
    incremental: str,
    backend: str,
) -> Dict[str, Any]:
    """Worker entry point for whole-subject runs (Table 3 sweeps).

    *incremental* and *backend* are the parent's process settings, so a
    spawn-started worker runs in the same modes as the parent.  Returns
    a plain summary dict; the full ``TranspileResult`` holds ASTs and
    stays in the worker.
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
    set_default_backend(backend)
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
    """Run independent subjects, *workers* at a time.

    Results come back in ``subject_ids`` order regardless of completion
    order, and each subject's run is bit-identical to a serial run (the
    subjects share no mutable state; the persistent store, when given,
    is multi-process safe by construction).
    """
    settings = (incremental_mode(), default_backend())
    if workers <= 1:
        return [
            _run_subject_summary(sid, variant, config, store_path, *settings)
            for sid in subject_ids
        ]
    if store_path:
        # Create (and WAL-convert) the store before any worker opens it:
        # the rollback-journal → WAL switch on a brand-new file needs a
        # moment of exclusivity that racing first-opens would fight over.
        from .store import get_store

        get_store(store_path)
    # fork: cheapest start, and the child inherits warm imports.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=context, initializer=_worker_init
    ) as pool:
        futures = [
            pool.submit(
                _run_subject_summary,
                sid, variant, config, store_path, *settings,
            )
            for sid in subject_ids
        ]
        summaries: List[Dict[str, Any]] = []
        lost: List[str] = []
        for sid, future in zip(subject_ids, futures):
            try:
                summaries.append(future.result())
            except BrokenProcessPool:
                lost.append(sid)
    if lost:
        raise RuntimeError(
            f"a worker process died; no result for subject(s) {', '.join(lost)}"
        )
    return summaries
