"""The delta wire format (:mod:`repro.core.parallel`).

Covers the splice/round-trip property the protocol rests on, the
parent-side planning rules, the worker-resident caches (context LRU,
parsed-unit LRU), the :class:`DeltaMiss` → full-source fallback, and
the wire-size win itself — all in-process: ``evaluate_job`` runs the
worker code path in this interpreter, sharing the module globals the
way a fork child would.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle
from concurrent.futures import Future

import pytest

from repro.cfront import graft
from repro.cfront import nodes as N
from repro.cfront.fingerprint import (
    exact_fp,
    forced_mode,
    incremental_mode,
    structural_fp,
)
from repro.cfront.parser import parse
from repro.cfront.printer import render, render_decl, render_unit_from_blocks
from repro.core import RepairSearch, SearchConfig, parallel
from repro.core.edits import Candidate
from repro.core.evalcache import CachedEvaluation
from repro.core.parallel import (
    DeltaJob,
    DeltaMiss,
    EvalJob,
    delta_wire_enabled,
    evaluate_job,
    note_delta_miss,
    plan_decl_entries,
    register_baseline,
)
from repro.hls import SimulatedClock, SolutionConfig
from repro.subjects import all_subjects

from tests.core.test_evalcache import (
    BROKEN_SRC,
    TESTS,
    assert_equivalent,
    run_search,
)

#: Two-decl baseline and a candidate that edits only the kernel: the
#: helper decl is shared, so a delta plan elides it and ships the dirty
#: kernel block alone.
TWO_DECL_BASE = """
int helper(int x) {
    return x + 1;
}

int kernel(int a[8], int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) {
        acc = acc + helper(a[i]);
    }
    return acc;
}
"""

TWO_DECL_VARIANT = TWO_DECL_BASE.replace(
    "return acc;", "acc = acc + 0;\n    return acc;"
)


@pytest.fixture()
def clean_wire_state():
    """Snapshot and restore the module-level delta/worker state so these
    tests neither see nor leak planner claims and worker caches."""
    saved = (
        dict(parallel._DECL_BLOCKS),
        {k: set(v) for k, v in parallel._BASELINE_FPS.items()},
        set(parallel._SEEDED_AT_FORK),
        dict(parallel._SHIPPED_COUNTS),
        dict(parallel._CONTEXT_PAYLOADS),
        dict(parallel._CONTEXT_TEMPLATES),
        dict(parallel._WORKER_CONTEXTS),
        dict(parallel._CONTEXT_STATS),
        dict(parallel._PARSED_UNITS),
        dict(parallel._UNIT_CACHE_STATS),
    )
    saved_templates = (
        dict(graft._TEMPLATES),
        dict(graft._TEMPLATE_STATS),
        dict(graft._HOLE_FAMILIES),
    )
    graft.clear_decl_templates()
    parallel._DECL_BLOCKS.clear()
    parallel._BASELINE_FPS.clear()
    parallel._SEEDED_AT_FORK.clear()
    parallel._SHIPPED_COUNTS.clear()
    parallel._CONTEXT_PAYLOADS.clear()
    parallel._CONTEXT_TEMPLATES.clear()
    parallel._WORKER_CONTEXTS.clear()
    parallel._PARSED_UNITS.clear()
    for stats in (parallel._CONTEXT_STATS, parallel._UNIT_CACHE_STATS):
        for key in stats:
            stats[key] = 0
    # The search builds delta jobs only with incremental mode on (the
    # planner is fingerprint-based), so a process started with
    # REPRO_INCREMENTAL=0 runs these tests with it switched back on.
    # Tests of the incremental-off worker path set it on the job.
    mode = incremental_mode()
    with forced_mode("on" if mode == "off" else mode):
        yield
    (blocks, baselines, seeded, shipped, payloads, templates,
     contexts, cstats, units, ustats) = saved
    parallel._DECL_BLOCKS.clear()
    parallel._DECL_BLOCKS.update(blocks)
    parallel._BASELINE_FPS.clear()
    parallel._BASELINE_FPS.update(baselines)
    parallel._SEEDED_AT_FORK.clear()
    parallel._SEEDED_AT_FORK.update(seeded)
    parallel._SHIPPED_COUNTS.clear()
    parallel._SHIPPED_COUNTS.update(shipped)
    parallel._CONTEXT_PAYLOADS.clear()
    parallel._CONTEXT_PAYLOADS.update(payloads)
    parallel._CONTEXT_TEMPLATES.clear()
    parallel._CONTEXT_TEMPLATES.update(templates)
    parallel._WORKER_CONTEXTS.clear()
    parallel._WORKER_CONTEXTS.update(contexts)
    parallel._CONTEXT_STATS.update(cstats)
    parallel._PARSED_UNITS.clear()
    parallel._PARSED_UNITS.update(units)
    parallel._UNIT_CACHE_STATS.update(ustats)
    graft._TEMPLATES.clear()
    graft._TEMPLATES.update(saved_templates[0])
    graft._TEMPLATE_STATS.update(saved_templates[1])
    graft._HOLE_FAMILIES.clear()
    graft._HOLE_FAMILIES.update(saved_templates[2])


def _make_search(**overrides):
    unit = parse(BROKEN_SRC, top_name="kernel")
    overrides.setdefault("max_iterations", 4)
    overrides.setdefault("use_synthesis", False)
    search = RepairSearch(
        original=unit,
        kernel_name="kernel",
        tests=TESTS,
        config=SearchConfig(**overrides),
        clock=SimulatedClock(),
    )
    initial = Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
    return search, initial


class TestRenderBlocks:
    """The byte-identity :func:`render_unit_from_blocks` is built on."""

    def test_blocks_reassemble_every_subject(self):
        for subject in all_subjects():
            unit = subject.parse()
            blocks = [render_decl(decl) for decl in unit.decls]
            assert render_unit_from_blocks(blocks) == render(unit), (
                f"{subject.id}: per-decl blocks do not reassemble to "
                "render(unit)"
            )

    def test_blocks_reassemble_broken_and_variant(self):
        for src in (BROKEN_SRC, TWO_DECL_BASE, TWO_DECL_VARIANT):
            unit = parse(src, top_name="kernel")
            blocks = [render_decl(decl) for decl in unit.decls]
            assert render_unit_from_blocks(blocks) == render(unit)


class TestSpliceRoundTrip:
    """splice(baseline, dirty decls) re-parses bit-identically to the
    full-source path — the determinism keystone of the protocol."""

    def _reparse_fps(self, source, kernel="kernel"):
        N._uid_counter = itertools.count(1)
        unit = parse(source, top_name=kernel)
        return [exact_fp(unit, d) for d in unit.decls], render(unit)

    def test_spliced_source_matches_full_render(self, clean_wire_state):
        baseline = parse(TWO_DECL_BASE, top_name="kernel")
        candidate = parse(TWO_DECL_VARIANT, top_name="kernel")
        register_baseline(
            "ctx", baseline, tests=TESTS, original_source=render(baseline)
        )
        entries = plan_decl_entries(candidate, "ctx", pool_width=2)
        # The baseline-shared decls are elided, the dirty one ships.
        packed, dirty = entries
        assert 0 < len(dirty) < len(packed) // parallel._WIRE_FP_BYTES
        job = EvalJob(
            source="",
            config=SolutionConfig(top_name="kernel"),
            context_id="ctx",
            original_source=render(baseline),
            kernel_name="kernel",
            tests=TESTS,
            limits=None,
            max_faults=3,
            use_style_checker=False,
            interp_backend=None,
            incremental="on",
            decls=entries,
        )
        spliced, missing = parallel._splice_source(job)
        assert missing == ()
        assert spliced == render(candidate)
        # Round trip: the spliced text re-parses to a unit whose exact
        # fingerprints match a re-parse of the full-source render.
        delta_fps, delta_render = self._reparse_fps(spliced)
        full_fps, full_render = self._reparse_fps(render(candidate))
        assert delta_fps == full_fps
        assert delta_render == full_render

    def test_round_trip_same_digest_decls(self, clean_wire_state):
        """Two decls with identical rendered text share one structural
        fingerprint; the wire must preserve their count and order."""
        unit = parse(BROKEN_SRC, top_name="kernel")
        twin_fps = [parallel.wire_fp(unit, d) for d in unit.decls]
        # Simulate the shadowing case directly at the wire layer: the
        # same fingerprint referenced twice resolves to two copies of
        # the block, in entry order.
        register_baseline("ctx", unit)
        fp = twin_fps[0]
        block = render_decl(unit.decls[0])
        entries = (fp + fp, ())
        job = EvalJob(
            source="",
            config=SolutionConfig(top_name="kernel"),
            context_id="ctx",
            original_source=render(unit),
            kernel_name="kernel",
            tests=TESTS,
            limits=None,
            max_faults=3,
            use_style_checker=False,
            interp_backend=None,
            incremental="on",
            decls=entries,
        )
        spliced, missing = parallel._splice_source(job)
        assert missing == ()
        assert spliced == render_unit_from_blocks([block, block])

    def test_subject_round_trip_via_planner(self, clean_wire_state):
        """Every subject's baseline survives plan → splice → re-parse
        with exact fingerprints intact (all decls elided: the worker
        derives every block from the context payload)."""
        for subject in all_subjects():
            unit = subject.parse()
            context = f"ctx:{subject.id}"
            register_baseline(context, unit)
            packed, dirty = plan_decl_entries(unit, context, pool_width=2)
            assert dirty == ()
            width = parallel._WIRE_FP_BYTES
            fps = [
                packed[i * width : (i + 1) * width]
                for i in range(len(packed) // width)
            ]
            blocks = [parallel._block_for(fp) for fp in fps]
            assert None not in blocks
            assert render_unit_from_blocks(blocks) == render(unit), subject.id


class TestPlanner:
    def test_dirty_blocks_always_ship_baseline_never_does(
        self, clean_wire_state
    ):
        """Elision is provable knowledge only: the dirty decl ships on
        every job (the pool queue never reveals which worker got a
        previous send), while baseline decls never ship."""
        baseline = parse(TWO_DECL_BASE, top_name="kernel")
        candidate = parse(TWO_DECL_VARIANT, top_name="kernel")
        register_baseline("ctx", baseline)
        for _ in range(3):
            _packed, dirty = plan_decl_entries(candidate, "ctx", pool_width=2)
            assert len(dirty) == 1

    def test_fork_seeded_blocks_elide(self, clean_wire_state):
        baseline = parse(TWO_DECL_BASE, top_name="kernel")
        candidate = parse(TWO_DECL_VARIANT, top_name="kernel")
        register_baseline("ctx", baseline)
        plan_decl_entries(candidate, "ctx", pool_width=2)
        # Simulate a pool fork: everything cached so far is inherited.
        parallel._SEEDED_AT_FORK.update(parallel._DECL_BLOCKS)
        _packed, dirty = plan_decl_entries(candidate, "ctx", pool_width=2)
        assert dirty == ()

    def test_note_delta_miss_forgets_claims(self, clean_wire_state):
        baseline = parse(BROKEN_SRC, top_name="kernel")
        register_baseline("ctx", baseline)
        packed, dirty = plan_decl_entries(baseline, "ctx", pool_width=1)
        assert dirty == ()
        width = parallel._WIRE_FP_BYTES
        note_delta_miss(
            [
                packed[i * width : (i + 1) * width]
                for i in range(len(packed) // width)
            ]
        )
        resent_packed, resent_dirty = plan_decl_entries(
            baseline, "ctx", pool_width=1
        )
        assert len(resent_dirty) == len(resent_packed) // width


class TestWorkerEvaluation:
    """evaluate_job run in-process: the worker path with shared globals."""

    def test_delta_job_equals_full_job(self, clean_wire_state):
        search, initial = _make_search(executor="thread")
        delta_job = search._make_job(initial)
        full_job = search._make_job(initial, full_source=True)
        assert isinstance(delta_job, DeltaJob)
        assert delta_job.d is not None
        assert isinstance(full_job, EvalJob)
        assert full_job.decls is None
        assert full_job.tests == TESTS or full_job.tests == tuple(
            tuple(t) for t in TESTS
        )
        delta_result = evaluate_job(delta_job)
        parallel._PARSED_UNITS.clear()  # force the full job to re-parse
        full_result = evaluate_job(full_job)
        assert isinstance(delta_result, CachedEvaluation)
        assert delta_result.wire is not None and delta_result.wire.delta
        assert full_result.wire is not None and not full_result.wire.delta
        assert dataclasses.replace(
            delta_result, wire=None
        ) == dataclasses.replace(full_result, wire=None)

    def test_unknown_block_reference_returns_delta_miss(
        self, clean_wire_state
    ):
        search, initial = _make_search(executor="thread")
        job = search._make_job(initial)
        ghost = b"\x00" * parallel._WIRE_FP_BYTES
        packed, dirty = job.d
        bogus = dataclasses.replace(
            job,
            d=(
                ghost + packed,
                tuple((index + 1, blob) for index, blob in dirty),
            ),
        )
        result = evaluate_job(bogus)
        assert isinstance(result, DeltaMiss)
        assert result.missing == (ghost,)

    def test_unresolvable_context_payload_returns_delta_miss(
        self, clean_wire_state
    ):
        """A spawn-start worker holds no context registries: delta jobs
        answer DeltaMiss instead of evaluating against empty tests."""
        search, initial = _make_search(executor="thread")
        job = search._make_job(initial)
        parallel._CONTEXT_PAYLOADS.clear()
        parallel._CONTEXT_TEMPLATES.clear()
        parallel._WORKER_CONTEXTS.clear()
        result = evaluate_job(job)
        assert isinstance(result, DeltaMiss)
        assert result.missing == (f"context:{job.c}",)

    def test_parsed_unit_cache_hits_on_repeat(self, clean_wire_state):
        search, initial = _make_search(executor="thread")
        job = search._make_job(initial)
        first = evaluate_job(job)
        second = evaluate_job(job)
        assert not first.wire.unit_cache_hit
        assert second.wire.unit_cache_hit
        assert second.wire.parse_seconds == 0.0
        assert dataclasses.replace(first, wire=None) == dataclasses.replace(
            second, wire=None
        )
        stats = parallel.unit_cache_stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_unit_cache_bypassed_when_incremental_off(
        self, clean_wire_state
    ):
        search, initial = _make_search(executor="thread")
        job = search._make_job(initial, full_source=True)
        job = dataclasses.replace(job, incremental="off")
        first = evaluate_job(job)
        second = evaluate_job(job)
        assert not first.wire.unit_cache_hit
        assert not second.wire.unit_cache_hit


class TestParseCacheKeying:
    """Regression tests for the parsed-unit LRU key (the 0.006 hit rate
    in the BENCH_parallel wire sweep).

    The first cut keyed delta jobs by packed decl-fingerprint bytes and
    full jobs by a source digest, both scoped by the wire context token
    — so the only repeats that structurally occur (DeltaMiss resends
    and later searches over the same subject) addressed identical
    content under different keys and always re-parsed.  The key is now
    ``(kernel, sha256(source))``: pure content addressing, shared by
    both wire formats and across contexts."""

    def test_full_resend_hits_delta_parse(self, clean_wire_state):
        """The DeltaMiss-resend shape: a full-source resubmit of a
        candidate whose content a delta job already carried must reuse
        the parse, not repeat it."""
        search, initial = _make_search(executor="thread")
        first = evaluate_job(search._make_job(initial))
        second = evaluate_job(search._make_job(initial, full_source=True))
        assert not first.wire.unit_cache_hit
        assert second.wire.unit_cache_hit
        assert second.wire.parse_seconds == 0.0
        assert dataclasses.replace(first, wire=None) == dataclasses.replace(
            second, wire=None
        )

    def test_parse_cache_survives_context_turnover(self, clean_wire_state):
        """A fresh search over the same subject (new context token —
        here via different exec limits) re-submits identical candidate
        content; the worker must not re-parse it."""
        from repro.interp import ExecLimits

        search_a, initial_a = _make_search(executor="thread")
        unit_b = parse(BROKEN_SRC, top_name="kernel")
        search_b = RepairSearch(
            original=unit_b,
            kernel_name="kernel",
            tests=TESTS,
            config=SearchConfig(executor="thread", max_iterations=4,
                                use_synthesis=False),
            clock=SimulatedClock(),
            limits=ExecLimits(max_steps=123_456),
        )
        initial_b = Candidate(
            unit=unit_b, config=initial_a.config
        )
        assert search_a._wire_context != search_b._wire_context
        first = evaluate_job(search_a._make_job(initial_a))
        second = evaluate_job(search_b._make_job(initial_b))
        assert not first.wire.unit_cache_hit
        assert second.wire.unit_cache_hit

    def test_delta_sweep_rerun_hit_rate(self, clean_wire_state):
        """A rerun of a delta-wire job stream (the shape of a warm
        sweep: same subject, fresh search generation) must hit the
        parse cache for every repeated content — a realistic hit rate,
        not the ~0 the mismatched keys produced."""
        search, initial = _make_search(executor="thread")
        jobs = [
            search._make_job(initial),
            search._make_job(initial, full_source=True),
        ]
        for job in jobs:
            evaluate_job(job)
        results = [evaluate_job(job) for job in jobs]
        hits = sum(1 for result in results if result.wire.unit_cache_hit)
        assert hits / len(results) == 1.0


class TestGraftWorkerPath:
    """The decl-grain graft tier inside ``evaluate_job`` (PR 9)."""

    def test_delta_job_grafts_and_matches_graft_off(
        self, clean_wire_state, monkeypatch
    ):
        monkeypatch.setenv(graft.GRAFT_ENV, "1")
        search, initial = _make_search(executor="thread")
        job = search._make_job(initial)
        assert job.a == "on"
        grafted = evaluate_job(job)
        assert grafted.wire.grafted
        # Context construction pre-warms the baseline's decl templates,
        # so the initial candidate (== baseline) grafts entirely from
        # cache without a single mini-parse.
        assert grafted.wire.decl_cache_hits > 0
        assert grafted.wire.decl_cache_misses == 0
        parallel._PARSED_UNITS.clear()
        graft.clear_decl_templates()
        plain = evaluate_job(dataclasses.replace(job, a="off"))
        assert not plain.wire.grafted
        assert plain.wire.decl_cache_hits == 0
        assert plain.wire.decl_cache_misses == 0
        assert dataclasses.replace(grafted, wire=None) == dataclasses.replace(
            plain, wire=None
        )

    def test_repeat_graft_hits_decl_templates(
        self, clean_wire_state, monkeypatch
    ):
        """A unit-LRU miss whose blocks are all cached grafts with zero
        mini-parses — the decl tier serving what the unit tier cannot."""
        monkeypatch.setenv(graft.GRAFT_ENV, "1")
        search, initial = _make_search(executor="thread")
        job = search._make_job(initial)
        first = evaluate_job(job)
        # Warmed at context build: the first graft already rides the
        # decl tier rather than mini-parsing.
        assert first.wire.decl_cache_hits > 0
        assert graft.decl_cache_stats()["warmed"] > 0
        # Evict the whole-unit entry but keep decl templates: the repeat
        # must reconstruct without parsing a single block.
        parallel._PARSED_UNITS.clear()
        second = evaluate_job(job)
        assert second.wire.grafted
        assert not second.wire.unit_cache_hit
        assert second.wire.decl_cache_misses == 0
        assert second.wire.decl_cache_hits > 0
        assert second.wire.parse_seconds == 0.0
        assert dataclasses.replace(first, wire=None) == dataclasses.replace(
            second, wire=None
        )

    def test_cross_mode_verifies_every_graft(self, clean_wire_state):
        search, initial = _make_search(executor="thread")
        job = search._make_job(initial)
        assert_equivalent_jobs = evaluate_job(
            dataclasses.replace(job, a="cross")
        )
        assert assert_equivalent_jobs.wire.grafted
        parallel._PARSED_UNITS.clear()
        graft.clear_decl_templates()
        baseline = evaluate_job(dataclasses.replace(job, a="off"))
        assert dataclasses.replace(
            assert_equivalent_jobs, wire=None
        ) == dataclasses.replace(baseline, wire=None)

    def test_graft_mode_rides_the_wire(self, clean_wire_state, monkeypatch):
        """The producer stamps its graft mode onto the envelope, so the
        worker mirrors the parent even if its own environment differs."""
        search, initial = _make_search(executor="thread")
        monkeypatch.setenv(graft.GRAFT_ENV, "0")
        job_off = search._make_job(initial)
        assert job_off.a == "off"
        monkeypatch.setenv(graft.GRAFT_ENV, "cross")
        job_cross = search._make_job(initial)
        assert job_cross.a == "cross"
        monkeypatch.delenv(graft.GRAFT_ENV)
        result = evaluate_job(job_off)
        assert not result.wire.grafted

    def test_incremental_off_disables_grafting(self, clean_wire_state):
        search, initial = _make_search(executor="thread")
        job = search._make_job(initial, full_source=True)
        job = dataclasses.replace(job, incremental="off")
        result = evaluate_job(job)
        assert not result.wire.grafted

    def test_cache_tier_metrics_reach_the_registry(
        self, clean_wire_state, monkeypatch
    ):
        """Satellite regression: ``worker.unit_cache`` and
        ``worker.decl_cache`` hit/miss counters land in the metrics
        registry when the parent folds worker wire stats."""
        from repro.obs import TraceRecorder, scoped_recorder
        from repro.core.parallel import record_worker_wire
        from repro.core.evalcache import WireStats

        monkeypatch.setenv(graft.GRAFT_ENV, "1")
        search, initial = _make_search(executor="thread")
        job = search._make_job(initial)
        first = evaluate_job(job)
        second = evaluate_job(job)  # unit-LRU hit
        recorder = TraceRecorder()
        with scoped_recorder(recorder):
            record_worker_wire(first.wire)
            record_worker_wire(second.wire)
        unit = recorder.metrics.counters_named("worker.unit_cache")
        decl = recorder.metrics.counters_named("worker.decl_cache")
        assert unit[(("outcome", "hit"),)] == 1
        assert unit[(("outcome", "miss"),)] == 1
        assert first.wire.decl_cache_hits > 0
        assert decl[(("outcome", "hit"),)] == first.wire.decl_cache_hits
        totals = parallel.wire_totals()
        assert totals["grafted_jobs"] >= 1
        assert totals["decl_cache_hits"] >= 1
        assert totals["unit_cache_hits"] >= 1


class TestContextLRU:
    TINY = "int kernel(int x) {\n  return x;\n}\n"

    def _job(self, context_id):
        return EvalJob(
            source=self.TINY,
            config=SolutionConfig(top_name="kernel"),
            context_id=context_id,
            original_source=self.TINY,
            kernel_name="kernel",
            tests=((0,), (1,)),
            limits=None,
            max_faults=3,
            use_style_checker=False,
            interp_backend=None,
            incremental="on",
        )

    def test_true_lru_eviction_order(self, clean_wire_state):
        cap = parallel._MAX_WORKER_CONTEXTS
        for index in range(cap):
            parallel._worker_context(self._job(f"c{index}"))
        before = parallel.context_cache_stats()
        # Touch the oldest-inserted context: FIFO would still evict it,
        # true LRU protects it.
        parallel._worker_context(self._job("c0"))
        parallel._worker_context(self._job(f"c{cap}"))
        after = parallel.context_cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["evictions"] == before["evictions"] + 1
        assert "c0" in parallel._WORKER_CONTEXTS
        assert "c1" not in parallel._WORKER_CONTEXTS
        assert f"c{cap}" in parallel._WORKER_CONTEXTS


class TestWireBytes:
    def test_delta_job_is_much_smaller_on_the_wire(self, clean_wire_state):
        """The point of the protocol: per-job pickle bytes drop by the
        elided candidate source, original source and diff tests.  A
        real subject (not a toy snippet) must clear the 5x target the
        benchmark enforces on the sweep."""
        from repro.subjects import get_subject

        subject = get_subject("P6")
        unit = subject.parse()
        search = RepairSearch(
            original=unit,
            kernel_name=subject.solution.top_name,
            tests=subject.existing_test_list(),
            config=SearchConfig(max_iterations=2, use_synthesis=False),
            clock=SimulatedClock(),
        )
        initial = Candidate(unit=unit, config=subject.solution)
        delta_job = search._make_job(initial)
        full_job = search._make_job(initial, full_source=True)
        delta_bytes = len(pickle.dumps(delta_job, protocol=4))
        full_bytes = len(pickle.dumps(full_job, protocol=4))
        assert delta_bytes * 5 < full_bytes

    def test_wire_accounting_counters(self, clean_wire_state):
        search, initial = _make_search(executor="thread")
        parallel.reset_wire_totals()
        parallel.set_wire_accounting(True)
        try:
            parallel._account_job(search._make_job(initial))
            parallel._account_job(
                search._make_job(initial, full_source=True)
            )
        finally:
            parallel.set_wire_accounting(False)
        totals = parallel.wire_totals()
        assert totals["jobs"] == 2
        assert totals["delta_jobs"] == 1
        assert totals["full_jobs"] == 1
        assert totals["measured_jobs"] == 2
        assert totals["wire_bytes"] > 0
        parallel.reset_wire_totals()

    def test_accounting_includes_graft_metadata(
        self, clean_wire_state, monkeypatch
    ):
        """``mean_wire_bytes_per_job`` must charge the graft-mode field
        the envelope now carries: the accounted bytes are the bytes of
        the *whole* pickled job, and a mode string that widens the
        pickle widens the measurement."""
        search, initial = _make_search(executor="thread")
        job = search._make_job(initial)
        assert dataclasses.asdict(job)["a"] == job.a  # field is on the wire
        parallel.reset_wire_totals()
        parallel.set_wire_accounting(True)
        try:
            parallel._account_job(job)
        finally:
            parallel.set_wire_accounting(False)
        totals = parallel.wire_totals()
        assert totals["wire_bytes"] == len(pickle.dumps(job, protocol=4))
        monkeypatch.setenv(graft.GRAFT_ENV, "cross")
        wide = dataclasses.replace(job, a="cross")
        assert len(pickle.dumps(wide, protocol=4)) >= totals["wire_bytes"]
        parallel.reset_wire_totals()


class TestSearchFallback:
    def test_delta_miss_triggers_full_source_resubmit(
        self, clean_wire_state, monkeypatch
    ):
        """The search must transparently re-send a candidate whose delta
        job a worker could not splice."""
        from repro.core import search as search_mod

        search, initial = _make_search(executor="process", workers=2)
        calls = []

        def fake_submit(job, workers):
            calls.append(job)
            future = Future()
            if len(calls) == 1:
                assert isinstance(job, DeltaJob)
                future.set_result(DeltaMiss(("lost-fingerprint",)))
            else:
                assert isinstance(job, EvalJob)
                assert job.decls is None
                assert job.source == render(initial.unit)
                assert job.tests is not None
                future.set_result(search._run_toolchain(initial))
            return future

        monkeypatch.setattr(search_mod, "submit_job", fake_submit)
        evaluation = search.evaluate(initial)
        assert len(calls) == 2
        assert evaluation is not None
        assert not isinstance(evaluation, DeltaMiss)


class TestDeltaOffEquivalence:
    def test_process_run_identical_with_delta_off(self, monkeypatch):
        """REPRO_DELTA_WIRE=0 (whole-source jobs) and the default delta
        wire produce bit-identical search results."""
        monkeypatch.delenv("REPRO_DELTA_WIRE", raising=False)
        assert delta_wire_enabled()
        _s, delta_on = run_search(
            executor="process", workers=2, max_iterations=12
        )
        monkeypatch.setenv("REPRO_DELTA_WIRE", "0")
        assert not delta_wire_enabled()
        _s, delta_off = run_search(
            executor="process", workers=2, max_iterations=12
        )
        monkeypatch.delenv("REPRO_DELTA_WIRE", raising=False)
        _s, serial = run_search(workers=1, max_iterations=12)
        assert_equivalent(delta_on, delta_off)
        assert_equivalent(delta_on, serial)


class TestBatchDispatch:
    def test_eval_batch_validation(self):
        with pytest.raises(ValueError, match="eval_batch"):
            SearchConfig(eval_batch=0)
        with pytest.raises(ValueError, match="eval_batch"):
            SearchConfig(eval_batch=True)

    def test_batch_slice_indexes_results(self):
        future = Future()
        future.set_result(["a", "b", "c"])
        slices = [parallel._BatchSlice(future, i) for i in range(3)]
        assert [s.result() for s in slices] == ["a", "b", "c"]
        assert all(s.done() for s in slices)
        assert not slices[0].cancel()

    def test_batched_run_equivalent_to_unbatched(self):
        _s, batched = run_search(
            executor="process", workers=2, eval_batch=3, max_iterations=12
        )
        _s, unbatched = run_search(
            executor="process", workers=2, eval_batch=1, max_iterations=12
        )
        assert_equivalent(batched, unbatched)
