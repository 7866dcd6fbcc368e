"""Evaluation-cache tests: the memo itself, and the equivalence
guarantees the search makes about it (cached and uncached runs are
indistinguishable in every simulated measurement)."""

import re

import pytest

from repro.cfront.parser import parse
from repro.core import RepairSearch, SearchConfig
from repro.core.edits import Candidate
from repro.core.evalcache import (
    CachedEvaluation,
    EvalCache,
    candidate_key,
    context_token,
)
from repro.hls import SimulatedClock, SolutionConfig
from repro.hls.compiler import compile_invocations
from repro.interp import default_backend, set_default_backend
from repro.subjects import get_subject


def entry(seconds=1.0):
    return CachedEvaluation(
        style_violations=(),
        compile_report=None,
        diff_report=None,
        charges=(("hls_compile", seconds),),
    )


class TestEvalCache:
    def test_roundtrip_and_counters(self):
        cache = EvalCache()
        assert cache.get("k") is None
        assert cache.misses == 1 and cache.hits == 0
        cache.put("k", entry())
        assert cache.get("k") is not None
        assert cache.hits == 1
        assert cache.lookups == 2
        assert cache.hit_ratio == pytest.approx(0.5)

    def test_contains_does_not_disturb_counters(self):
        cache = EvalCache()
        cache.put("k", entry())
        assert cache.contains("k")
        assert not cache.contains("other")
        assert cache.hits == 0 and cache.misses == 0

    def test_lru_eviction(self):
        cache = EvalCache(max_entries=2)
        cache.put("a", entry())
        cache.put("b", entry())
        cache.get("a")  # refresh a; b becomes least-recent
        cache.put("c", entry())
        assert cache.contains("a") and cache.contains("c")
        assert not cache.contains("b")
        assert len(cache) == 2

    def test_clear(self):
        cache = EvalCache()
        cache.put("k", entry())
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_eviction_past_default_capacity(self):
        """Filling past DEFAULT_MAX_ENTRIES evicts exactly the oldest
        entries, in insertion order, and never overshoots the bound."""
        from repro.core.evalcache import DEFAULT_MAX_ENTRIES

        cache = EvalCache()
        overflow = 3
        total = DEFAULT_MAX_ENTRIES + overflow
        for i in range(total):
            cache.put(f"k{i}", entry(float(i)))
            assert len(cache) <= DEFAULT_MAX_ENTRIES
        assert len(cache) == DEFAULT_MAX_ENTRIES
        for i in range(overflow):
            assert not cache.contains(f"k{i}")
        assert cache.contains(f"k{overflow}")
        assert cache.contains(f"k{total - 1}")

    def test_reinserted_entry_replays_charges_bit_identically(self):
        """An entry that was evicted and later recomputed must replay the
        exact same charge journal — eviction can cost wall-clock, never
        simulated time."""
        charges = (("style_check", 0.125), ("hls_compile", 3.75))
        original = CachedEvaluation(
            style_violations=(),
            compile_report=None,
            diff_report=None,
            charges=charges,
        )
        cache = EvalCache(max_entries=1)
        cache.put("k", original)
        cache.put("other", entry())  # evicts "k"
        assert not cache.contains("k")
        cache.put("k", original)  # the deterministic toolchain recomputed it

        clock_a, clock_b = SimulatedClock.recording(), SimulatedClock.recording()
        clock_a.replay(charges)
        clock_b.replay(cache.get("k").charges)
        assert clock_b.seconds == clock_a.seconds
        assert clock_b.events == clock_a.events
        assert dict(clock_b.by_activity) == dict(clock_a.by_activity)
        assert dict(clock_b.counts) == dict(clock_a.counts)


SRC_A = """
int kernel(int a[4], int n) {
    int acc = 0;
    for (int i = 0; i < n; i++) { acc += a[i]; }
    return acc;
}
"""


class TestCandidateKey:
    def test_canonical_over_reparses(self):
        unit1 = parse(SRC_A, top_name="kernel")
        unit2 = parse(SRC_A, top_name="kernel")
        config = SolutionConfig(top_name="kernel")
        assert candidate_key(unit1, config, "ctx") == candidate_key(
            unit2, config, "ctx"
        )

    def test_sensitive_to_config_and_context(self):
        unit = parse(SRC_A, top_name="kernel")
        config = SolutionConfig(top_name="kernel")
        base = candidate_key(unit, config, "ctx")
        slower = SolutionConfig(top_name="kernel", clock_period_ns=7.5)
        assert candidate_key(unit, slower, "ctx") != base
        assert candidate_key(unit, config, "other-ctx") != base

    def test_context_token_binds_the_oracle(self):
        unit = parse(SRC_A, top_name="kernel")
        tests = [[[1, 2, 3, 4], 4]]
        base = context_token(unit, "kernel", tests)
        assert context_token(unit, "kernel", tests) == base
        assert context_token(unit, "kernel", tests + [[[0] * 4, 0]]) != base
        assert context_token(unit, "kernel", tests, extra="max_faults=3") != base


BROKEN_SRC = """
int kernel(int a[8], int n) {
    if (n > 8) { n = 8; }
    long double acc = 0.0;
    for (int i = 0; i < n; i++) {
        long double x = a[i];
        acc = acc + x;
    }
    return (int)acc;
}
"""

TESTS = [
    [[1, 2, 3, 4, 5, 6, 7, 8], 8],
    [[10, -10, 3, 0, 0, 0, 0, 0], 3],
    [[0] * 8, 0],
]


def run_search(cache=None, **overrides):
    unit = parse(BROKEN_SRC, top_name="kernel")
    overrides.setdefault("max_iterations", 40)
    config = SearchConfig(**overrides)
    search = RepairSearch(
        original=unit,
        kernel_name="kernel",
        tests=TESTS,
        config=config,
        clock=SimulatedClock(),
        cache=cache,
    )
    initial = Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
    return search, search.run(initial)


def _strip_uids(lines):
    """Edit labels embed AST node uids (``loop@1124``) drawn from a
    process-global counter, so they differ between parses of the same
    source; normalize them before cross-run comparison."""
    return [re.sub(r"@\d+", "@N", line) for line in lines]


def assert_equivalent(a, b):
    """Two SearchResults are indistinguishable in every simulated
    measurement: fitness, history, clock totals and activity counts."""
    assert a.best is not None and b.best is not None
    assert a.best.fitness == b.best.fitness
    assert _strip_uids(a.best.candidate.applied) == _strip_uids(
        b.best.candidate.applied
    )
    assert _strip_uids(a.history) == _strip_uids(b.history)
    assert a.stats.attempts == b.stats.attempts
    assert a.clock.seconds == pytest.approx(b.clock.seconds)
    assert a.clock.counts == b.clock.counts
    assert a.clock.by_activity.keys() == b.clock.by_activity.keys()
    for activity, seconds in a.clock.by_activity.items():
        assert seconds == pytest.approx(b.clock.by_activity[activity])


class TestCachedEquivalence:
    def test_cached_run_identical_to_uncached(self):
        _s, cached = run_search(use_cache=True)
        _s, uncached = run_search(use_cache=False)
        assert_equivalent(cached, uncached)

    def test_within_run_hits_skip_real_work(self):
        """Distinct edit paths converge on identical programs, so even a
        single run sees hits — and hits never count as real toolchain
        executions."""
        search, result = run_search(use_cache=True)
        stats = result.stats
        assert stats.cache_hits > 0
        assert stats.cache_hit_ratio > 0.0
        assert stats.attempts == stats.cache_hits + stats.cache_misses
        assert stats.hls_invocations == stats.cache_misses - stats.style_rejections
        assert stats.hls_invocations < stats.attempts


class TestSharedCacheAcrossRuns:
    """The acceptance scenario: repeat a search on P5 with a shared
    cache; the warm run answers from the memo instead of re-running the
    toolchain, while every simulated measurement stays identical."""

    def run_p5(self, cache):
        subject = get_subject("P5")
        unit = subject.parse()
        config = SearchConfig(max_iterations=60, seed=2022)
        search = RepairSearch(
            original=unit,
            kernel_name=subject.kernel,
            tests=subject.existing_test_list(),
            config=config,
            clock=SimulatedClock(),
            cache=cache,
        )
        initial = Candidate(unit=unit, config=subject.solution)
        return search, search.run(initial)

    def test_warm_run_skips_real_compiles(self):
        cache = EvalCache()
        _s, cold = self.run_p5(cache)

        before = compile_invocations()
        _s, warm = self.run_p5(cache)
        real_compiles = compile_invocations() - before

        # Strictly fewer real compile_unit executions than attempts.
        assert real_compiles == warm.stats.hls_invocations
        assert real_compiles < warm.stats.attempts
        assert warm.stats.cache_hit_ratio > 0.0
        assert warm.stats.cache_hits > cold.stats.cache_hits

        # ... while remaining indistinguishable in simulated terms.
        assert_equivalent(cold, warm)


class TestBackendIndependentKeys:
    """Cache keys must carry no execution-backend information: both
    backends are bit-identical in every simulated measurement, so an
    entry written under the tree-walker is valid under the batch engine
    (and vice versa)."""

    def evaluate_once(self, cache, backend):
        """One evaluation with *backend* as the process default engine."""
        previous = default_backend()
        set_default_backend(backend)
        try:
            unit = parse(BROKEN_SRC, top_name="kernel")
            search = RepairSearch(
                original=unit,
                kernel_name="kernel",
                tests=TESTS,
                config=SearchConfig(max_iterations=10),
                clock=SimulatedClock(),
                cache=cache,
            )
            candidate = Candidate(
                unit=unit, config=SolutionConfig(top_name="kernel")
            )
            return search.evaluate(candidate), search
        finally:
            set_default_backend(previous)

    def test_tree_populated_cache_hits_under_batch(self):
        cache = EvalCache()
        cold_eval, cold_search = self.evaluate_once(cache, "tree")
        assert cold_search.stats.cache_misses == 1
        assert cold_search.stats.cache_hits == 0

        warm_eval, warm_search = self.evaluate_once(cache, "batch")
        assert warm_search.stats.cache_hits == 1
        assert warm_search.stats.cache_misses == 0
        assert warm_eval.fitness == cold_eval.fitness

    def test_context_token_lacks_backend_marker(self):
        """The regression this guards against: someone 'helpfully' adding
        the backend name to the cache context, silently halving the hit
        ratio of mixed-backend runs."""
        _eval, tree_search = self.evaluate_once(EvalCache(), "tree")
        _eval, batch_search = self.evaluate_once(EvalCache(), "batch")
        assert tree_search._cache_context == batch_search._cache_context
