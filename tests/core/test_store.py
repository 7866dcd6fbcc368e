"""Persistent evaluation store: schema, salting, serialization and the
read-through wiring into the in-memory cache."""

import pickle

import pytest

from repro.cfront.parser import parse
from repro.core.evalcache import (
    CachedEvaluation,
    EvalCache,
    canonicalize_evaluation,
    rebind_evaluation,
)
from repro.core.edits import Candidate
from repro.core.search import RepairSearch, SearchConfig
from repro.core.store import (
    SCHEMA_VERSION,
    EvalStore,
    close_stores,
    decode_evaluation,
    encode_evaluation,
    get_store,
    toolchain_salt,
)
from repro.hls import SolutionConfig


def entry(seconds=1.0):
    return CachedEvaluation(
        style_violations=(),
        compile_report=None,
        diff_report=None,
        charges=(("hls_compile", seconds),),
    )


SRC = """
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


def real_evaluation():
    """A toolchain-produced canonical payload.

    The ``long double`` accumulator provokes real compile diagnostics
    (with node uids), so round-trips cover the nested report
    dataclasses; the style checker is off so the pipeline always
    reaches the compiler.
    """
    unit = parse(SRC, top_name="kernel")
    search = RepairSearch(
        original=unit,
        kernel_name="kernel",
        tests=[[[1, 2, 3, 4], 4]],
        config=SearchConfig(use_cache=False, use_style_checker=False),
    )
    candidate = Candidate(unit=unit, config=SolutionConfig(top_name="kernel"))
    return search._run_toolchain(candidate)


class TestEvalStore:
    def test_persists_across_opens(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        with EvalStore(path) as store:
            store.put("k", entry(2.5))
            assert len(store) == 1
        with EvalStore(path) as store:
            got = store.get("k")
            assert got is not None
            assert got.charges == (("hls_compile", 2.5),)
            assert store.hits == 1 and store.misses == 0

    def test_counters_and_contains(self, tmp_path):
        store = EvalStore(str(tmp_path / "s.sqlite"))
        assert store.get("missing") is None
        assert store.misses == 1
        store.put("k", entry())
        assert store.contains("k") and not store.contains("other")
        assert store.hits == 0  # contains never counts
        assert store.get("k") is not None
        assert store.hit_ratio == pytest.approx(0.5)

    def test_salt_mismatch_purges_everything(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with EvalStore(path, salt="toolchain-A") as store:
            store.put("k1", entry())
            store.put("k2", entry())
        reopened = EvalStore(path, salt="toolchain-B")
        assert len(reopened) == 0
        assert reopened.invalidations == 2
        assert reopened.get("k1") is None
        # The new salt is now recorded: a third open under it keeps data.
        reopened.put("k3", entry())
        reopened.close()
        with EvalStore(path, salt="toolchain-B") as store:
            assert store.contains("k3")
            assert store.invalidations == 0

    def test_default_salt_tracks_toolchain(self, tmp_path):
        store = EvalStore(str(tmp_path / "s.sqlite"))
        assert store.salt == toolchain_salt()
        assert f"schema-{SCHEMA_VERSION}" in store.salt

    def test_undecodable_payload_dropped_as_miss(self, tmp_path):
        store = EvalStore(str(tmp_path / "s.sqlite"))
        with store._lock, store._conn:
            store._conn.execute(
                "INSERT INTO evaluations (key, payload) VALUES (?, ?)",
                ("bad", b"not a pickle"),
            )
        assert store.get("bad") is None
        assert store.misses == 1 and store.invalidations == 1
        assert not store.contains("bad")  # the row was deleted

    def test_clear_resets_counters(self, tmp_path):
        store = EvalStore(str(tmp_path / "s.sqlite"))
        store.put("k", entry())
        store.get("k")
        store.clear()
        assert len(store) == 0
        assert store.hits == 0 and store.misses == 0


class TestRowRewrites:
    def test_corrupted_after_put_is_dropped(self, tmp_path):
        """A row corrupted after its put is dropped as a miss on the
        next get."""
        store = EvalStore(str(tmp_path / "s.sqlite"))
        store.put("k", entry())
        with store._lock, store._conn:
            store._conn.execute(
                "UPDATE evaluations SET payload = ? WHERE key = ?",
                (b"garbage", "k"),
            )
        assert store.get("k") is None
        assert store.invalidations == 1

    def test_rewritten_after_get_is_seen(self, tmp_path):
        """Every get reads the file: a row rewritten after a get is what
        the next get sees, not the payload the first get decoded."""
        store = EvalStore(str(tmp_path / "s.sqlite"))
        store.put("k", entry())
        assert store.get("k") == entry()
        with store._lock, store._conn:
            store._conn.execute(
                "UPDATE evaluations SET payload = ? WHERE key = ?",
                (b"garbage", "k"),
            )
        assert store.get("k") is None
        assert (store.hits, store.misses, store.invalidations) == (1, 1, 1)
        assert not store.contains("k")


class TestRegistry:
    def test_get_store_shares_one_connection_per_path(self, tmp_path):
        try:
            path = str(tmp_path / "shared.sqlite")
            first = get_store(path)
            second = get_store(path)
            assert first is second
            other = get_store(str(tmp_path / "other.sqlite"))
            assert other is not first
        finally:
            close_stores()

    def test_close_stores_empties_registry(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        store = get_store(path)
        close_stores()
        assert get_store(path) is not store
        close_stores()


class TestSerialization:
    def test_roundtrip_of_real_payload(self):
        evaluation = real_evaluation()
        # The source above provokes real reports (pointer-style kernels
        # carry diagnostics), so the round-trip covers nested dataclasses.
        assert evaluation.compile_report is not None
        decoded = decode_evaluation(encode_evaluation(evaluation))
        assert decoded == evaluation

    def test_roundtrip_through_store(self, tmp_path):
        evaluation = real_evaluation()
        with EvalStore(str(tmp_path / "s.sqlite")) as store:
            store.put("k", evaluation)
            assert store.get("k") == evaluation

    def test_decode_rejects_foreign_schema(self):
        blob = pickle.dumps((SCHEMA_VERSION + 1, entry()), protocol=4)
        with pytest.raises(ValueError):
            decode_evaluation(blob)


class TestCanonicalUidSpace:
    def test_rebind_lands_on_structural_twin(self):
        """A payload canonicalized against one parse rebinds onto a
        *different* parse of the same source (disjoint uids) such that
        every diagnostic names the structurally-equivalent node."""
        unit_a = parse(SRC, top_name="kernel")
        unit_b = parse(SRC, top_name="kernel")
        raw = real_evaluation()  # canonical space already
        assert any(d.node_uid != 0 for d in raw.compile_report.diagnostics)
        bound_a = rebind_evaluation(raw, unit_a)
        bound_b = rebind_evaluation(raw, unit_b)
        uids_a = [n.uid for n in unit_a.walk()]
        uids_b = [n.uid for n in unit_b.walk()]
        assert set(uids_a).isdisjoint(uids_b)
        for diag_a, diag_b in zip(
            bound_a.compile_report.diagnostics,
            bound_b.compile_report.diagnostics,
        ):
            if diag_a.node_uid == 0:
                assert diag_b.node_uid == 0
                continue
            assert uids_a.index(diag_a.node_uid) == uids_b.index(diag_b.node_uid)

    def test_canonicalize_then_rebind_is_identity(self):
        unit = parse(SRC, top_name="kernel")
        raw = real_evaluation()
        bound = rebind_evaluation(raw, unit)
        assert rebind_evaluation(canonicalize_evaluation(bound, unit), unit) == bound

    def test_zero_uid_stays_zero(self):
        unit = parse(SRC, top_name="kernel")
        payload = entry()
        assert canonicalize_evaluation(payload, unit) is payload
        assert rebind_evaluation(payload, unit) is payload


class TestCacheStoreTier:
    def test_read_through_promotes_into_memory(self, tmp_path):
        store = EvalStore(str(tmp_path / "s.sqlite"))
        store.put("k", entry(3.0))
        cache = EvalCache(store=store)
        got, tier = cache.lookup("k")
        assert tier == "store" and got is not None
        assert cache.misses == 1  # the memory tier genuinely missed
        assert store.hits == 1
        # Second lookup answers from memory without touching the store.
        got2, tier2 = cache.lookup("k")
        assert tier2 == "memory" and got2 is got
        assert store.lookups == 1

    def test_put_writes_through(self, tmp_path):
        store = EvalStore(str(tmp_path / "s.sqlite"))
        cache = EvalCache(store=store)
        cache.put("k", entry())
        assert store.contains("k")
        assert cache.contains("k")

    def test_contains_consults_both_tiers(self, tmp_path):
        store = EvalStore(str(tmp_path / "s.sqlite"))
        store.put("durable", entry())
        cache = EvalCache(store=store)
        assert cache.contains("durable")
        assert not cache.contains("nowhere")
        assert cache.hits == 0 and cache.misses == 0


class TestConcurrentAccess:
    """The get() lock must span the whole fetch–decode–drop sequence:
    an unreadable-payload DELETE racing a fresh put() used to discard
    the new payload silently."""

    def _corrupt(self, store, key):
        with store._lock, store._conn:
            store._conn.execute(
                "INSERT OR REPLACE INTO evaluations (key, payload)"
                " VALUES (?, ?)",
                (key, b"not a pickle"),
            )

    def test_unreadable_payload_dropped_and_counted_once(self, tmp_path):
        with EvalStore(str(tmp_path / "s.sqlite")) as store:
            store.put("k", entry())
            self._corrupt(store, "k")
            assert store.get("k") is None
            assert store.invalidations == 1
            assert store.misses == 1 and store.hits == 0
            assert not store.contains("k")

    def test_concurrent_get_put_keeps_fresh_payloads(self, tmp_path):
        import threading

        store = EvalStore(str(tmp_path / "s.sqlite"))
        fresh = entry(2.0)
        stop = threading.Event()
        failures = []
        gets = [0]

        def reader():
            try:
                while not stop.is_set():
                    got = store.get("k")
                    gets[0] += 1
                    # Every successful read decodes to the real payload;
                    # garbage never leaks out as an entry.
                    assert got is None or got.charges == fresh.charges
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def writer():
            try:
                while not stop.is_set():
                    self._corrupt(store, "k")
                    store.put("k", fresh)
            except Exception as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        import time

        time.sleep(0.3)
        stop.set()
        for t in threads:
            t.join()
        store.close()
        assert not failures
        # Lookup accounting stayed consistent under contention.
        assert store.hits + store.misses == gets[0]

    def test_put_after_stale_read_survives(self, tmp_path):
        """Serialized form of the race: corrupt, read (drops the row),
        then put — the fresh entry must be durable."""
        with EvalStore(str(tmp_path / "s.sqlite")) as store:
            self._corrupt(store, "k")
            assert store.get("k") is None
            store.put("k", entry(3.0))
            got = store.get("k")
            assert got is not None and got.charges == (("hls_compile", 3.0),)
