"""Persistent content-addressed evaluation store.

The in-memory :class:`~repro.core.evalcache.EvalCache` dies with the
process, so every Table 3 sweep and CI run re-verifies candidates the
previous run already judged — even though the toolchain verdict for a
(source, config, context) point never changes.  This module gives the
verify loop a durable tier: a SQLite-backed key/value store of
:class:`~repro.core.evalcache.CachedEvaluation` payloads that the
in-memory cache reads through and writes back to, shared across runs
and by concurrent CLI runs that name the same store file.

Keying and invalidation
-----------------------

Entries are keyed by the existing
:func:`~repro.core.evalcache.candidate_key` — a SHA-256 over the
candidate's structural fingerprint, the solution knobs and the
evaluation-context token — so the store inherits the cache's scoping
guarantees: two runs share an entry only when the differential oracle
would judge the candidate identically.

The store file additionally records a **toolchain-version salt**
(:data:`toolchain_salt`, derived from the package version and the
payload schema version).  Any mismatch between the salt stored in the
file and the salt of the running toolchain empties the store on open:
a new toolchain version may produce different verdicts or different
simulated charges for the same key, and a stale entry replayed into a
new run would silently corrupt the determinism guarantee.  Invalidation
is all-or-nothing by design — cheap to reason about, and the cold run
that follows simply repopulates the file.

Payloads are stored in the *canonical uid space* (walk-order indices,
see :func:`~repro.core.evalcache.canonicalize_evaluation`), never in
live-tree uids: uid assignment is a process-global counter, so raw uids
are meaningless in the next run.  Rebinding a canonical payload to the
consuming candidate's tree makes a warm-store run bit-identical to the
cold run that wrote the entry.

Concurrency
-----------

SQLite in WAL mode with a generous busy timeout: one writer at a time,
readers never block, which is the access pattern of several runs sharing
one ``REPRO_STORE`` (writes are rare — one per real toolchain execution —
and tiny).  Every process opens its own
connection; cross-process safety is the database's problem, not ours.
"""

from __future__ import annotations

import logging
import os
import pickle
import sqlite3
import threading
import time
from typing import Optional, TYPE_CHECKING

from ..obs import get_recorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .evalcache import CachedEvaluation

_log = logging.getLogger(__name__)

#: Bump when the CachedEvaluation payload layout (or the canonical uid
#: encoding) changes shape: old payloads would unpickle into stale or
#: unreadable objects.  2: ``CachedEvaluation`` grew a ``trace`` field.
#: 3: ``DiffReport`` grew a list of diverging inputs for the repair
#: synthesizer.  4: ``CachedEvaluation`` grew a ``wire`` field (since
#: deleted).  5: ``CachedEvaluation`` lost the ``trace`` field.
#: 6: ``DiffReport`` lost the diverging-input list with the synthesizer.
SCHEMA_VERSION = 6

#: Environment variable naming the store file.  Empty / "0" disables.
STORE_ENV = "REPRO_STORE"

_SQLITE_BUSY_TIMEOUT_MS = 30_000


def toolchain_salt() -> str:
    """Version tag binding store entries to one toolchain generation.

    Combines the package version with the payload schema version; either
    moving invalidates every entry (a new toolchain may charge the
    simulated clock differently for the same candidate, and replaying
    old charges would desynchronize warm runs from cold ones).
    """
    from .. import __version__

    return f"repro-{__version__}/schema-{SCHEMA_VERSION}"


def default_store_path() -> Optional[str]:
    """Store path from the environment, or None when disabled."""
    raw = os.environ.get(STORE_ENV, "").strip()
    if not raw or raw == "0":
        return None
    return raw


# --------------------------------------------------------------------------
# Payload serialization
# --------------------------------------------------------------------------


def encode_evaluation(evaluation: "CachedEvaluation") -> bytes:
    """Serialize a (canonical-space) evaluation payload.

    Pickle of plain frozen dataclasses and tuples — the payload holds no
    AST nodes, closures or engines, so the encoding is stable across
    processes and runs of the same toolchain version.
    """
    return pickle.dumps((SCHEMA_VERSION, evaluation), protocol=4)


def decode_evaluation(blob: bytes) -> "CachedEvaluation":
    """Inverse of :func:`encode_evaluation`.

    Raises ``ValueError`` on a schema-version mismatch (callers treat
    that as a miss and drop the entry)."""
    version, evaluation = pickle.loads(blob)
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"evaluation payload schema {version} != {SCHEMA_VERSION}"
        )
    return evaluation


# --------------------------------------------------------------------------
# The store
# --------------------------------------------------------------------------


class EvalStore:
    """Durable, process-shared key/value tier under the evalcache.

    Thread-safe (one connection guarded by a lock) and multi-process
    safe (WAL).  All values are canonical-space
    :class:`~repro.core.evalcache.CachedEvaluation` payloads.
    """

    def __init__(self, path: str, salt: Optional[str] = None) -> None:
        self.path = path
        self.salt = salt if salt is not None else toolchain_salt()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        """Entries purged because their toolchain salt or payload schema
        no longer matches the running toolchain."""
        self._lock = threading.Lock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._conn = sqlite3.connect(
            path,
            timeout=_SQLITE_BUSY_TIMEOUT_MS / 1000.0,
            check_same_thread=False,
        )
        self._conn.execute(f"PRAGMA busy_timeout={_SQLITE_BUSY_TIMEOUT_MS}")
        # Switching a rollback-journal file to WAL needs a moment of
        # exclusivity and does not reliably honor the busy handler, so
        # concurrent *first* opens of a fresh file can race (two runs
        # started together on a new store).  Re-asserting WAL on an
        # already-WAL file is a lock-free no-op; the retry covers the
        # window before the first open converts it.
        for attempt in range(20):
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError:
                if attempt == 19:
                    raise
                time.sleep(0.05 * (attempt + 1))
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._ensure_schema()

    # -- schema ------------------------------------------------------------

    def _ensure_schema(self) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS evaluations ("
                " key TEXT PRIMARY KEY,"
                " payload BLOB NOT NULL)"
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'salt'"
            ).fetchone()
            if row is None or row[0] != self.salt:
                if row is not None:
                    # Toolchain moved under the store: every entry might
                    # replay stale charges or stale verdicts.  Purge.
                    purged = self._conn.execute(
                        "SELECT COUNT(*) FROM evaluations"
                    ).fetchone()[0]
                    self.invalidations += purged
                    self._conn.execute("DELETE FROM evaluations")
                    _log.warning(
                        "evaluation store %s: toolchain salt changed "
                        "(%s -> %s); purged %d stale entries",
                        self.path, row[0], self.salt, purged,
                    )
                    recorder = get_recorder()
                    if recorder.enabled:
                        recorder.metrics.inc(
                            "store.invalidations", purged, reason="salt"
                        )
                self._conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value)"
                    " VALUES ('salt', ?)",
                    (self.salt,),
                )

    # -- accounting --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM evaluations"
            ).fetchone()[0]

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> dict:
        return {
            "path": self.path,
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }

    # -- data path ---------------------------------------------------------

    def get(self, key: str) -> Optional["CachedEvaluation"]:
        """Fetch and decode an entry, counting the lookup.

        The lock is held across the whole fetch–decode–drop sequence:
        releasing it between the SELECT and the unreadable-payload
        DELETE would let a concurrent ``put`` replace the row with a
        fresh payload that the stale DELETE then silently discards, and
        would let two threads double-count the same miss.
        """
        recorder = get_recorder()
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM evaluations WHERE key = ?", (key,)
            ).fetchone()
            if row is None:
                self.misses += 1
                return None
            try:
                evaluation = decode_evaluation(row[0])
            except Exception as exc:
                # Unreadable payload (schema drift, truncated write):
                # treat as a miss and drop the row so it is recomputed
                # cleanly.
                self.invalidations += 1
                self.misses += 1
                _log.warning(
                    "evaluation store %s: dropping unreadable payload "
                    "for key %s… (%s)", self.path, key[:12], exc,
                )
                if recorder.enabled:
                    recorder.metrics.inc(
                        "store.invalidations", reason="unreadable"
                    )
                with self._conn:
                    self._conn.execute(
                        "DELETE FROM evaluations WHERE key = ?", (key,)
                    )
                return None
            self.hits += 1
        if recorder.enabled:
            recorder.metrics.inc("store.gets", outcome="hit")
        return evaluation

    def contains(self, key: str) -> bool:
        """Presence probe without hit/miss accounting."""
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM evaluations WHERE key = ?", (key,)
            ).fetchone()
        return row is not None

    def put(self, key: str, evaluation: "CachedEvaluation") -> None:
        blob = encode_evaluation(evaluation)
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO evaluations (key, payload)"
                " VALUES (?, ?)",
                (key, blob),
            )
        recorder = get_recorder()
        if recorder.enabled:
            recorder.metrics.inc("store.puts")

    def clear(self) -> None:
        with self._lock, self._conn:
            self._conn.execute("DELETE FROM evaluations")
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def close(self) -> None:
        with self._lock:
            try:
                # Fold the WAL back into the main file so the *next*
                # open (a warm run) starts clean instead of paying WAL
                # recovery/checkpoint of a large log on first read.
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:  # pragma: no cover - best effort
                pass
            self._conn.close()

    def __enter__(self) -> "EvalStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# --------------------------------------------------------------------------
# Per-process registry
# --------------------------------------------------------------------------

_OPEN_STORES: dict = {}
_OPEN_LOCK = threading.Lock()


def get_store(path: str) -> EvalStore:
    """One :class:`EvalStore` per path per process.

    Searches and the pipeline both route through here, so a sweep over
    many subjects shares a single connection (and a single set of
    counters) per store file instead of opening one per search.
    """
    key = os.path.abspath(path)
    with _OPEN_LOCK:
        store = _OPEN_STORES.get(key)
        if store is None:
            store = EvalStore(key)
            _OPEN_STORES[key] = store
        return store


def close_stores() -> None:
    """Close every registry-held store (tests, end-of-process hygiene)."""
    with _OPEN_LOCK:
        for store in _OPEN_STORES.values():
            store.close()
        _OPEN_STORES.clear()
