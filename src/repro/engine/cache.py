"""Persistent on-disk result store: one SQLite file per store directory.

Repeated figure/benchmark runs re-simulate the identical 495-point
cross product; this store makes warm reruns near-free. Every entry is
one row of one table in ``<root>/store.sqlite``: the row key is the
entry's full key string and the value is the entry's sorted-key JSON
document. A simulated point is content-addressed by

``(code_version, arch, workload, matrix, config_key, reorder, block_size)``

where ``config_key`` is :meth:`SparsepipeConfig.cache_key` (a frozen
content hash, never ``id()``) and ``code_version`` is this module's
:data:`CODE_VERSION` — bump it whenever simulator semantics change and
every stale entry misses.

**Workload profiles** (:class:`~repro.arch.profile.WorkloadProfile`)
share the table, keyed by ``(code_version, "profile", workload,
matrix)``: characterization does not depend on the simulator config,
so a config sweep over a filled store reads each profile instead of
re-running the functional workload (:meth:`ResultCache.get_profile` /
:meth:`ResultCache.put_profile`). They count under
``cache.profile_hits`` / ``cache.profile_misses``; ``cache.hits`` /
``cache.misses`` stay ``SimResult`` probes only, and ``len()`` counts
result entries only.

**Reorder permutations** are the third kind, keyed by
``(code_version, "permutation", matrix, reorder)``: a reorder depends
only on the matrix, not on the config or the block size, so a fresh
context reads each one instead of re-running the reorder
(:meth:`ResultCache.get_permutation` /
:meth:`ResultCache.put_permutation`). A stored permutation must be a
permutation of ``range(n)`` for the matrix's ``n`` or it is
quarantined. They count under ``cache.permutation_hits`` /
``cache.permutation_misses``.

Each document stores its full key beside the payload, so a hash
collision or a hand-edited row degrades to a miss, never a wrong
result. A row that fails to parse, fails the key check or fails to
decode is **quarantined**: removed from the table, its text kept as
``<root>/quarantine/<arch>-<workload>-<matrix>-<digest>.json``
(``<workload>-<matrix>-<digest>.json`` for profiles,
``<matrix>-<reorder>-<digest>.json`` for permutations) with an ``SP604``
diagnostic in :attr:`ResultCache.diagnostics`, so it misses exactly
once and the next put re-populates the slot. A store file that is not
a database at all (garbage bytes, a truncated copy) is quarantined
whole, with its ``-wal``/``-shm`` files, when the store opens; the
store then starts empty. Results may carry a
:class:`~repro.obs.manifest.RunManifest` recording the producing run's
provenance; :meth:`ResultCache.get_entry` returns it marked
``from_cache=True`` so served and fresh results stay distinguishable.

Concurrency and durability: the file is journaled in WAL mode with
``synchronous=NORMAL``, so every put — one row, or a sweep's rows
through :meth:`ResultCache.put_many` — is one atomic commit and a crash
never tears one (nothing is fsynced per put). Two processes on one
directory — two CLI sweeps — are serialized by SQLite's file locks,
with a busy timeout. In a process the store holds one connection
behind one lock, because callers may share a store across threads.
SQLite connections must not cross a fork, so a forked pool worker
that uses an inherited store opens its own connection, with its own
lock, the first time it does (a pid check); the parent's connection
is never touched there. The connection is checkpointed and closed when the
store is closed, dropped, or the interpreter exits, so a directory
copied after its writer exited is self-contained.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult
from repro.errors import Diagnostic
from repro.obs.manifest import RunManifest
from repro.obs.metrics import sorted_json
from repro.resilience.faults import maybe_corrupt_text

#: Distinguishes temp files of concurrent stores in one process.
_TMP_COUNTER = itertools.count()

#: Bump whenever a change to the simulators alters results — every
#: cache entry written under another version becomes a miss. Workload
#: profiles are filed under it too: every ``SimResult`` depends on its
#: profile, so a characterization change (graphblas, workloads) that
#: moves a profile already needs a bump, and that bump retires the
#: stored profiles with the results.
CODE_VERSION = "1"

#: The store's one file inside its directory.
STORE_FILE = "store.sqlite"

#: Seconds a statement waits for another process's write to commit.
BUSY_TIMEOUT_S = 60.0

#: Seconds between tries of a store-open statement while the store is
#: locked (opening polls: SQLite refuses a journal-mode switch under
#: another connection's write lock at once, busy timeout or not).
_OPEN_POLL_S = 0.05

#: ``kind`` is the payload field: ``"result"``, ``"profile"`` or
#: ``"permutation"``.
_SCHEMA = ("CREATE TABLE IF NOT EXISTS entries "
           "(key TEXT PRIMARY KEY, kind TEXT NOT NULL, doc TEXT NOT NULL)")


@dataclass(frozen=True)
class CacheEntry:
    """One cache hit: the result plus its (optional) run manifest."""

    result: SimResult
    manifest: Optional[RunManifest] = None


def _entry_name(stem: str, key: str) -> str:
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
    return f"{stem}-{digest}.json"


def _permutation(values, n: int) -> np.ndarray:
    """Decode a stored permutation; ValueError unless it is an integer
    permutation of ``range(n)``."""
    perm = np.array(values)
    if perm.size == 0:
        perm = perm.astype(np.int64)
    if perm.shape != (n,) or perm.dtype != np.int64 or (
            n and not (perm.min() >= 0 and perm.max() < n
                       and np.bincount(perm, minlength=n).all())):
        raise ValueError(f"not a permutation of range({n})")
    return perm


def _close(db, pid: int) -> None:
    """Checkpoint the WAL into the store file and close ``db`` — only
    in the process that opened it (a forked child leaves it alone).
    The checkpoint never waits on another connection; the last one to
    close also deletes the WAL."""
    if os.getpid() != pid:
        return
    try:
        db.execute("PRAGMA wal_checkpoint(PASSIVE)")
    finally:
        db.close()


def _when_unlocked(db, sql: str) -> None:
    """Run ``sql`` on ``db`` (busy timeout 0), polling while the store
    is locked, for up to :data:`BUSY_TIMEOUT_S` in all."""
    import sqlite3

    for _ in range(int(BUSY_TIMEOUT_S / _OPEN_POLL_S)):
        try:
            db.execute(sql)
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc):
                raise
        time.sleep(_OPEN_POLL_S)
    db.execute(sql)


def _connect(path: Path, on_corrupt: Callable[[Exception], None]):
    """Open the store at ``path``. A file that is not a database is
    handed to ``on_corrupt`` while the failed connection is still open
    (closing it first would let SQLite delete the file's ``-wal``), and
    a fresh store is opened in its place."""
    import sqlite3  # here, so runs without a store never load it

    db = sqlite3.connect(path, timeout=0, isolation_level=None,
                         check_same_thread=False)
    try:
        _when_unlocked(db, "PRAGMA journal_mode=WAL")
        db.execute("PRAGMA synchronous=NORMAL")
        _when_unlocked(db, _SCHEMA)
        db.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
        return db
    except sqlite3.OperationalError:
        db.close()
        raise  # locked or unreachable: not the file's fault
    except sqlite3.DatabaseError as exc:
        on_corrupt(exc)
        db.close()
    return _connect(path, on_corrupt)


class ResultCache:
    """One SQLite file of per-point SimResult JSON documents, plus one
    profile document per (workload, matrix) and one permutation per
    (matrix, reorder)."""

    def __init__(
        self,
        root: Union[str, Path],
        code_version: Optional[str] = None,
        metrics=None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Optional MetricsRegistry the store reports through
        #: (``cache.hits`` / ``cache.misses`` / ``cache.profile_hits`` /
        #: ``cache.profile_misses`` / ``cache.permutation_hits`` /
        #: ``cache.permutation_misses``).
        self.metrics = metrics
        # Resolved at construction so tests can monkeypatch CODE_VERSION.
        self.code_version = str(
            CODE_VERSION if code_version is None else code_version
        )
        self._pid: Optional[int] = None
        self._open()

    def _open(self):
        """This process's connection, opened on first use in a process
        (the constructing one, or a forked child: the parent's
        connection, its lock and its unread diagnostics stay the
        parent's)."""
        if self._pid != os.getpid():
            self._pid = os.getpid()
            #: Guards the connection and :attr:`diagnostics`.
            self._lock = threading.Lock()
            #: SP604 quarantine diagnostics since the last
            #: :meth:`pop_diagnostics` (consumers: ExperimentContext
            #: metrics / run manifests).
            self.diagnostics: List[Diagnostic] = []
            self._db = _connect(self.path, self._quarantine_store)
            self._finalizer = weakref.finalize(
                self, _close, self._db, self._pid)
        return self._db

    @property
    def path(self) -> Path:
        return self.root / STORE_FILE

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def quarantine_paths(self) -> List[Path]:
        """Every quarantined entry document."""
        return sorted(self.quarantine_dir.glob("*.json"))

    def close(self) -> None:
        """Checkpoint and close the connection (idempotent)."""
        self._finalizer()

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def _quarantine_store(self, exc: Exception) -> None:
        """Move a store file that is not a database, with its
        ``-wal``/``-shm``, under ``quarantine/`` as ``store-<n>.sqlite*``
        (one SP604), so the store starts empty."""
        self.quarantine_dir.mkdir(exist_ok=True)
        n = 0
        while (self.quarantine_dir / f"store-{n}.sqlite").exists():
            n += 1
        corpse = self.quarantine_dir / f"store-{n}.sqlite"
        for suffix in ("", "-wal", "-shm"):
            try:
                self.path.with_name(STORE_FILE + suffix).replace(
                    corpse.with_name(corpse.name + suffix))
            except FileNotFoundError:
                continue
        self.diagnostics.append(Diagnostic.warning(
            "SP604", f"corrupt cache store ({exc}) quarantined", str(corpse)))

    def _quarantine(self, name: str, key: str, stored: str, text: str,
                    reason: str) -> None:
        """Drop the corrupt row (unless a put already replaced it) and
        keep the text that was read as ``quarantine/<name>``."""
        dest = self.quarantine_dir / name
        db = self._open()
        with self._lock:
            dropped = db.execute(
                "DELETE FROM entries WHERE key = ? AND doc = ?", (key, stored)
            ).rowcount
            if not dropped:
                return  # a racing probe or put got there first
            self.quarantine_dir.mkdir(exist_ok=True)
            tmp = dest.with_name(
                f"{name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp")
            tmp.write_text(text)
            tmp.replace(dest)
            self.diagnostics.append(Diagnostic.warning(
                "SP604", f"corrupt cache entry ({reason}) quarantined",
                str(dest)))

    def pop_diagnostics(self) -> List[Diagnostic]:
        """Quarantine diagnostics accumulated so far (cleared on read)."""
        self._open()
        with self._lock:
            out = list(self.diagnostics)
            self.diagnostics.clear()
        return out

    # ------------------------------------------------------------------
    # Keying: (name stem, key string). The entry name, the stem plus a
    # hash of the key, files a quarantined document and keys the
    # cache.get fault site, so it is hashed only for a row that was read
    # ------------------------------------------------------------------
    def _entry(self, arch, workload, matrix, config_key, reorder,
               block_size) -> Tuple[str, str]:
        key = json.dumps([self.code_version, *map(str, (
            arch, workload, matrix, config_key, reorder, block_size))])
        return f"{arch}-{workload}-{matrix}", key

    def _profile_entry(self, workload, matrix) -> Tuple[str, str]:
        key = json.dumps(
            [self.code_version, "profile", str(workload), str(matrix)])
        return f"{workload}-{matrix}", key

    def _permutation_entry(self, matrix, reorder) -> Tuple[str, str]:
        key = json.dumps(
            [self.code_version, "permutation", str(matrix), str(reorder)])
        return f"{matrix}-{reorder}", key

    # ------------------------------------------------------------------
    # One get/put pair for every kind
    # ------------------------------------------------------------------
    def _get(self, stem: str, key: str, kind: str, decode: Callable,
             fault_site: Optional[str] = None):
        """``(document, decoded doc[kind])``, or None on any kind of
        miss; a row that fails to parse, fails the key check or fails
        to decode is quarantined."""
        db = self._open()
        with self._lock:
            row = db.execute(
                "SELECT doc FROM entries WHERE key = ?", (key,)).fetchone()
        if row is None:
            return None
        name = _entry_name(stem, key)
        stored = text = row[0]
        if fault_site is not None:
            text = maybe_corrupt_text(fault_site, name, stored)
        try:
            doc = json.loads(text)
        except ValueError:
            return self._quarantine(name, key, stored, text,
                                    "unparseable JSON")
        if not isinstance(doc, dict) or doc.get("key") != key:
            return self._quarantine(name, key, stored, text, "key mismatch")
        try:
            return doc, decode(doc[kind])
        except (KeyError, TypeError, ValueError):
            return self._quarantine(name, key, stored, text,
                                    f"undecodable {kind}")

    def _put(self, rows: List[Tuple[str, str, dict]]) -> List[str]:
        """The one write path: serialize every ``(key, kind, doc)`` row,
        then write them all in one transaction; returns their keys."""
        rows = [(key, kind, sorted_json(doc)) for key, kind, doc in rows]
        db = self._open()
        with self._lock, db:  # commits, or rolls back on an exception
            db.execute("BEGIN")
            db.executemany("INSERT OR REPLACE INTO entries (key, kind, doc) "
                           "VALUES (?, ?, ?)", rows)
        return [key for key, _kind, _text in rows]

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def get(
        self, arch, workload, matrix, config_key, reorder, block_size
    ) -> Optional[SimResult]:
        """Cached result for one point, or None on any kind of miss."""
        entry = self.get_entry(
            arch, workload, matrix, config_key, reorder, block_size
        )
        return None if entry is None else entry.result

    def get_entry(
        self, arch, workload, matrix, config_key, reorder, block_size
    ) -> Optional["CacheEntry"]:
        """Cached result *with provenance*: the stored run manifest is
        returned marked ``from_cache=True`` (``None`` for entries
        written before manifests existed, or by manifest-less callers).
        """
        stem, key = self._entry(
            arch, workload, matrix, config_key, reorder, block_size
        )
        found = self._get(stem, key, "result", SimResult.from_dict,
                          fault_site="cache.get")
        if found is None:
            self._count("cache.misses")
            return None
        self._count("cache.hits")
        doc, result = found
        manifest = None
        if doc.get("manifest") is not None:
            try:
                manifest = RunManifest.from_dict(
                    doc["manifest"]
                ).served_from_cache()
            except (KeyError, TypeError, ValueError):
                manifest = None  # auditing data is best-effort
        return CacheEntry(result=result, manifest=manifest)

    def put(
        self, arch, workload, matrix, config_key, reorder, block_size,
        result: SimResult, manifest: Optional[RunManifest] = None,
    ) -> str:
        """Store one result (one atomic commit); returns its key."""
        point = (arch, workload, matrix, config_key, reorder, block_size)
        return self.put_many([(point, result, manifest)])[0]

    def put_many(self, entries) -> List[str]:
        """Store ``(point, result, manifest)`` entries, ``point`` being
        :meth:`put`'s six key fields, in one commit; returns their keys."""
        rows = []
        for point, result, manifest in entries:
            _stem, key = self._entry(*point)
            rows.append((key, "result", {
                "key": key,
                "result": result.to_dict(),
                "manifest": None if manifest is None else manifest.to_dict(),
            }))
        return self._put(rows)

    # ------------------------------------------------------------------
    # Workload profiles
    # ------------------------------------------------------------------
    def get_profile(self, workload, matrix) -> Optional[WorkloadProfile]:
        """Stored profile of one (workload, matrix), or None on any kind
        of miss (a corrupt entry is quarantined, as for results)."""
        stem, key = self._profile_entry(workload, matrix)
        found = self._get(stem, key, "profile", WorkloadProfile.from_dict)
        self._count(
            "cache.profile_misses" if found is None
            else "cache.profile_hits"
        )
        return None if found is None else found[1]

    def put_profile(self, workload, matrix, profile: WorkloadProfile) -> str:
        """Store one profile; returns its key."""
        _stem, key = self._profile_entry(workload, matrix)
        return self._put(
            [(key, "profile", {"key": key, "profile": profile.to_dict()})])[0]

    # ------------------------------------------------------------------
    # Reorder permutations
    # ------------------------------------------------------------------
    def get_permutation(self, matrix, reorder, n: int) -> Optional[np.ndarray]:
        """Stored ``reorder`` permutation of an ``n``-row ``matrix``, or
        None on any kind of miss (a row that is not a permutation of
        ``range(n)`` is quarantined, as for results)."""
        stem, key = self._permutation_entry(matrix, reorder)
        found = self._get(stem, key, "permutation",
                          lambda values: _permutation(values, n))
        self._count(
            "cache.permutation_misses" if found is None
            else "cache.permutation_hits"
        )
        return None if found is None else found[1]

    def put_permutation(self, matrix, reorder, perm: np.ndarray) -> str:
        """Store one permutation; returns its key."""
        _stem, key = self._permutation_entry(matrix, reorder)
        return self._put(
            [(key, "permutation", {"key": key, "permutation": perm.tolist()})])[0]

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Result entries (profiles and permutations are not counted)."""
        db = self._open()
        with self._lock:
            return db.execute(
                "SELECT COUNT(*) FROM entries WHERE kind = 'result'"
            ).fetchone()[0]

    def clear(self) -> int:
        """Delete every entry of every kind; returns the
        number of result entries removed, as :meth:`__len__` counts
        them. Quarantined corpses are kept for auditing."""
        db = self._open()
        with self._lock:
            n = db.execute(
                "DELETE FROM entries WHERE kind = 'result'").rowcount
            db.execute("DELETE FROM entries")
        return n
