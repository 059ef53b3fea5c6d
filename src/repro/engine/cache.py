"""Persistent on-disk result cache: sharded, bounded, concurrency-safe.

Repeated figure/benchmark runs re-simulate the identical 495-point
cross product; this cache makes warm reruns near-free. One JSON file
per simulated point, content-addressed by

``(code_version, arch, workload, matrix, config_key, reorder, block_size)``

where ``config_key`` is :meth:`SparsepipeConfig.cache_key` (a frozen
content hash, never ``id()``) and ``code_version`` is this module's
:data:`CODE_VERSION` — bump it whenever simulator semantics change and
every stale entry misses.

One store may be shared by concurrent sweeps and pool workers, so it
is built for concurrent access:

- **Sharding** — entries live under ``shard-NN/`` directories chosen
  by the key digest's prefix (:data:`DEFAULT_SHARDS` shards by
  default), each protected by its own in-process lock, so concurrent
  readers/writers on different shards never contend. Cross-process
  writers are safe regardless: every write goes through a per-process,
  per-write temp file (pid plus a process-wide counter) and an atomic
  rename, so a concurrent reader can never observe a torn entry.
- **Byte budget with LRU eviction** — ``max_bytes`` bounds the live
  entry bytes across all shards. Recency is stamped into each entry's
  mtime from a store-wide logical clock (monotone integers seeded
  above everything already on disk — never the wall clock: the engine
  package is a deterministic hot path), so least-recently-*used* order
  survives process restarts and is shared between processes. When a
  put pushes the store over budget, entries are unlinked oldest-first
  until the invariant ``live bytes <= max_bytes`` holds again.
- **Metrics** — pass a :class:`~repro.obs.metrics.MetricsRegistry` and
  the store reports ``cache.hits`` / ``cache.misses`` counters,
  ``cache.evicted`` / ``cache.evicted_bytes`` eviction counters, and a
  ``cache.bytes`` gauge (live bytes after the last budget sweep); see
  docs/observability.md.

Each entry stores its full key alongside the serialized
:class:`~repro.arch.stats.SimResult`, so hash collisions and
hand-edited files degrade to a miss, never a wrong result — and the
offending file is **quarantined** per shard (moved under the shard's
``quarantine/`` with an ``SP604`` diagnostic in
:attr:`ResultCache.diagnostics`), so a corrupt entry can never be
silently re-missed forever: the next ``put`` re-populates the slot.
Entries may also carry a :class:`~repro.obs.manifest.RunManifest`
recording the producing run's provenance;
:meth:`ResultCache.get_entry` returns it marked ``from_cache=True`` so
served and fresh results stay distinguishable.
:meth:`ResultCache.clear` also sweeps the ``*.tmp`` debris a crashed
writer may have left behind.

**Workload profiles** (:class:`~repro.arch.profile.WorkloadProfile`)
are stored too, under ``profiles/`` and keyed by
``(code_version, workload, matrix)``: characterization does not depend
on the simulator config, so a config sweep over a filled store reads
each profile instead of re-running the functional workload
(:meth:`ResultCache.get_profile` / :meth:`ResultCache.put_profile`).
They share the key check on read, the atomic tmp-rename write and the
SP604 quarantine (into ``profiles/quarantine/``), and count under
``cache.profile_hits`` / ``cache.profile_misses`` — ``cache.hits`` /
``cache.misses`` stay ``SimResult`` lookups only. Profile entries are
tiny and outside the shards: ``len()`` and the byte budget see result
entries only, while :meth:`ResultCache.clear` removes both kinds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from repro.arch.profile import WorkloadProfile
from repro.arch.stats import SimResult
from repro.errors import ConfigError, Diagnostic
from repro.obs.manifest import RunManifest
from repro.resilience.faults import maybe_corrupt_file

#: Distinguishes temp files of concurrent threads in one process.
_TMP_COUNTER = itertools.count()

#: Bump whenever a change to the simulators alters results — every
#: cache entry written under another version becomes a miss. Workload
#: profiles are filed under it too: every ``SimResult`` depends on its
#: profile, so a characterization change (graphblas, workloads) that
#: moves a profile already needs a bump, and that bump retires the
#: stored profiles with the results.
CODE_VERSION = "1"

#: Default shard count: 16 shards keep per-shard lock contention
#: negligible for a pool of sweep workers while staying a trivial
#: number of directories to scan.
DEFAULT_SHARDS = 16


@dataclass(frozen=True)
class CacheEntry:
    """One cache hit: the result plus its (optional) run manifest."""

    result: SimResult
    manifest: Optional[RunManifest] = None


class ResultCache:
    """Sharded directory of per-point SimResult JSON documents, plus
    one profile document per (workload, matrix)."""

    def __init__(
        self,
        root: Union[str, Path],
        code_version: Optional[str] = None,
        shards: Optional[int] = None,
        max_bytes: Optional[int] = None,
        metrics=None,
    ) -> None:
        self.root = Path(root)
        self.n_shards = DEFAULT_SHARDS if shards is None else int(shards)
        if self.n_shards < 1:
            raise ConfigError(
                f"ResultCache needs at least one shard, got {shards!r}")
        if max_bytes is not None and max_bytes <= 0:
            raise ConfigError(
                f"ResultCache max_bytes must be positive, got {max_bytes!r}")
        self.max_bytes = max_bytes
        #: Optional MetricsRegistry the store reports through
        #: (``cache.hits`` / ``cache.misses`` / ``cache.profile_hits`` /
        #: ``cache.profile_misses`` / ``cache.evicted`` /
        #: ``cache.evicted_bytes`` / ``cache.bytes``).
        self.metrics = metrics
        self.root.mkdir(parents=True, exist_ok=True)
        for index in range(self.n_shards):
            self.shard_dir(index).mkdir(parents=True, exist_ok=True)
        # Resolved at construction so tests can monkeypatch CODE_VERSION.
        self.code_version = str(
            CODE_VERSION if code_version is None else code_version
        )
        #: SP604 quarantine diagnostics since the last
        #: :meth:`pop_diagnostics` (consumers: ExperimentContext
        #: metrics / run manifests).
        self.diagnostics: List[Diagnostic] = []
        self._diag_lock = threading.Lock()
        #: One lock per shard: in-process readers/writers of different
        #: shards never contend; same-shard operations serialize.
        self._shard_locks = tuple(
            threading.RLock() for _ in range(self.n_shards)
        )
        #: Serializes budget sweeps (which may touch every shard).
        #: Lock order is always evict-lock -> shard-lock; entry
        #: operations take only their shard lock, so no cycle exists.
        self._evict_lock = threading.Lock()
        #: Store-wide logical recency clock. Seeded above every mtime
        #: already on disk so a restarted process keeps appending to
        #: the same total order; per-process monotone thereafter.
        self._recency = itertools.count(self._initial_stamp())

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def shard_dir(self, index: int) -> Path:
        return self.root / f"shard-{index:02d}"

    def shard_dirs(self) -> List[Path]:
        return [self.shard_dir(i) for i in range(self.n_shards)]

    @property
    def profile_dir(self) -> Path:
        """Where workload-profile entries live (outside the shards)."""
        return self.root / "profiles"

    def quarantine_dirs(self) -> List[Path]:
        """Per-shard and profile quarantine directories (existing ones
        only)."""
        dirs = [d / "quarantine" for d in self.shard_dirs()]
        dirs.append(self.profile_dir / "quarantine")
        return [d for d in dirs if d.is_dir()]

    def quarantine_paths(self) -> List[Path]:
        """Every quarantined entry file, across all shards."""
        return sorted(
            path for d in self.quarantine_dirs() for path in d.glob("*.json")
        )

    def _entries(self) -> Iterator[Path]:
        """Live entry files (excludes quarantine and tmp debris)."""
        for shard in self.shard_dirs():
            yield from shard.glob("*.json")

    def _initial_stamp(self) -> int:
        """First logical recency stamp: one past everything on disk."""
        newest = 0
        for path in self.root.rglob("*.json"):
            try:
                newest = max(newest, path.stat().st_mtime_ns)
            except OSError:
                continue
        return newest + 1

    def _touch(self, path: Path) -> None:
        """Stamp ``path`` as most-recently-used (logical clock, not
        wall clock — eviction order is deterministic and replayable)."""
        stamp = next(self._recency)
        try:
            os.utime(path, ns=(stamp, stamp))
        except OSError:
            pass  # racing eviction/quarantine; recency is best-effort

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry out of its shard so it misses exactly
        once, and record why. Called with the shard lock held."""
        dest_dir = path.parent / "quarantine"
        dest = dest_dir / path.name
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            path.replace(dest)
        except OSError:
            return  # racing reader already moved it; either outcome is a miss
        with self._diag_lock:
            self.diagnostics.append(Diagnostic.warning(
                "SP604", f"corrupt cache entry ({reason}) quarantined",
                str(dest),
            ))

    def pop_diagnostics(self) -> List[Diagnostic]:
        """Quarantine diagnostics accumulated so far (cleared on read)."""
        with self._diag_lock:
            out = list(self.diagnostics)
            self.diagnostics.clear()
        return out

    # ------------------------------------------------------------------
    # Keying
    # ------------------------------------------------------------------
    def _entry(self, arch, workload, matrix, config_key, reorder, block_size):
        key = json.dumps(
            [
                self.code_version,
                str(arch),
                str(workload),
                str(matrix),
                str(config_key),
                str(reorder),
                str(block_size),
            ]
        )
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
        shard = int(digest[:8], 16) % self.n_shards
        path = self.shard_dir(shard) / (
            f"{arch}-{workload}-{matrix}-{digest}.json"
        )
        return path, key, self._shard_locks[shard]

    def _profile_entry(self, workload, matrix):
        key = json.dumps(
            [self.code_version, "profile", str(workload), str(matrix)]
        )
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
        path = self.profile_dir / f"{workload}-{matrix}-{digest}.json"
        return path, key, self._shard_locks[int(digest[:8], 16) % self.n_shards]

    # ------------------------------------------------------------------
    # Access
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
        path, key, lock = self._entry(
            arch, workload, matrix, config_key, reorder, block_size
        )
        with lock:
            entry = self._read_entry(path, key)
        if entry is None:
            self._count("cache.misses")
        else:
            self._count("cache.hits")
        return entry

    def _read_doc(self, path: Path, key: str) -> Optional[dict]:
        """One locked read: the entry's JSON document if its stored key
        matches, else ``None`` (quarantining any corrupt file)."""
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None  # a plain miss, nothing to quarantine
        except OSError:
            self._quarantine(path, "unreadable file")
            return None
        try:
            doc = json.loads(text)
        except ValueError:
            self._quarantine(path, "unparseable JSON")
            return None
        if not isinstance(doc, dict) or doc.get("key") != key:
            self._quarantine(path, "key mismatch")
            return None
        return doc

    def _read_entry(self, path: Path, key: str) -> Optional["CacheEntry"]:
        """One locked probe: read, validate, quarantine on corruption,
        stamp recency on a hit."""
        maybe_corrupt_file("cache.get", path.name, path)
        doc = self._read_doc(path, key)
        if doc is None:
            return None
        try:
            result = SimResult.from_dict(doc["result"])
        except (KeyError, TypeError, ValueError):
            self._quarantine(path, "undecodable result")
            return None
        manifest = None
        if doc.get("manifest") is not None:
            try:
                manifest = RunManifest.from_dict(
                    doc["manifest"]
                ).served_from_cache()
            except (KeyError, TypeError, ValueError):
                manifest = None  # auditing data is best-effort
        self._touch(path)
        return CacheEntry(result=result, manifest=manifest)

    def put(
        self, arch, workload, matrix, config_key, reorder, block_size,
        result: SimResult, manifest: Optional[RunManifest] = None,
    ) -> Path:
        """Store one result; atomic against concurrent readers/writers.

        When a byte budget is configured, the put is followed by an
        LRU sweep restoring ``live bytes <= max_bytes``.
        """
        path, key, lock = self._entry(
            arch, workload, matrix, config_key, reorder, block_size
        )
        doc = {
            "key": key,
            "result": result.to_dict(),
            "manifest": None if manifest is None else manifest.to_dict(),
        }
        with lock:
            self._write(path, doc)
            self._touch(path)
        self._enforce_budget()
        return path

    def _write(self, path: Path, doc: dict) -> None:
        """Atomic write (pid-unique temp file, then rename); called
        with the entry's lock held."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_TMP_COUNTER)}.tmp"
        )
        tmp.write_text(json.dumps(doc, sort_keys=True))
        tmp.replace(path)

    # ------------------------------------------------------------------
    # Workload profiles
    # ------------------------------------------------------------------
    def get_profile(self, workload, matrix) -> Optional[WorkloadProfile]:
        """Stored profile of one (workload, matrix), or None on any kind
        of miss (a corrupt entry is quarantined, as for results)."""
        path, key, lock = self._profile_entry(workload, matrix)
        profile = None
        with lock:
            doc = self._read_doc(path, key)
            if doc is not None:
                try:
                    profile = WorkloadProfile.from_dict(doc["profile"])
                except (KeyError, TypeError, ValueError):
                    self._quarantine(path, "undecodable profile")
        self._count(
            "cache.profile_misses" if profile is None
            else "cache.profile_hits"
        )
        return profile

    def put_profile(self, workload, matrix, profile: WorkloadProfile) -> Path:
        """Store one profile; atomic against concurrent readers."""
        path, key, lock = self._profile_entry(workload, matrix)
        with lock:
            self._write(path, {"key": key, "profile": profile.to_dict()})
        return path

    # ------------------------------------------------------------------
    # Budget / eviction
    # ------------------------------------------------------------------
    def live_bytes(self) -> int:
        """Total bytes of live entries (authoritative: from disk, so
        it also sees entries written by other processes)."""
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def _enforce_budget(self) -> None:
        """Evict least-recently-used entries until the live bytes fit
        the budget again. Scans the disk (not in-memory bookkeeping)
        so concurrent writer *processes* cannot overshoot the budget
        between each other's sweeps."""
        if self.max_bytes is None:
            return
        with self._evict_lock:
            entries: List[Tuple[int, str, int, Path, int]] = []
            total = 0
            for index in range(self.n_shards):
                with self._shard_locks[index]:
                    for path in self.shard_dir(index).glob("*.json"):
                        try:
                            st = path.stat()
                        except OSError:
                            continue
                        entries.append(
                            (st.st_mtime_ns, path.name, index, path,
                             st.st_size)
                        )
                        total += st.st_size
            evicted = 0
            evicted_bytes = 0
            if total > self.max_bytes:
                entries.sort(key=lambda e: (e[0], e[1]))
                for _stamp, _name, index, path, size in entries:
                    if total <= self.max_bytes:
                        break
                    with self._shard_locks[index]:
                        try:
                            path.unlink()
                        except OSError:
                            continue  # racing eviction already took it
                    total -= size
                    evicted += 1
                    evicted_bytes += size
            if evicted:
                self._count("cache.evicted", evicted)
                self._count("cache.evicted_bytes", evicted_bytes)
            if self.metrics is not None:
                self.metrics.gauge(
                    "cache.bytes", "live result-store bytes"
                ).set(total)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Live result entries (profile entries are not counted)."""
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every live entry, result and profile alike (plus any
        ``*.tmp`` debris crashed writers left behind, in any shard);
        returns the number of result entries removed, as :meth:`__len__`
        counts them. Quarantined corpses are kept for auditing."""
        n = 0
        for path in list(self._entries()) + list(self.root.glob("*.json")):
            try:
                path.unlink()
                n += 1
            except OSError:
                pass
        for path in self.profile_dir.glob("*.json"):
            try:
                path.unlink()
            except OSError:
                pass
        for tmp in self.root.rglob("*.tmp"):
            try:
                tmp.unlink()
            except OSError:
                pass
        return n
