"""Content-addressed persistent compile cache.

The Session cache (PR 1) is in-memory and per-process: every new process
re-pays compilation even for the schedules autotune, sweeps, and serving
traffic hit over and over.  :class:`DiskCache` is the second cache level —
a directory of entries keyed by the sha256 of everything the compiler
reads (program, schedule, pipeline, backend, hierarchy), each holding a
pickled :class:`~repro.driver.compiled.CompiledProgram` plus its compile
diagnostics and metadata.  A warm cache directory turns a cold process's
compile into a read-and-unpickle.

Safety properties, in decreasing order of importance:

* **Atomic under concurrent writers.**  Entries are written to a temp file
  in the cache directory and ``os.replace``d into place, so a reader never
  observes a half-written entry and two processes racing on the same key
  both leave a valid file (last writer wins; the entries are
  content-identical by construction).
* **Torn/corrupt entries are misses, not crashes.**  Every entry carries a
  magic header and a sha256 digest of its payload; a truncated, corrupted,
  or foreign file fails validation, is deleted, and reads as a miss — the
  caller just recompiles and rewrites it.
* **Bounded.**  ``max_entries``/``max_bytes`` caps are checked after every
  write and enforced by evicting the least-recently-used entries (recency
  = file mtime, refreshed on every hit), so a long-lived serve fleet
  cannot grow the directory without bound.  Seeing the directory means
  stat-ing every entry, so a writer counts its own writes from its last
  scan and rescans only when that count passes a cap or every
  :data:`RESCAN_WRITES` writes (which bounds how far other processes'
  entries can push the directory past the caps unseen).
* **Self-disabling when the disk is sick.**  Repeated consecutive ``put``
  failures (ENOSPC, a read-only directory, a vanished mount) trip a
  breaker: the disk level disables itself for the rest of the session —
  no more serialize+write attempts per compile — and reports why via
  ``info().disabled_reason`` (surfaced in ``Session.cache_info()`` and
  the serve front end's ``/v1/stats``).  One successful write resets the
  consecutive count, so a transient hiccup does not trip it.

Both ``get`` and ``put`` are fault-injection sites (``diskcache.get`` /
``diskcache.put`` — see :mod:`repro.reliability`): injected failures are
absorbed exactly like real ones (a failed read is a miss, a failed write
feeds the breaker), which is how the breaker semantics are tested.

Entries are versioned: :data:`ENTRY_MAGIC` changes whenever the serialized
form does, so caches written by an incompatible build read as misses
instead of unpickling garbage.

The same directory holds a second kind of entry: **code entries**
(:meth:`DiskCache.get_code` / :meth:`DiskCache.put_code`), the marshalled
code objects the codegen backend compiles from its emitted kernel
sources.  They share every property above — envelope, digest, atomic
write, corrupt-means-miss, the LRU caps, the breaker and the fault
sites — and differ only in their key (:func:`code_key`: ``code-``
followed by the sha256 of the source's sha256 and the interpreter's
bytecode magic), their envelope magic (:data:`CODE_MAGIC`) and their
payload (the bytecode magic, then :func:`marshal.dumps` of the code).
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import pickle
import tempfile
import threading
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..reliability import InjectedFault, fault_point

__all__ = [
    "CODE_MAGIC",
    "DiskCache",
    "DiskCacheInfo",
    "ENTRY_MAGIC",
    "RESCAN_WRITES",
    "code_key",
    "entry_key",
]

#: File magic + on-disk format version.  Bump when the entry layout or the
#: pickled object graph changes incompatibly.
ENTRY_MAGIC = b"FFDC0001"

#: Envelope magic of a code entry (a marshalled code object).
CODE_MAGIC = b"FFDK0001"

#: A writer rescans the cache directory at least once per this many of its
#: own writes (see :meth:`DiskCache._evict`).
RESCAN_WRITES = 32

_DIGEST_BYTES = 32  # sha256
_SUFFIX = ".ffc"


def entry_key(*parts: str) -> str:
    """The content-addressed key for one compile: sha256 over its inputs.

    Parameters
    ----------
    *parts:
        Canonical fingerprint strings, typically ``(program, schedule,
        pipeline, backend, hierarchy)``.  Same idiom as
        ``EinsumProgram.fingerprint``: a sha256 over a newline-joined
        textual rendering, so the key depends only on content.
    """
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def code_key(source_sha: str) -> str:
    """The disk key of the code object compiled from one emitted source.

    Parameters
    ----------
    source_sha:
        SHA-256 hex digest of the emitted kernel source.  The
        interpreter's bytecode magic (:data:`importlib.util.MAGIC_NUMBER`)
        is hashed in with it, so interpreters whose bytecode differs
        never share an entry.
    """
    return "code-" + entry_key(source_sha, importlib.util.MAGIC_NUMBER.hex())


def _unpickle_entry(payload: bytes) -> Optional[Dict[str, Any]]:
    try:
        entry = pickle.loads(payload)
    except Exception:
        return None
    return entry if isinstance(entry, dict) else None


def _unmarshal_code(payload: bytes) -> Optional[types.CodeType]:
    magic = importlib.util.MAGIC_NUMBER
    if not payload.startswith(magic):
        return None  # written by an interpreter with other bytecode
    try:
        code = marshal.loads(payload[len(magic) :])
    except (EOFError, ValueError, TypeError):
        return None
    return code if isinstance(code, types.CodeType) else None


@dataclass(frozen=True)
class DiskCacheInfo:
    """Snapshot of a disk cache's counters and occupancy."""

    hits: int
    misses: int
    writes: int
    corrupt: int
    evictions: int
    entries: int
    total_bytes: int
    put_failures: int = 0
    disabled_reason: Optional[str] = None

    def __str__(self) -> str:
        text = (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.writes} write(s), {self.corrupt} corrupt, "
            f"{self.evictions} evicted, {self.entries} entr(ies), "
            f"{self.total_bytes} B"
        )
        if self.disabled_reason:
            text += f", DISABLED ({self.disabled_reason})"
        return text


class DiskCache:
    """Content-addressed on-disk cache of compiled programs and kernels.

    Program entries (:meth:`get`/:meth:`put`) hold pickled compiled
    programs; code entries (:meth:`get_code`/:meth:`put_code`) hold the
    codegen backend's marshalled kernel code objects.  Both kinds share
    the directory, the caps, the counters and the breaker.

    Parameters
    ----------
    root:
        Cache directory (created if missing).  Multiple processes may
        share one directory; writes are atomic renames.
    max_entries:
        Entry-count cap; least-recently-used entries are evicted past it.
    max_bytes:
        Total-size cap in bytes, enforced the same way.
    put_failure_limit:
        Consecutive-``put``-failure count that trips the breaker and
        disables the disk level for this instance's lifetime (a
        successful write resets the count).

    Raises
    ------
    ValueError
        If either cap or the failure limit is not positive.
    """

    def __init__(
        self,
        root: str,
        max_entries: int = 1024,
        max_bytes: int = 256 * 1024 * 1024,
        put_failure_limit: int = 5,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        if put_failure_limit < 1:
            raise ValueError("put_failure_limit must be positive")
        self.root = os.path.abspath(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.put_failure_limit = put_failure_limit
        os.makedirs(self.root, exist_ok=True)
        # Guards the counters; file operations are individually atomic and
        # deliberately run outside any lock (other processes share the
        # directory, so a process-local lock cannot order them anyway).
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0
        self._evictions = 0
        self._put_failures = 0
        self._consecutive_put_failures = 0
        self._disabled_reason: Optional[str] = None
        # [entries, bytes] as of the last directory scan plus this
        # instance's writes since; None until the first scan.
        self._occupancy: Optional[List[int]] = None
        self._writes_since_scan = 0

    @property
    def disabled_reason(self) -> Optional[str]:
        """Why the breaker disabled this cache, or ``None`` while healthy."""
        with self._lock:
            return self._disabled_reason

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> str:
        """Absolute path of the entry file for ``key``."""
        return os.path.join(self.root, key + _SUFFIX)

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Load the entry stored under ``key``, or ``None`` on a miss.

        A torn or corrupt entry (bad magic, digest mismatch, unpicklable
        payload) counts as a miss: the file is removed and ``None`` is
        returned, so the caller recompiles instead of crashing.

        Returns
        -------
        dict or None
            The mapping passed to :meth:`put` (conventionally
            ``{"compiled": ..., "diagnostics": ..., "meta": ...}``).
        """
        return self._read(key, ENTRY_MAGIC, _unpickle_entry)

    def get_code(self, source_sha: str) -> Optional[types.CodeType]:
        """Load the code object compiled from the source ``source_sha``.

        Parameters
        ----------
        source_sha:
            SHA-256 hex digest of the emitted kernel source (see
            :func:`code_key`).

        Returns
        -------
        code or None
            The code object :meth:`put_code` stored, or ``None`` on a
            miss.  An entry that is torn, fails its digest, or was
            written by an interpreter with other bytecode is deleted and
            reads as a miss, exactly like a corrupt :meth:`get` entry.
        """
        return self._read(code_key(source_sha), CODE_MAGIC, _unmarshal_code)

    def _read(self, key: str, magic: bytes, decode: Callable[[bytes], Any]):
        """Validate and decode the entry under ``key`` (``None``: a miss)."""
        if self.disabled_reason is not None:
            with self._lock:
                self._misses += 1
            return None
        path = self.path_for(key)
        try:
            fault_point("diskcache.get", key=key)
            with open(path, "rb") as fh:
                blob = fh.read()
        except (
            FileNotFoundError,
            IsADirectoryError,
            PermissionError,
            InjectedFault,
        ):
            with self._lock:
                self._misses += 1
            return None
        payload = self._unwrap(blob, magic)
        value = decode(payload) if payload is not None else None
        if value is None:
            # Torn write or foreign file: drop it so the next writer
            # replaces it with a whole entry.
            self._remove(path)
            with self._lock:
                self._corrupt += 1
                self._misses += 1
            return None
        # Refresh recency for LRU eviction.  Best effort: a concurrent
        # eviction may have removed the file already.
        try:
            os.utime(path)
        except OSError:
            pass
        with self._lock:
            self._hits += 1
        return value

    @staticmethod
    def _unwrap(blob: bytes, magic: bytes) -> Optional[bytes]:
        """The payload of a whole entry with ``magic``, else ``None``."""
        header = len(magic) + _DIGEST_BYTES
        if len(blob) < header or not blob.startswith(magic):
            return None
        payload = blob[header:]
        if hashlib.sha256(payload).digest() != blob[len(magic) : header]:
            return None
        return payload

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------
    def put(self, key: str, entry: Dict[str, Any]) -> bool:
        """Store ``entry`` under ``key`` atomically; returns success.

        The blob is written to a temp file in the cache directory and
        renamed into place, so concurrent writers (other threads *and*
        other processes) never produce a torn entry — the digest a reader
        validates always covers a complete payload.  Serialization
        failures are swallowed: the disk cache is an accelerator, never a
        correctness dependency.

        Write failures (real ENOSPC/EROFS or an injected
        ``diskcache.put`` fault) feed the consecutive-failure breaker;
        past ``put_failure_limit`` of them in a row the disk level
        disables itself so callers stop paying a doomed serialize+write
        on every compile.
        """
        if self.disabled_reason is not None:
            return False
        try:
            payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        return self._write(key, ENTRY_MAGIC, payload)

    def put_code(self, source_sha: str, code: types.CodeType) -> bool:
        """Store the code object compiled from ``source_sha``; returns success.

        Parameters
        ----------
        source_sha:
            SHA-256 hex digest of the emitted source ``code`` came from.
        code:
            The code object; stored as the interpreter's bytecode magic
            followed by :func:`marshal.dumps` of it.  The write path and
            its failure handling are :meth:`put`'s.
        """
        if self.disabled_reason is not None:
            return False
        try:
            payload = importlib.util.MAGIC_NUMBER + marshal.dumps(code)
        except ValueError:
            return False
        return self._write(code_key(source_sha), CODE_MAGIC, payload)

    def _write(self, key: str, magic: bytes, payload: bytes) -> bool:
        """Atomically write one entry, then evict past the caps."""
        blob = magic + hashlib.sha256(payload).digest() + payload
        path = self.path_for(key)
        try:
            fault_point("diskcache.put", key=key)
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-" + key[:8] + "-", dir=self.root
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            except BaseException:
                self._remove(tmp)
                raise
        except (OSError, InjectedFault) as exc:
            self._note_put_failure(exc)
            return False
        with self._lock:
            self._writes += 1
            self._consecutive_put_failures = 0
        self._evict(len(blob))
        return True

    def _note_put_failure(self, exc: BaseException) -> None:
        """Count one failed write; trip the breaker past the limit."""
        with self._lock:
            self._put_failures += 1
            self._consecutive_put_failures += 1
            if (
                self._disabled_reason is None
                and self._consecutive_put_failures >= self.put_failure_limit
            ):
                self._disabled_reason = (
                    f"disabled after {self._consecutive_put_failures} "
                    f"consecutive write failure(s); last: "
                    f"{type(exc).__name__}: {exc}"
                )

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _entries(self) -> List[Tuple[float, int, str]]:
        """(mtime, size, path) for every entry file, oldest first."""
        out: List[Tuple[float, int, str]] = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return out
        for name in names:
            if not name.endswith(_SUFFIX):
                continue
            path = os.path.join(self.root, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue  # evicted by a concurrent process
            out.append((stat.st_mtime, stat.st_size, path))
        out.sort()
        return out

    def _evict(self, written: int) -> None:
        """Drop least-recently-used entries past the size/count caps.

        ``written`` is the size of the entry just written.  The scan
        stats every entry file, so it runs only when the running
        occupancy passes a cap or :data:`RESCAN_WRITES` writes have
        passed since the last one (entries other processes wrote are
        seen only by a scan).
        """
        with self._lock:
            occupancy = self._occupancy
            if occupancy is not None:
                occupancy[0] += 1
                occupancy[1] += written
                self._writes_since_scan += 1
                if (
                    occupancy[0] <= self.max_entries
                    and occupancy[1] <= self.max_bytes
                    and self._writes_since_scan < RESCAN_WRITES
                ):
                    return
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        while entries and (
            len(entries) > self.max_entries or total > self.max_bytes
        ):
            _, size, path = entries.pop(0)
            if self._remove(path):
                evicted += 1
            total -= size
        with self._lock:
            self._evictions += evicted
            self._occupancy = [len(entries), total]
            self._writes_since_scan = 0

    @staticmethod
    def _remove(path: str) -> bool:
        try:
            os.remove(path)
            return True
        except OSError:
            return False

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def info(self) -> DiskCacheInfo:
        """Counters plus current directory occupancy."""
        entries = self._entries()
        with self._lock:
            return DiskCacheInfo(
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                corrupt=self._corrupt,
                evictions=self._evictions,
                entries=len(entries),
                total_bytes=sum(size for _, size, _ in entries),
                put_failures=self._put_failures,
                disabled_reason=self._disabled_reason,
            )

    def clear(self) -> int:
        """Remove every entry file; returns how many were removed."""
        removed = 0
        for _, _, path in self._entries():
            if self._remove(path):
                removed += 1
        with self._lock:
            self._occupancy = None
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<DiskCache {self.root!r} ({self.info()})>"
