"""Content-addressed, process-shared on-disk artifact store.

Derived analysis structures — compiled simulation plans, packed reach
matrices, the global implication DB, detection pair records — are
expensive to build and pure functions of the netlist content.
:class:`ArtifactStore` keeps them on disk, addressed by a
content digest (see :meth:`~repro.circuit.netlist.Circuit.content_key`),
so repeated runs of the same netlist — in the same process, a later
process, or a concurrent one — load instead of rebuild.

Design rules:

* **Atomic writes.**  Every entry is written to a unique temporary file
  in the same directory and published with ``os.replace`` — readers
  never observe a partial entry, and two processes racing to publish the
  same key both succeed (last writer wins with identical bytes).
* **Versioned schemas.**  Each artifact kind carries a schema tag
  (:data:`SCHEMA_VERSIONS`) baked into both the file name and the
  serialized envelope; loading checks it, so a library upgrade that
  changes an artifact's layout silently invalidates old entries instead
  of deserializing garbage into the new code.
* **Corrupt-entry self-heal.**  A truncated or unreadable entry (torn
  disk write, version skew, bit rot) is deleted on first touch and
  reported as a miss — the caller rebuilds and republishes.
* **Size-bounded LRU eviction.**  ``max_bytes`` caps the store; when a
  write pushes the total over it, the least-recently-*used* entries go
  first (loads touch the file mtime).
* **One layout.**  Every entry is a flat buffer (``.rfb``,
  :mod:`repro.store.flatbuf`) written by its kind's codec in
  :mod:`repro.store.codecs`, so a warm load memory-maps the file and
  hands out zero-copy array views.  Files of kinds or layouts no codec
  reads any more (``.pkl`` bundles of older releases) are listed,
  evicted and cleared, but never opened: no current address names them.
* **Pin-while-mapped eviction safety.**  An entry whose mmap is
  still referenced by live array views is *pinned*: the LRU sweep skips
  it rather than unlinking a file a run is actively reading.  The pin is
  dropped automatically (``weakref.finalize`` on the mmap) when the last
  view dies.  Linux would keep the mapping alive across an unlink
  anyway; pinning additionally keeps the bytes on disk so a concurrent
  warm process still hits.

Counters (``hits`` / ``misses`` / ``stores`` / ``evictions`` /
``corrupt``) accumulate per instance; :meth:`stats` snapshots them for
the pipeline's cache trace event and the CLI summary line.
"""

from __future__ import annotations

import os
import time
import weakref
from pathlib import Path

#: Schema version per artifact kind.  Bump a kind's version whenever its
#: serialized layout changes; unknown kinds default to version 1.
SCHEMA_VERSIONS: dict[str, int] = {
    "simplan": 2,
    "csr-arrays": 1,
    "sink-reach": 2,
    "implication-db": 2,
    "packed-implication": 1,
    "expansion": 1,
    # 2: decide records of the backjumping ATPG search, whose
    # decisions/backtracks counts are smaller than the chronological
    # search's; inheriting a v1 record would differ from a full run.
    # 3: a record's hazard fields are one ``hazard`` entry, the verdict
    # with its two static bounds, in place of the per-mode hazard flag.
    # 4: the bundle is a flat buffer (``.rfb``) in place of a pickle.
    # 5: cone hashes digest array slices of the packed cone pass; a v4
    # record's hashes would never match.
    "pair-records": 5,
}

#: default store size bound: 1 GiB.
DEFAULT_MAX_BYTES = 1 << 30

_SUFFIX = ".rfb"


def schema_version(kind: str) -> int:
    """The current schema tag of one artifact kind."""
    return SCHEMA_VERSIONS.get(kind, 1)


def _unpin(pinned: dict[str, int], key: str) -> None:
    """Drop one pin reference (module-level so the store itself can die)."""
    count = pinned.get(key, 0)
    if count <= 1:
        pinned.pop(key, None)
    else:
        pinned[key] = count - 1


class ArtifactStore:
    """One on-disk artifact store rooted at ``root`` (created lazily)."""

    def __init__(
        self, root: str | Path, max_bytes: int = DEFAULT_MAX_BYTES
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0
        #: live-mmap pin counts per entry path (see module docstring).
        self._pinned: dict[str, int] = {}
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Addressing.
    # ------------------------------------------------------------------
    def address(self, kind: str, content_key: str, extra: str = "") -> str:
        """The store address of one artifact: content key plus salt.

        ``extra`` folds artifact parameters (e.g. an options fingerprint)
        into the address without the caller hashing them itself.
        """
        if extra:
            import hashlib

            return hashlib.sha256(
                f"{content_key}\x1f{extra}".encode()
            ).hexdigest()
        return content_key

    def _path(self, kind: str, address: str) -> Path:
        return (
            self.root / kind / f"{address}-v{schema_version(kind)}{_SUFFIX}"
        )

    # ------------------------------------------------------------------
    # Load / save.
    # ------------------------------------------------------------------
    def load(self, kind: str, address: str) -> object | None:
        """The stored artifact, or ``None`` on miss/corruption.

        A successful load touches the entry's mtime (the LRU clock); a
        corrupt entry is deleted (self-heal) and counted.  The artifact
        decodes zero-copy from an mmap of the entry, which stays pinned
        against LRU eviction while any decoded view is alive.
        """
        # Lazy: the codecs pull numpy; report-only callers skip it.
        from repro.store import codecs, flatbuf

        path = self._path(kind, address)
        try:
            view = flatbuf.read_file(path)
            payload = codecs.decode_view(kind, view)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Torn write, truncation, version skew: heal by deletion.
            self.corrupt += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        # Pin the entry for the mapping's lifetime.  The finalizer
        # closes over the pin dict, not the store, so an abandoned store
        # does not linger until its last view dies.
        key = str(path)
        self._pinned[key] = self._pinned.get(key, 0) + 1
        weakref.finalize(view.buffer, _unpin, self._pinned, key)
        try:
            now = time.time()
            os.utime(path, (now, now))
        except OSError:
            pass  # entry may have been evicted by a peer; the load stands
        self.hits += 1
        return payload

    def save(self, kind: str, address: str, payload: object) -> None:
        """Publish one artifact atomically, then enforce the size bound."""
        from repro.store.codecs import encode_payload

        path = self._path(kind, address)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = encode_payload(kind, payload)
        tmp = path.parent / (
            f".{path.name}.{os.getpid()}.{time.monotonic_ns()}.tmp"
        )
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            # A full or read-only store degrades to a no-op cache.
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stores += 1
        self._evict()

    # ------------------------------------------------------------------
    # Eviction and introspection.
    # ------------------------------------------------------------------
    def _entries(self) -> list[tuple[float, int, Path]]:
        """Every published entry as ``(mtime, size, path)``: each file of
        a kind directory but the in-flight temporaries (dot names)."""
        entries: list[tuple[float, int, Path]] = []
        if not self.root.is_dir():
            return entries
        for kind_dir in self.root.iterdir():
            if not kind_dir.is_dir():
                continue
            for path in kind_dir.iterdir():
                if path.name.startswith("."):
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue  # evicted by a peer mid-scan
                entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def total_bytes(self) -> int:
        """Current on-disk size of every published entry."""
        return sum(size for _, size, _ in self._entries())

    def _evict(self) -> None:
        """Delete least-recently-used entries until under ``max_bytes``.

        Entries whose mmap is pinned by live array views are skipped —
        evicting them would tear the backing file out from under a run
        in progress (and lose the bytes for concurrent warm processes).
        """
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return
        for _, size, path in sorted(entries):
            if self._pinned.get(str(path), 0) > 0:
                continue
            try:
                path.unlink()
            except OSError:
                continue  # already gone (peer eviction): size freed anyway
            self.evictions += 1
            total -= size
            if total <= self.max_bytes:
                break

    def stats(self) -> dict[str, int]:
        """Snapshot of the instance counters (for traces and the CLI)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }

    def usage(self) -> dict[str, dict[str, int]]:
        """Per-kind entry counts and byte totals (for ``repro cache``)."""
        usage: dict[str, dict[str, int]] = {}
        for _, size, path in self._entries():
            kind = path.parent.name
            bucket = usage.setdefault(kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        return usage

    def clear(self) -> tuple[int, int]:
        """Unlink every published entry; ``(entries, bytes)`` removed.

        Explicit clearing ignores pins: live mappings survive the unlink
        (the pages stay resident until the last view dies) — only the
        on-disk copy goes.
        """
        removed = 0
        freed = 0
        for _, size, path in self._entries():
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        return removed, freed
