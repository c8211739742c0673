"""Process-wide active-store registry.

:meth:`Circuit.derived <repro.circuit.netlist.Circuit.derived>` layers
the on-disk :class:`~repro.store.ArtifactStore` underneath its in-memory
cache *transparently* — call sites opt in with a ``persist`` kind and
never touch the store directly.  The seam between the two is this
module: one process-global active store, installed by the detector (from
``DetectorOptions.cache_dir``), the CLI, or the ``REPRO_CACHE_DIR``
environment variable, and absent by default (pure in-memory behaviour,
exactly as before the store existed).
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.store.artifact_store import DEFAULT_MAX_BYTES, ArtifactStore

_ACTIVE: ArtifactStore | None = None


def active_store() -> ArtifactStore | None:
    """The process's active artifact store, or ``None`` (store disabled)."""
    return _ACTIVE


def activate_store(
    target: str | Path | ArtifactStore,
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> ArtifactStore:
    """Install ``target`` as the process's active store and return it.

    Re-activating the same directory keeps the existing instance (and
    its counters); a different directory replaces it.
    """
    global _ACTIVE
    if isinstance(target, ArtifactStore):
        _ACTIVE = target
        return _ACTIVE
    root = Path(target)
    if _ACTIVE is None or _ACTIVE.root != root:
        _ACTIVE = ArtifactStore(root, max_bytes=max_bytes)
    return _ACTIVE


def deactivate_store() -> None:
    """Remove the active store (derived caches fall back to memory-only)."""
    global _ACTIVE
    _ACTIVE = None


def resolve_cache_dir(cache_dir: str | None) -> str | None:
    """An explicit ``cache_dir`` or the ``REPRO_CACHE_DIR`` fallback."""
    if cache_dir:
        return cache_dir
    return os.environ.get("REPRO_CACHE_DIR") or None


@contextmanager
def store_enabled(
    cache_dir: str | Path | None,
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> Iterator[ArtifactStore | None]:
    """Scope an active store to a ``with`` block (``None`` dir = no-op).

    Restores the previously active store (or none) on exit, so nested
    runs with different cache directories compose.  A directory that
    cannot be created (say, a path under a regular file) prints one
    ``warning:`` line on stderr and runs the block without a store.
    """
    if cache_dir is None:
        yield _ACTIVE
        return
    previous = _ACTIVE
    store: ArtifactStore | None
    try:
        store = activate_store(cache_dir, max_bytes=max_bytes)
    except OSError as exc:
        print(f"warning: cache directory {cache_dir} is unusable ({exc}); "
              f"running without a store", file=sys.stderr)
        deactivate_store()
        store = None
    try:
        yield store
    finally:
        globals()["_ACTIVE"] = previous
