"""Content-addressed on-disk artifact store (``repro.store``).

The caching seam behind :meth:`Circuit.derived
<repro.circuit.netlist.Circuit.derived>`: expensive derived artifacts
(compiled simulation plans, packed reach matrices, the implication DB,
detection pair records) are addressed by the
circuit's content digest and shared across processes through an
atomically-written, LRU-bounded, self-healing store directory.  See
:mod:`repro.store.artifact_store` for the on-disk format and
:mod:`repro.store.runtime` for process-wide activation.
"""

from repro.store.artifact_store import (
    DEFAULT_MAX_BYTES,
    SCHEMA_VERSIONS,
    ArtifactStore,
    schema_version,
)
from repro.store.runtime import (
    activate_store,
    active_store,
    deactivate_store,
    resolve_cache_dir,
    store_enabled,
)

__all__ = [
    "ArtifactStore",
    "DEFAULT_MAX_BYTES",
    "SCHEMA_VERSIONS",
    "activate_store",
    "active_store",
    "deactivate_store",
    "resolve_cache_dir",
    "schema_version",
    "store_enabled",
]
