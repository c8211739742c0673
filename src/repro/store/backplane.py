"""Shared-memory backplane: publish derived artifacts once, attach N times.

The decision pool used to ship each worker a pickled circuit plus the
2-frame expansion, and every worker then *rebuilt* its own private
CsrArrays / PackedPlan — so worker spawn cost and aggregate
peak RSS scaled with the worker count.  The backplane inverts that: the
parent encodes each numpy-heavy artifact with the same flat-buffer
codecs the on-disk store uses (:mod:`repro.store.codecs`), lays the
blobs out 64-byte aligned in one ``multiprocessing.shared_memory``
block, and ships only the tiny :class:`BackplaneHandle` (name + offsets)
through the worker initializer.  Each worker attaches the block and
decodes zero-copy views — the big arrays live in shared pages, mapped
once, regardless of N.

Lifetime rules:

* The parent (:class:`PublishedBackplane`) owns the block: it closes and
  unlinks it when the pool shuts down.  On Linux the mapping survives
  the unlink, so a worker mid-decode is never torn.
* A worker (:class:`AttachedBackplane`) never unlinks.  Its decoded
  arrays keep the underlying mmap alive through numpy's ``base`` chain;
  the attachment object itself just needs to outlive ``decode`` — the
  worker main loop keeps it in scope for the process lifetime.
* Both sides share the parent's ``resource_tracker`` (fork inherits it,
  spawn ships its fd), so the attach-side registration dedups against
  the create-side one and the parent's unlink retires it — no leaked
  shared-memory warnings at exit.

Publishing and attaching are both best-effort at the call sites: a
failed publish (e.g. ``/dev/shm`` exhausted) or a failed attach degrades
to the pre-backplane behaviour — workers rebuild from the pickled
circuit — without changing any verdict.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

from repro.store.codecs import decode_payload, encode_payload
from repro.store.flatbuf import ALIGN


def _align(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


class BackplaneHandle(NamedTuple):
    """What workers receive: the block name and its table of contents."""

    #: ``multiprocessing.shared_memory`` block name.
    name: str
    #: total payload bytes in the block.
    size: int
    #: per-artifact ``(kind, offset, nbytes)`` rows, offsets 64-aligned.
    entries: tuple[tuple[str, int, int], ...]


class PublishedBackplane:
    """Parent-side owner of one published shared-memory block."""

    def __init__(self, handle: BackplaneHandle, shm: Any) -> None:
        self.handle = handle
        self._shm: Any = shm

    @property
    def kinds(self) -> tuple[str, ...]:
        """Artifact kinds in the block, in publication order."""
        return tuple(kind for kind, _, _ in self.handle.entries)

    @property
    def nbytes(self) -> int:
        """Published payload size (for the trace event)."""
        return self.handle.size

    def close_and_unlink(self) -> None:
        """Release the block (idempotent; mapped workers are unaffected)."""
        shm = self._shm
        self._shm = None
        if shm is None:
            return
        try:
            shm.close()
        except (BufferError, OSError):
            pass
        try:
            shm.unlink()
        except (FileNotFoundError, OSError):
            pass


def publish(artifacts: Sequence[tuple[str, Any]]) -> PublishedBackplane:
    """Encode ``(kind, payload)`` pairs into one fresh shared block.

    Raises on failure (out of shared memory, codec error) — callers
    treat publishing as best-effort and fall back to pickled shipping.
    """
    from multiprocessing import shared_memory

    blobs = [(kind, encode_payload(kind, payload)) for kind, payload in artifacts]
    entries: list[tuple[str, int, int]] = []
    offset = 0
    for kind, blob in blobs:
        offset = _align(offset)
        entries.append((kind, offset, len(blob)))
        offset += len(blob)
    shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
    try:
        for (_, start, nbytes), (_, blob) in zip(entries, blobs):
            shm.buf[start: start + nbytes] = blob
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    handle = BackplaneHandle(shm.name, offset, tuple(entries))
    return PublishedBackplane(handle, shm)


class AttachedBackplane:
    """Worker-side view of a published block: decode, adopt, reuse.

    Decoding happens eagerly in ``__init__`` so an unreadable block
    raises before the worker reports ready (the caller falls back to a
    rebuild).  Keep the instance alive while its artifacts are in use —
    it anchors the shared mapping alongside numpy's ``base`` chain.
    """

    def __init__(self, handle: BackplaneHandle) -> None:
        from multiprocessing import shared_memory

        shm: Any = shared_memory.SharedMemory(name=handle.name)
        # The decoded views alias this mapping for the process lifetime;
        # the destructor's close() would raise (and log) BufferError at
        # interpreter teardown while they still exist.  Unmapping is the
        # process exit's job — make close a no-op on this instance.
        shm.close = lambda: None
        self._shm = shm
        buf = self._shm.buf
        self.artifacts: dict[str, Any] = {}
        for kind, start, nbytes in handle.entries:
            self.artifacts[kind] = decode_payload(
                kind, buf[start: start + nbytes]
            )

    @property
    def kinds(self) -> tuple[str, ...]:
        """Artifact kinds decoded from the block."""
        return tuple(self.artifacts)

    @property
    def shared_learned(self) -> Any:
        """The shared implication DB, when one was published."""
        return self.artifacts.get("implication-db")

    def adopt(self, circuit: Any) -> Any:
        """Weld the decoded artifacts onto ``circuit``'s derived caches.

        Returns the re-attached
        :class:`~repro.circuit.timeframe.TimeFrameExpansion` (or ``None``
        when the block carries no expansion).  The expansion's comb
        circuit adopts the decoded CSR arrays and packed plan under the
        keys ``Circuit.derived`` builds them for, so the worker's engine
        preparation finds shared views instead of rebuilding.
        """
        detached = self.artifacts.get("expansion")
        if detached is None:
            return None
        expansion = detached.attach(circuit)
        comb = expansion.comb
        for kind in ("csr-arrays", "packed-implication"):
            artifact = self.artifacts.get(kind)
            if artifact is not None:
                comb.adopt_derived(kind, artifact)
        return expansion
