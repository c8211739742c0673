"""Shared-memory backplane: publish/attach roundtrips, fork and spawn.

The worker pool's contract is that an attached worker sees *exactly*
the artifacts the parent published — same expansion frame maps, same
CSR adjacency, same packed plan — and that the adopted artifacts are
what ``Circuit.derived`` then hands to engine preparation (identity,
not equality: adoption must pre-empt a rebuild).  The spawn-context
test is the satellite for start methods that pickle the handle instead
of inheriting it.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.atpg.packed_implication import packed_plan
from repro.circuit.csr import csr_arrays
from repro.circuit.library import fig1_circuit
from repro.circuit.timeframe import expand_cached
from repro.store.backplane import (
    AttachedBackplane,
    BackplaneHandle,
    PublishedBackplane,
    publish,
)


def _publish_fig1():
    circuit = fig1_circuit()
    expansion = expand_cached(circuit, frames=2)
    published = publish([
        ("expansion", expansion),
        ("csr-arrays", csr_arrays(expansion.comb)),
        ("packed-implication", packed_plan(expansion.comb)),
    ])
    return circuit, expansion, published


def test_publish_layout():
    _, _, published = _publish_fig1()
    try:
        assert published.kinds == (
            "expansion", "csr-arrays", "packed-implication"
        )
        assert published.nbytes > 0
        for _, offset, nbytes in published.handle.entries:
            assert offset % 64 == 0
            assert nbytes > 0
    finally:
        published.close_and_unlink()


def test_attach_and_adopt_in_process():
    circuit, expansion, published = _publish_fig1()
    try:
        attached = AttachedBackplane(published.handle)
        assert attached.kinds == published.kinds
        assert attached.shared_learned is None
        fresh = fig1_circuit()
        adopted = attached.adopt(fresh)
        assert adopted.frames == expansion.frames
        assert adopted.ff_at == expansion.ff_at
        assert adopted.pi_at == expansion.pi_at
        # Adoption pre-empts the rebuild: derived() must now return the
        # decoded shared artifacts themselves, not fresh copies.
        assert csr_arrays(adopted.comb) is attached.artifacts["csr-arrays"]
        assert (
            packed_plan(adopted.comb)
            is attached.artifacts["packed-implication"]
        )
    finally:
        published.close_and_unlink()


def test_adopt_rejects_mismatched_circuit():
    from repro.circuit.library import s27
    from repro.store.flatbuf import FlatBufferError

    _, _, published = _publish_fig1()
    try:
        attached = AttachedBackplane(published.handle)
        with pytest.raises(FlatBufferError):
            attached.adopt(s27())
    finally:
        published.close_and_unlink()


def test_close_and_unlink_is_idempotent():
    _, _, published = _publish_fig1()
    published.close_and_unlink()
    published.close_and_unlink()  # second call is a no-op
    with pytest.raises(FileNotFoundError):
        AttachedBackplane(published.handle)


def test_attach_bad_name_raises():
    with pytest.raises(FileNotFoundError):
        AttachedBackplane(BackplaneHandle("repro-no-such-block", 0, ()))


def _spawn_probe(handle: BackplaneHandle, queue) -> None:
    """Spawn-context child: attach, adopt, report what it decoded."""
    attached = AttachedBackplane(handle)
    expansion = attached.adopt(fig1_circuit())
    csr = attached.artifacts["csr-arrays"]
    queue.put({
        "kinds": list(attached.kinds),
        "frames": expansion.frames,
        "ff_at": expansion.ff_at,
        "comb_nodes": expansion.comb.num_nodes,
        "types_sum": sum(bytearray(csr.types)),
    })


def test_spawn_context_attach_roundtrip():
    """A spawn-started worker (handle pickled, nothing inherited) attaches."""
    circuit, expansion, published = _publish_fig1()
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    try:
        proc = ctx.Process(
            target=_spawn_probe, args=(published.handle, queue)
        )
        proc.start()
        report = queue.get(timeout=60)
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert report["kinds"] == list(published.kinds)
        assert report["frames"] == expansion.frames
        assert report["ff_at"] == expansion.ff_at
        assert report["comb_nodes"] == expansion.comb.num_nodes
        local = csr_arrays(expansion.comb)
        assert report["types_sum"] == sum(bytearray(local.types))
    finally:
        published.close_and_unlink()


def test_published_backplane_cleanup_on_publish_failure():
    """A codec error mid-publish must not leak the shared block."""
    with pytest.raises(Exception):
        publish([("simplan", object())])  # not a SimPlan: encoder raises


def test_publish_empty_is_valid():
    published = publish([])
    try:
        assert published.kinds == ()
        assert isinstance(published, PublishedBackplane)
        attached = AttachedBackplane(published.handle)
        assert attached.kinds == ()
    finally:
        published.close_and_unlink()
