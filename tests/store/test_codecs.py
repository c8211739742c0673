"""Per-kind flat-buffer codecs: roundtrip fidelity and envelope checks.

The strongest cheap invariant is encode stability: for every kind,
``encode(decode(encode(x))) == encode(x)`` byte for byte — any field a
codec dropped or mangled would perturb the second encoding.  Each kind
additionally gets targeted behavioral checks against the original
artifact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import build_implication_db
from repro.atpg.packed_implication import packed_plan
from repro.circuit.csr import csr_arrays
from repro.circuit.library import s27
from repro.circuit.timeframe import expand_cached
from repro.circuit.topology import build_sink_reach
from repro.logic.simplan import compiled_plan
from repro.store.codecs import (
    FLAT_KINDS,
    decode_payload,
    encode_payload,
    is_flat_kind,
)
from repro.store.flatbuf import FlatBufferError


def _roundtrip(kind, artifact):
    blob = encode_payload(kind, artifact)
    decoded = decode_payload(kind, blob)
    assert encode_payload(kind, decoded) == blob, (
        f"{kind}: re-encoding the decoded artifact changed bytes"
    )
    return decoded


def test_kind_registry():
    assert FLAT_KINDS == frozenset({
        "simplan", "csr-arrays", "sink-reach",
        "packed-implication", "implication-db", "expansion",
    })
    assert is_flat_kind("simplan")
    assert not is_flat_kind("sweep-report")


def test_envelope_rejects_wrong_kind(fig1):
    blob = encode_payload("csr-arrays", csr_arrays(fig1))
    with pytest.raises(FlatBufferError):
        decode_payload("simplan", blob)


def test_simplan_roundtrip(fig1):
    plan = compiled_plan(fig1)
    decoded = _roundtrip("simplan", plan)
    assert decoded.num_nodes == plan.num_nodes
    assert decoded.buffer_rows == plan.buffer_rows
    assert decoded.num_batches == plan.num_batches
    assert decoded.circuit_version == plan.circuit_version
    assert len(decoded.levels) == len(plan.levels)


def test_csr_arrays_roundtrip(fig1):
    original = csr_arrays(fig1)
    decoded = _roundtrip("csr-arrays", original)
    assert decoded.fanins == original.fanins
    assert decoded.fanouts == original.fanouts
    np.testing.assert_array_equal(decoded.types, original.types)
    np.testing.assert_array_equal(decoded.levels_np, original.levels_np)


def test_sink_reach_roundtrip():
    circuit = s27()
    original = build_sink_reach(circuit)
    decoded = _roundtrip("sink-reach", original)
    assert decoded.dffs == original.dffs
    assert decoded.blocked == original.blocked
    np.testing.assert_array_equal(decoded.rows, original.rows)


def test_packed_implication_roundtrip(fig1):
    comb = expand_cached(fig1, frames=2).comb
    original = packed_plan(comb)
    decoded = _roundtrip("packed-implication", original)
    assert decoded.gates == original.gates
    assert decoded.consumers == original.consumers
    assert decoded.driver == original.driver
    assert decoded.preset1 == original.preset1
    assert decoded.preset0 == original.preset0
    # The compiled SimPlan is not shipped: decoded plans carry None and
    # nothing downstream reads it after construction.
    assert decoded.sim is None


def test_implication_db_roundtrip(fig1):
    comb = expand_cached(fig1, frames=2).comb
    original = build_implication_db(comb)
    decoded = _roundtrip("implication-db", original)
    assert decoded.num_nodes == original.num_nodes
    assert list(decoded.offsets) == list(original.offsets)
    assert list(decoded.flat) == list(original.flat)
    assert decoded.impossible == original.impossible


def test_expansion_roundtrip(fig1):
    original = expand_cached(fig1, frames=2)
    blob = encode_payload("expansion", original)
    detached = decode_payload("expansion", blob)
    attached = detached.attach(fig1)
    # Encode stability holds once re-attached (the encoder reads the
    # sequential circuit the detached form deliberately does not carry).
    assert encode_payload("expansion", attached) == blob
    assert attached.frames == original.frames
    assert attached.ff_at == original.ff_at
    assert attached.pi_at == original.pi_at
    assert attached.po_at == original.po_at
    comb = attached.comb
    assert comb.num_nodes == original.comb.num_nodes
    assert comb.names == original.comb.names
    assert [tuple(f) for f in comb.fanins] == [
        tuple(f) for f in original.comb.fanins
    ]
    assert list(comb.types) == list(original.comb.types)


def test_expansion_attach_rejects_wrong_circuit(fig1):
    detached = decode_payload(
        "expansion", encode_payload("expansion", expand_cached(fig1, frames=2))
    )
    with pytest.raises(FlatBufferError):
        detached.attach(s27())
