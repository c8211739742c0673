"""Per-kind flat-buffer codecs: roundtrip fidelity and envelope checks.

The strongest cheap invariant is encode stability: for every kind,
``encode(decode(encode(x))) == encode(x)`` byte for byte — any field a
codec dropped or mangled would perturb the second encoding.  Each kind
additionally gets targeted behavioral checks against the original
artifact.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import build_implication_db
from repro.atpg.packed_implication import packed_plan
from repro.circuit.csr import csr_arrays
from repro.circuit.library import s27
from repro.circuit.timeframe import expand_cached
from repro.circuit.topology import build_sink_reach
from repro.logic.simplan import compiled_plan
from repro.store import SCHEMA_VERSIONS
from repro.store.codecs import _CODECS, decode_payload, encode_payload
from repro.store.flatbuf import FlatBufferError


def _roundtrip(kind, artifact):
    blob = encode_payload(kind, artifact)
    decoded = decode_payload(kind, blob)
    assert encode_payload(kind, decoded) == blob, (
        f"{kind}: re-encoding the decoded artifact changed bytes"
    )
    return decoded


def test_kind_registry():
    """Every kind the store versions has a codec: one layout for all."""
    assert set(_CODECS) == set(SCHEMA_VERSIONS) == {
        "simplan", "csr-arrays", "sink-reach", "packed-implication",
        "implication-db", "expansion", "pair-records",
    }


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
    # A plan is its lowered records only, built or decoded: no SimPlan
    # handle rides along.
    assert vars(decoded) == vars(original)
    assert not hasattr(original, "sim")


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


def _bundle(circuit, **options):
    from repro.core.detector import DetectorOptions, MultiCycleDetector
    from repro.core.incremental import result_bundle

    detector_options = DetectorOptions(**options)
    result = MultiCycleDetector(circuit, detector_options).run()
    return result_bundle(result, detector_options)


def _hand_built_bundle():
    """Fields no generated bundle of the suite carries: a witness whose
    keys are ints, and both delay-filter outcomes."""
    from tests.core.bundle_oracle import from_records

    def record(source, delay_safe, witness):
        return {
            "source": source, "sink": "FF2",
            "classification": "multi-cycle", "stage": "atpg",
            "cases": [
                {"a": 0, "b": 1, "outcome": "violated", "decisions": 3,
                 "backtracks": 1, "witness": witness},
                {"a": 1, "b": 0, "outcome": "contradiction", "decisions": 0,
                 "backtracks": 0, "witness": None},
            ],
            "launch": "l" * 64, "capture": "c" * 64,
            "hazard": {"verdict": "glitch-proven", "delay_safe": delay_safe,
                       "sensitize_flagged": True, "cosensitize_flagged": True},
        }

    return from_records({
        "circuit": "hand", "engine": "dalg", "frames": 2,
        "fingerprint": "f" * 64, "hazard_mode": "exact",
        "hazard_fingerprint": "h" * 64,
        "records": [
            record("FF1", True, {7: 1, 3: 0, 12: 1}),
            record("FF3", False, {}),
        ],
    })


def test_pair_records_roundtrip(fig1):
    from repro.bench_gen.suite import spec_by_name
    from repro.bench_gen.synth import generate
    from tests.core.bundle_oracle import from_records, record_view

    exact = _bundle(generate(spec_by_name("syn330")), hazard_check="exact")
    assert {
        r["hazard"] is None for r in record_view(exact)["records"]
    } == {True, False}
    empty = from_records({**record_view(_bundle(fig1)), "records": []})
    for bundle in (_bundle(fig1), exact, _hand_built_bundle(), empty):
        decoded = _roundtrip("pair-records", bundle)
        assert decoded == bundle
        # key order too
        assert json.dumps(record_view(decoded)) == json.dumps(
            record_view(bundle)
        )
    records = record_view(
        _roundtrip("pair-records", _hand_built_bundle())
    )["records"]
    witness = records[0]["cases"][0]["witness"]
    assert witness == {7: 1, 3: 0, 12: 1}
    assert all(type(node) is int for node in witness)
    assert records[1]["cases"][0]["witness"] == {}
    assert records[0]["cases"][1]["witness"] is None
    assert [r["hazard"]["delay_safe"] for r in records] == [True, False]

    # One object per distinct name and cone hash.
    records = record_view(_roundtrip("pair-records", exact))["records"]
    for fields in (("source", "sink"), ("launch", "capture")):
        values = [r[field] for r in records for field in fields]
        assert len({id(value) for value in values}) == len(set(values))
