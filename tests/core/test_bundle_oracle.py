"""The columnar pair-record bundle against the record-dict oracle.

``tests/core/bundle_oracle.py`` keeps the record-dict bundle, its codec
and its per-record inheritance.  Over random circuits, with the hazard
pass off and exact, with and without the random filter (without it the
ATPG search's VIOLATED cases carry witnesses), the columns must read
back as the oracle's records, encode to the oracle encoder's bytes,
decode and re-encode to the same bytes, and inherit into the same
``pair_records`` after an ECO edit.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.incremental import incremental_detect, result_bundle
from repro.store.artifact_store import schema_version
from repro.store.codecs import decode_payload, encode_payload
from repro.store.flatbuf import pack
from tests.core.bundle_oracle import (
    encode_records,
    oracle_incremental_detect,
    record_bundle,
    record_view,
)
from tests.core.test_incremental import _clone, eco_edit
from tests.strategies import random_sequential_circuit, seeds

_OPTIONS = {
    "off": DetectorOptions(),
    "exact": DetectorOptions(hazard_check="exact"),
    # Without the random filter the ATPG search decides every
    # single-cycle pair, and its VIOLATED cases carry witnesses.
    "off-witnesses": DetectorOptions(use_random_sim=False),
    "exact-witnesses": DetectorOptions(
        use_random_sim=False, hazard_check="exact"
    ),
}


def _oracle_bytes(records: dict) -> bytes:
    meta, arrays = encode_records(records)
    return pack(
        {"kind": "pair-records", "schema": schema_version("pair-records"),
         "artifact": meta},
        arrays,
    )


@pytest.mark.parametrize("mode", sorted(_OPTIONS))
@given(seeds)
def test_columns_read_back_as_oracle_records(mode, seed):
    """The record view of the columns is ``pair_records()`` plus the cone
    and hazard fields, and both encoders write the same bytes."""
    options = _OPTIONS[mode]
    result = MultiCycleDetector(random_sequential_circuit(seed), options).run()
    bundle = result_bundle(result, options)
    records = record_bundle(result, options)
    view = record_view(bundle)
    assert view == records
    assert json.dumps(view) == json.dumps(records)  # key order too
    blob = encode_payload("pair-records", bundle)
    assert blob == _oracle_bytes(records)
    decoded = decode_payload("pair-records", blob)
    assert decoded == bundle
    assert encode_payload("pair-records", decoded) == blob


def test_sweep_reaches_witnesses():
    """The sweeps reach witnessed cases: without the random filter most
    random circuits have a VIOLATED case whose witness the columns keep."""
    options = _OPTIONS["off-witnesses"]
    witnessed = 0
    for seed in range(10):
        result = MultiCycleDetector(
            random_sequential_circuit(seed), options
        ).run()
        bundle = result_bundle(result, options)
        witnessed += len(bundle.arrays["witnessed"]) > 0
        assert len(bundle.arrays["witnessed"]) == sum(
            case.witness is not None
            for pair in result.pair_results for case in pair.cases
        )
    assert witnessed >= 3


@pytest.mark.parametrize("mode", sorted(_OPTIONS))
@given(seeds, st.sampled_from([None, 0, 1, 2]))
def test_column_inheritance_matches_record_inheritance(mode, seed, kind):
    """After a gate flip, a fanin rewire, a DFF insertion or no edit, the
    incremental stage over the columns and the oracle's record-dict
    inheritance give the same records, counts and hazard verdicts."""
    options = _OPTIONS[mode]
    base = random_sequential_circuit(seed)
    edited = _clone(base) if kind is None else eco_edit(base, seed, kind)
    assume(edited is not None)
    bundle = result_bundle(MultiCycleDetector(base, options).run(), options)
    columns = incremental_detect(edited, options, bundle)
    oracle = oracle_incremental_detect(_clone(edited), options, bundle)
    assert json.dumps(columns.pair_records()) == (
        json.dumps(oracle.pair_records())
    )
    assert columns.metrics["incremental"] == oracle.metrics["incremental"]
    assert [
        (v.pair, v.verdict, v.decided_by, v.delay_safe,
         v.sensitize_flagged, v.cosensitize_flagged)
        for v in columns.hazard_verdicts
    ] == [
        (v.pair, v.verdict, v.decided_by, v.delay_safe,
         v.sensitize_flagged, v.cosensitize_flagged)
        for v in oracle.hazard_verdicts
    ]
