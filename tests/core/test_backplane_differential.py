"""Backplane differential: pair records byte-identical, auto vs off.

The shared-memory backplane is pure transport — workers that attach
decode the *same* expansion/CSR/PackedPlan the parent built, so
for any circuit and any option mix ``pair_records()`` must be
byte-identical between ``backplane="auto"``, ``backplane="off"``
(private per-worker rebuilds) and the serial staged reference flow of
``tests/core/staged_oracle.py``.  When a pool did publish, every worker
must have attached without touching the artifact store.
"""

from __future__ import annotations

import json

from hypothesis import given, settings

from repro.circuit.library import fig1_circuit, s27
from repro.core.detector import DetectorOptions, MultiCycleDetector

from tests.core.pool_helpers import forced_pool
from tests.core.staged_oracle import staged_detect
from tests.strategies import random_sequential_circuit, seeds


def _run(circuit, unit_pairs=None, **kw):
    options = DetectorOptions(workers=2, **kw)
    with forced_pool(unit_pairs):
        return MultiCycleDetector(circuit, options).run()


def _records(result):
    return json.dumps(result.pair_records(), sort_keys=True)


def _assert_identical(circuit, unit_pairs=None, **kw):
    auto = _run(circuit, unit_pairs, backplane="auto", **kw)
    off = _run(circuit, unit_pairs, backplane="off", **kw)
    staged = staged_detect(circuit, DetectorOptions(**kw))
    assert _records(auto) == _records(off) == _records(staged)
    assert "backplane" not in off.metrics
    summary = auto.metrics.get("backplane")
    if summary is not None:  # None when the pool auto-fell back to serial
        assert summary["attached"] == summary["workers"]
        assert summary["worker_store_misses"] == 0


@given(seeds)
@settings(max_examples=6)
def test_backplane_matches_staged(seed):
    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=20)
    _assert_identical(circuit)


@given(seeds)
@settings(max_examples=6)
def test_backplane_matches_streaming(seed):
    """Two-pair units: many queue round trips per run."""
    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=20)
    _assert_identical(circuit, unit_pairs=2)


@given(seeds)
@settings(max_examples=4)
def test_backplane_matches_with_implication_db(seed):
    """implication-db rides the backplane as the shared learned table."""
    circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=16)
    _assert_identical(circuit, implication_db=True)


def test_backplane_matches_on_paper_circuits():
    for circuit in (fig1_circuit(), s27()):
        _assert_identical(circuit)
        _assert_identical(circuit, unit_pairs=2)
        _assert_identical(circuit, implication_db=True)


def test_backplane_publishes_on_paper_circuit():
    """fig1 with a forced pool: the summary proves attach replaced rebuild."""
    result = _run(fig1_circuit(), backplane="auto")
    summary = result.metrics["backplane"]
    assert summary["workers"] == 2
    assert summary["attached"] == 2
    assert summary["worker_store_misses"] == 0
    # The packed plan is lowered from the CSR arrays: no SimPlan ships.
    assert summary["kinds"] == [
        "expansion", "csr-arrays", "packed-implication"
    ]
    assert summary["bytes"] > 0
    assert summary["spawn_seconds_max"] >= 0.0
    assert summary["worker_rss_max_kb"] > 0


def test_backplane_ships_the_implication_db_when_used():
    result = _run(fig1_circuit(), backplane="auto", implication_db=True)
    summary = result.metrics["backplane"]
    assert summary["kinds"] == [
        "expansion", "csr-arrays", "packed-implication", "implication-db"
    ]
    assert summary["attached"] == summary["workers"] == 2


def test_backplane_off_never_publishes():
    result = _run(fig1_circuit(), backplane="off")
    assert "backplane" not in result.metrics
