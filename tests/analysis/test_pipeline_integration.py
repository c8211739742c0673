"""Analysis layer ↔ detection pipeline: the PR's acceptance invariants.

* ``--lint off`` and ``--lint warn`` produce byte-identical pair records
  on an accepted circuit (lint only validates, never rewrites);
* with the implication DB the per-pair classifications are unchanged and
  the implication stage proves at least as many pairs as without it;
* the DB's stats surface on the result for observability.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs
from repro.core.result import Classification, Stage

CIRCUITS = ["fig1", "s27_circuit", "shift4", "gray3"]


def _records(circuit, **options) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = detect_multi_cycle_pairs(circuit, DetectorOptions(**options))
    return json.dumps(result.pair_records(), sort_keys=True)


@pytest.mark.parametrize("fixture", CIRCUITS)
def test_lint_modes_preserve_pair_records(fixture, request):
    circuit = request.getfixturevalue(fixture)
    assert _records(circuit, lint="off") == _records(circuit, lint="warn")


@pytest.mark.parametrize("fixture", CIRCUITS)
def test_implication_db_preserves_classifications(fixture, request):
    circuit = request.getfixturevalue(fixture)
    base = detect_multi_cycle_pairs(circuit, DetectorOptions())
    with_db = detect_multi_cycle_pairs(
        circuit, DetectorOptions(implication_db=True)
    )

    def verdicts(result):
        names = result.circuit.names
        return {
            (names[p.pair.source], names[p.pair.sink]): p.classification
            for p in result.pair_results
        }

    assert verdicts(base) == verdicts(with_db)


@pytest.mark.parametrize("fixture", CIRCUITS)
def test_implication_db_proves_at_least_as_many(fixture, request):
    circuit = request.getfixturevalue(fixture)

    def implication_proved(result):
        return sum(
            1
            for p in result.pair_results
            if p.stage is Stage.IMPLICATION
            and p.classification is not Classification.UNDECIDED
        )

    base = detect_multi_cycle_pairs(circuit, DetectorOptions())
    with_db = detect_multi_cycle_pairs(
        circuit, DetectorOptions(implication_db=True)
    )
    assert implication_proved(with_db) >= implication_proved(base)


def test_db_stats_surface_on_result(fig1):
    result = detect_multi_cycle_pairs(
        fig1, DetectorOptions(implication_db=True, use_random_sim=False)
    )
    db = result.metrics["implication_db"]
    assert db["nodes"] > 0
    assert db["edges"] >= db["keys"]
    off = detect_multi_cycle_pairs(fig1, DetectorOptions())
    assert "implication_db" not in off.metrics


def test_lint_strict_rejects_circuit_with_warnings():
    from repro.analysis import LintError
    from repro.circuit.gates import GateType
    from repro.circuit.netlist import Circuit

    c = Circuit("warny")
    a = c.add_node(GateType.INPUT, (), "a")
    g = c.add_node(GateType.NOT, (a,), "g")
    c.add_node(GateType.AND, (a, g), "dangling")
    c.add_node(GateType.DFF, (g,), "ff")
    c.add_node(GateType.OUTPUT, (g,), "po")
    with pytest.raises(LintError):
        detect_multi_cycle_pairs(c, DetectorOptions(lint="strict"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = detect_multi_cycle_pairs(c, DetectorOptions(lint="warn"))
    assert result is not None


def test_db_works_with_parallel_workers(fig1):
    serial = _records(fig1, implication_db=True)
    parallel = _records(fig1, implication_db=True, workers=2)
    assert serial == parallel
