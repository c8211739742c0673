"""Experiments F1-F4 — the paper's illustrative figures as benchmarks.

* F1/F2: the Fig. 1 example end to end and the Fig. 2 implication run
  (values asserted to match the paper's narrative),
* F3: the Fig. 3 mapped circuit's hazard detection,
* F4: the Fig. 4 sensitization/co-sensitization gap.
"""

from __future__ import annotations

from repro.circuit.library import fig1_circuit, fig3_circuit, fig4_fragment
from repro.circuit.timeframe import expand, expand_cached
from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs
from repro.core.sensitization import (
    PathSearchOutcome,
    SensitizationMode,
    find_sensitizable_path,
)
from repro.atpg.implication import ImplicationEngine
from repro.logic.values import ONE, ZERO

from conftest import record_report


def test_fig1_detection(benchmark):
    """F1: 9 connected pairs, 5 multi-cycle — the Section 4.2 numbers."""
    circuit = fig1_circuit()
    result = benchmark(detect_multi_cycle_pairs, circuit)
    assert result.connected_pairs == 9
    assert len(result.multi_cycle_pairs) == 5


def test_fig2_implication_run(benchmark):
    """F2: one implication run on the 2-frame expansion of Fig. 1."""
    circuit = fig1_circuit()
    expansion = expand(circuit, 2)
    engine = ImplicationEngine(expansion.comb)
    i = expansion.ff_index(circuit.id_of("FF1"))
    j = expansion.ff_index(circuit.id_of("FF2"))
    premise = [
        (expansion.ff_at[0][i], ZERO),
        (expansion.ff_at[1][i], ONE),
        (expansion.ff_at[1][j], ZERO),
    ]

    def run_implication():
        mark = engine.checkpoint()
        ok = engine.assume_all(premise)
        value = engine.value(expansion.ff_at[2][j])
        engine.backtrack(mark)
        return ok, value

    ok, value = benchmark(run_implication)
    assert ok and value == ZERO


def test_fig3_hazard_detection(benchmark):
    """F3: static sensitization flags (FF3, FF2) on the mapped circuit,
    with a hazard path through MUX2's AND/OR structure."""
    circuit = fig3_circuit()
    detection = benchmark(
        detect_multi_cycle_pairs, circuit,
        DetectorOptions(hazard_check="exact"),
    )
    (verdict,) = [
        v for v in detection.hazard_verdicts
        if (circuit.names[v.pair.source], circuit.names[v.pair.sink])
        == ("FF3", "FF2")
    ]
    assert verdict.sensitize_flagged
    comb = expand_cached(circuit, frames=2).comb
    path = [comb.names[node] for node in verdict.witness_path]
    assert path[-1] == "MUX2@1"
    assert any(name.startswith("MUX2_a") for name in path)


def test_fig4_sensitization_gap(benchmark):
    """F4: A->C co-sensitizable but not sensitizable when B = 0."""
    circuit = fig4_fragment()
    expansion = expand(circuit, 2)
    comb = expansion.comb
    a_node = expansion.ff_at[1][expansion.ff_index(circuit.id_of("A"))]
    b_node = expansion.ff_at[1][expansion.ff_index(circuit.id_of("B"))]
    c_node = comb.id_of("C@1")

    def both_checks():
        engine = ImplicationEngine(comb)
        assert engine.assume(b_node, ZERO)
        sens = find_sensitizable_path(
            engine, a_node, c_node, {c_node},
            SensitizationMode.STATIC_SENSITIZATION,
        )
        cosens = find_sensitizable_path(
            engine, a_node, c_node, {c_node},
            SensitizationMode.STATIC_CO_SENSITIZATION,
        )
        return sens.outcome, cosens.outcome

    sens, cosens = benchmark(both_checks)
    assert sens is PathSearchOutcome.NONE
    assert cosens is PathSearchOutcome.FOUND


def test_figures_report(benchmark):
    circuit = fig1_circuit()
    result = benchmark.pedantic(detect_multi_cycle_pairs, args=(circuit,),
                                rounds=1, iterations=1)
    lines = [
        "Figures F1-F4 (paper examples):",
        f"  F1 fig1: {result.connected_pairs} connected pairs, "
        f"{len(result.multi_cycle_pairs)} multi-cycle "
        "(paper: 9 and 5)",
        "  F2 implication derives FF2(t+2)=FF2(t+1) for the rise at FF1",
        "  F3 (FF3, FF2) hazard found on the mapped circuit",
        "  F4 A->C co-sensitizable but not statically sensitizable",
    ]
    record_report("\n".join(lines))
