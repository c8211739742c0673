"""The PODEM search must agree with the D-algorithm-style search.

Verdicts (SAT/UNSAT) are a property of the constraints, not of the search
order, so on every random target the two engines must agree — only their
decision/backtrack counts may differ (which is the paper's §4.5 point).
"""


from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.logic.simulator import evaluate_gate
from repro.logic.values import ONE, X, ZERO
from repro.atpg.implication import ImplicationEngine
from repro.atpg.justify import SearchStatus, justify
from repro.atpg.podem import podem_justify

from tests.strategies import random_combinational_circuit, seeds


def _evaluate(circuit, input_values):
    values = dict(input_values)
    for node in circuit.topo_order():
        gate_type = circuit.types[node]
        if gate_type == GateType.INPUT:
            values.setdefault(node, 0)
        elif gate_type == GateType.CONST0:
            values[node] = 0
        elif gate_type == GateType.CONST1:
            values[node] = 1
        else:
            values[node] = evaluate_gate(
                gate_type, [values[f] for f in circuit.fanins[node]]
            )
    return values


@given(seeds, st.integers(min_value=0, max_value=255))
def test_podem_agrees_with_dalg(seed, stimulus):
    circuit = random_combinational_circuit(seed)
    internal = [
        n for n in range(circuit.num_nodes)
        if circuit.types[n] not in (GateType.INPUT, GateType.CONST0,
                                    GateType.CONST1, GateType.OUTPUT)
    ]
    if not internal:
        return
    targets = [(internal[stimulus % len(internal)], (stimulus >> 4) & 1)]

    engine = ImplicationEngine(circuit)
    if not engine.assume_all(targets):
        return  # both engines are never consulted on contradictions
    dalg = justify(engine, backtrack_limit=100_000)
    podem = podem_justify(engine, backtrack_limit=100_000)
    assert dalg.status is podem.status

    if podem.status is SearchStatus.SAT:
        witness = {n: (0 if v == X else v) for n, v in podem.witness.items()}
        values = _evaluate(circuit, witness)
        for node, value in targets:
            assert values[node] == value


def test_podem_trivial_sat():
    builder = CircuitBuilder("t")
    a, b = builder.input("a"), builder.input("b")
    g = builder.and_(a, b, name="g")
    builder.output("o", g)
    circuit = builder.build()
    engine = ImplicationEngine(circuit)
    assert engine.assume(g, ONE)
    result = podem_justify(engine)
    assert result.status is SearchStatus.SAT
    assert result.witness[a] == ONE and result.witness[b] == ONE


def test_podem_needs_decision():
    builder = CircuitBuilder("t")
    a, b, c = builder.input("a"), builder.input("b"), builder.input("c")
    g = builder.and_(a, b, c, name="g")
    builder.output("o", g)
    circuit = builder.build()
    engine = ImplicationEngine(circuit)
    assert engine.assume(g, ZERO)
    result = podem_justify(engine)
    assert result.status is SearchStatus.SAT
    assert result.decisions >= 1


def test_podem_unsat_reconvergence():
    builder = CircuitBuilder("t")
    a = builder.input("a")
    b1 = builder.buf(a, name="b1")
    b2 = builder.buf(a, name="b2")
    g = builder.xor(b1, b2, name="g")
    builder.output("o", g)
    circuit = builder.build()
    engine = ImplicationEngine(circuit)
    if engine.assume(g, ONE):
        result = podem_justify(engine)
        assert result.status is SearchStatus.UNSAT


def test_podem_abort_at_limit():
    builder = CircuitBuilder("t")
    a = builder.input("a")
    b1 = builder.buf(a, name="b1")
    b2 = builder.buf(a, name="b2")
    g = builder.xor(b1, b2, name="g")
    builder.output("o", g)
    circuit = builder.build()
    engine = ImplicationEngine(circuit)
    if engine.assume(g, ONE):
        result = podem_justify(engine, backtrack_limit=0)
        assert result.status is SearchStatus.ABORTED


def test_podem_restores_engine():
    circuit = random_combinational_circuit(11)
    engine = ImplicationEngine(circuit)
    internal = [
        n for n in range(circuit.num_nodes)
        if circuit.types[n] not in (GateType.INPUT, GateType.CONST0,
                                    GateType.CONST1)
    ]
    engine.assume(internal[-1], ONE)
    before = list(engine.assignment.values)
    podem_justify(engine, backtrack_limit=1000)
    assert list(engine.assignment.values) == before


def test_detector_with_podem_engine(fig1):
    from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs

    dalg = detect_multi_cycle_pairs(fig1)
    podem = detect_multi_cycle_pairs(
        fig1, DetectorOptions(search_engine="podem")
    )
    assert dalg.multi_cycle_pair_names() == podem.multi_cycle_pair_names()


def test_unknown_engine_rejected(fig1):
    import pytest

    from repro.circuit.timeframe import expand
    from repro.core.session import DecisionSession

    with pytest.raises(ValueError):
        DecisionSession(expand(fig1, 2), search_engine="magic")
