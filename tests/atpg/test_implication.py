"""Soundness and strength of the implication procedure.

*Soundness* is the critical property: every value the engine derives must
hold in **all** binary completions consistent with the assumptions — a
single unsound implication would let the detector claim multi-cycle pairs
that are not.  The property test enumerates completions on small random
combinational circuits.
"""

import itertools

from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.logic.simulator import evaluate_gate
from repro.logic.values import ONE, X, ZERO
from repro.atpg.implication import ImplicationEngine

from tests.strategies import random_combinational_circuit, seeds


def _completions(circuit, fixed):
    """Yield full input->node valuations consistent with ``fixed`` inputs."""
    inputs = circuit.inputs
    order = circuit.topo_order()
    for bits in itertools.product((0, 1), repeat=len(inputs)):
        values = {}
        ok = True
        for node, bit in zip(inputs, bits):
            if node in fixed and fixed[node] != bit:
                ok = False
                break
            values[node] = bit
        if not ok:
            continue
        for node in order:
            gate_type = circuit.types[node]
            if gate_type == GateType.INPUT:
                continue
            if gate_type == GateType.CONST0:
                values[node] = 0
            elif gate_type == GateType.CONST1:
                values[node] = 1
            else:
                values[node] = evaluate_gate(
                    gate_type, [values[f] for f in circuit.fanins[node]]
                )
        yield values


@given(seeds, st.integers(min_value=0, max_value=1023))
def test_implication_is_sound(seed, stimulus):
    """Derived values hold in every consistent completion; contradictions
    are only reported when no completion exists."""
    circuit = random_combinational_circuit(seed)
    engine = ImplicationEngine(circuit)

    # Assume a random subset of nodes at random values.
    assumptions = []
    for k, node in enumerate(range(circuit.num_nodes)):
        if circuit.types[node] == GateType.OUTPUT:
            continue
        if (stimulus >> (k % 10)) & 1 and len(assumptions) < 3:
            if circuit.types[node] not in (GateType.CONST0, GateType.CONST1):
                assumptions.append((node, (stimulus >> ((k + 3) % 10)) & 1))

    ok = engine.assume_all(assumptions)

    # Enumerate completions consistent with the *assumed node values*.
    consistent = []
    for values in _completions(circuit, {}):
        if all(values[n] == v for n, v in assumptions):
            consistent.append(values)

    if not ok:
        # Contradiction must mean the assumptions are truly unsatisfiable
        # *for implication-visible reasons*: at minimum they must not hold
        # in every completion trivially (weak direction checked below for
        # derived values; a conflict with existing completions is allowed
        # only when none are consistent).
        assert not consistent, "engine reported a contradiction but a model exists"
        return

    for node in range(circuit.num_nodes):
        derived = engine.value(node)
        if derived == X:
            continue
        for values in consistent:
            assert values[node] == derived, (
                f"unsound implication at node {circuit.names[node]}"
            )


def _engine_for(builder):
    circuit = builder.build()
    return circuit, ImplicationEngine(circuit)


def test_and_forward_controlling():
    builder = CircuitBuilder("t")
    a, b = builder.input("a"), builder.input("b")
    g = builder.and_(a, b, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    assert engine.assume(a, ZERO)
    assert engine.value(g) == ZERO


def test_and_forward_all_noncontrolling():
    builder = CircuitBuilder("t")
    a, b = builder.input("a"), builder.input("b")
    g = builder.and_(a, b, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    assert engine.assume_all([(a, ONE), (b, ONE)])
    assert engine.value(g) == ONE


def test_and_backward_output_one():
    builder = CircuitBuilder("t")
    a, b = builder.input("a"), builder.input("b")
    g = builder.and_(a, b, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    assert engine.assume(g, ONE)
    assert engine.value(a) == ONE and engine.value(b) == ONE


def test_and_backward_last_free_input():
    builder = CircuitBuilder("t")
    a, b, c = builder.input("a"), builder.input("b"), builder.input("c")
    g = builder.and_(a, b, c, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    assert engine.assume_all([(g, ZERO), (a, ONE), (b, ONE)])
    assert engine.value(c) == ZERO


def test_nor_rules():
    builder = CircuitBuilder("t")
    a, b = builder.input("a"), builder.input("b")
    g = builder.nor(a, b, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    assert engine.assume(g, ONE)
    assert engine.value(a) == ZERO and engine.value(b) == ZERO


def test_xor_forward_and_backward():
    builder = CircuitBuilder("t")
    a, b = builder.input("a"), builder.input("b")
    g = builder.xor(a, b, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    mark = engine.checkpoint()
    assert engine.assume_all([(a, ONE), (b, ONE)])
    assert engine.value(g) == ZERO
    engine.backtrack(mark)
    assert engine.assume_all([(g, ONE), (a, ZERO)])
    assert engine.value(b) == ONE


def test_xnor_backward():
    builder = CircuitBuilder("t")
    a, b = builder.input("a"), builder.input("b")
    g = builder.xnor(a, b, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    assert engine.assume_all([(g, ONE), (a, ONE)])
    assert engine.value(b) == ONE


def test_not_bidirectional():
    builder = CircuitBuilder("t")
    a = builder.input("a")
    g = builder.not_(a, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    mark = engine.checkpoint()
    assert engine.assume(a, ONE)
    assert engine.value(g) == ZERO
    engine.backtrack(mark)
    assert engine.assume(g, ONE)
    assert engine.value(a) == ZERO


def test_mux_select_known():
    builder = CircuitBuilder("t")
    s, d0, d1 = builder.input("s"), builder.input("d0"), builder.input("d1")
    g = builder.mux(s, d0, d1, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    assert engine.assume_all([(s, ZERO), (d0, ONE)])
    assert engine.value(g) == ONE


def test_mux_backward_select_inference():
    """The paper's Fig. 2 step: out != d0 forces the select high."""
    builder = CircuitBuilder("t")
    s, d0, d1 = builder.input("s"), builder.input("d0"), builder.input("d1")
    g = builder.mux(s, d0, d1, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    assert engine.assume_all([(d0, ZERO), (g, ONE)])
    assert engine.value(s) == ONE
    assert engine.value(d1) == ONE


def test_mux_equal_data_implies_output():
    builder = CircuitBuilder("t")
    s, d0, d1 = builder.input("s"), builder.input("d0"), builder.input("d1")
    g = builder.mux(s, d0, d1, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    assert engine.assume_all([(d0, ONE), (d1, ONE)])
    assert engine.value(g) == ONE


def test_contradiction_detected():
    builder = CircuitBuilder("t")
    a, b = builder.input("a"), builder.input("b")
    g = builder.and_(a, b, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    assert not engine.assume_all([(a, ZERO), (g, ONE)])


def test_backtrack_restores_unjustified_set():
    builder = CircuitBuilder("t")
    a, b, c = builder.input("a"), builder.input("b"), builder.input("c")
    g = builder.and_(a, b, c, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    mark = engine.checkpoint()
    assert engine.assume(g, ZERO)  # unjustified: needs some input at 0
    assert engine.unjustified
    engine.backtrack(mark)
    assert not engine.unjustified
    assert engine.value(g) == X


def test_backtrack_undoes_frontier_ops_newest_first():
    """A gate added then removed inside one mark window leaves the
    frontier as it was at the mark."""
    builder = CircuitBuilder("t")
    a, b, c = builder.input("a"), builder.input("b"), builder.input("c")
    g = builder.and_(a, b, c, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    mark = engine.checkpoint()
    assert engine.assume(g, ZERO)
    assert engine.unjustified == {g}
    assert engine.assume(a, ZERO)  # a controlling input justifies g
    assert engine.unjustified == set()
    assert engine._jtrail[mark[1]:] == [g, ~g]
    engine.backtrack(mark)
    assert engine.unjustified == set()
    assert engine._jtrail == []
    assert engine.value(g) == X and engine.value(a) == X


def test_backtrack_restores_gate_removed_then_readded():
    """The rules only ever add a gate, then remove it, within one window
    (values only grow), so the opposite order is written by hand: the
    undo is positional and must still run newest first."""
    builder = CircuitBuilder("t")
    a, b, c = builder.input("a"), builder.input("b"), builder.input("c")
    g = builder.and_(a, b, c, name="g")
    h = builder.or_(a, b, name="h")
    builder.output("o", builder.and_(g, h, name="k"))
    circuit, engine = _engine_for(builder)
    assert engine.assume(g, ZERO)
    assert engine.unjustified == {g}
    mark = engine.checkpoint()
    engine.unjustified.discard(g)
    engine.unjustified.add(h)
    engine.unjustified.add(g)
    engine.unjustified.discard(h)
    engine._jtrail.extend([~g, h, g, ~h])
    engine.backtrack(mark)
    assert engine.unjustified == {g}
    assert len(engine._jtrail) == mark[1]


def test_learned_implications_applied():
    builder = CircuitBuilder("t")
    a = builder.input("a")
    b = builder.input("b")
    g = builder.and_(a, b, name="g")
    builder.output("o", g)
    circuit = builder.build()
    learned = {(a, ONE): [(b, ONE)]}
    engine = ImplicationEngine(circuit, learned=learned)
    assert engine.assume(a, ONE)
    assert engine.value(b) == ONE
    assert engine.value(g) == ONE


def test_reset_clears_everything():
    builder = CircuitBuilder("t")
    a = builder.input("a")
    builder.output("o", builder.not_(a, name="g"))
    circuit, engine = _engine_for(builder)
    engine.assume(a, ONE)
    engine.reset()
    assert engine.value(a) == X


def test_constants_preassigned():
    builder = CircuitBuilder("t")
    one = builder.const1("one")
    a = builder.input("a")
    g = builder.and_(one, a, name="g")
    builder.output("o", g)
    circuit, engine = _engine_for(builder)
    assert engine.value(one) == ONE
    assert engine.assume(a, ONE)
    assert engine.value(g) == ONE


def test_fig2_walkthrough(fig1):
    """Reproduce the paper's Fig. 2: assuming (FF1(t), FF1(t+1),
    FF2(t+1)) = (0, 1, 0) on the 2-frame expansion implies FF2(t+2) = 0."""
    from repro.circuit.timeframe import expand

    expansion = expand(fig1, 2)
    engine = ImplicationEngine(expansion.comb)
    i = expansion.ff_index(fig1.id_of("FF1"))
    j = expansion.ff_index(fig1.id_of("FF2"))
    assert engine.assume_all([
        (expansion.ff_at[0][i], ZERO),
        (expansion.ff_at[1][i], ONE),
        (expansion.ff_at[1][j], ZERO),
    ])
    assert engine.value(expansion.ff_at[2][j]) == ZERO
