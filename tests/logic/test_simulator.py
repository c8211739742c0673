"""Behavioural tests of the three-valued event simulator."""

import itertools

import pytest

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.circuit.library import binary_counter, gray_counter, shift_register
from repro.logic.simulator import Simulator, evaluate_gate, ternary_eval
from repro.logic.values import ONE, X, ZERO


def _ref_eval(gate_type, values):
    """Binary reference for each gate type."""
    if gate_type in (GateType.BUF, GateType.OUTPUT):
        return values[0]
    if gate_type == GateType.NOT:
        return 1 - values[0]
    if gate_type == GateType.AND:
        return int(all(values))
    if gate_type == GateType.NAND:
        return 1 - int(all(values))
    if gate_type == GateType.OR:
        return int(any(values))
    if gate_type == GateType.NOR:
        return 1 - int(any(values))
    if gate_type == GateType.XOR:
        return sum(values) % 2
    if gate_type == GateType.XNOR:
        return 1 - sum(values) % 2
    if gate_type == GateType.MUX:
        return values[2] if values[0] else values[1]
    raise AssertionError(gate_type)


_BINARY_TYPES = [
    (GateType.AND, 2), (GateType.AND, 3), (GateType.NAND, 2), (GateType.NAND, 3),
    (GateType.OR, 2), (GateType.OR, 3), (GateType.NOR, 2), (GateType.NOR, 3),
    (GateType.XOR, 2), (GateType.XOR, 3), (GateType.XNOR, 2),
    (GateType.NOT, 1), (GateType.BUF, 1), (GateType.MUX, 3),
]


@pytest.mark.parametrize("gate_type,arity", _BINARY_TYPES)
def test_evaluate_gate_binary_exhaustive(gate_type, arity):
    for values in itertools.product((ZERO, ONE), repeat=arity):
        assert evaluate_gate(gate_type, list(values)) == _ref_eval(gate_type, values)


@pytest.mark.parametrize("gate_type,arity", _BINARY_TYPES)
def test_evaluate_gate_x_is_sound(gate_type, arity):
    """A non-X output must match every binary completion of the inputs."""
    for values in itertools.product((ZERO, ONE, X), repeat=arity):
        got = evaluate_gate(gate_type, list(values))
        if got == X:
            continue
        for completion in itertools.product((ZERO, ONE), repeat=arity):
            if all(v == X or v == c for v, c in zip(values, completion)):
                assert _ref_eval(gate_type, completion) == got


def test_evaluate_gate_rejects_sequential():
    with pytest.raises(ValueError):
        evaluate_gate(GateType.DFF, [ZERO])


def test_binary_counter_counts():
    circuit = binary_counter(3)
    sim = Simulator(circuit)
    sim.set_all_state([0, 0, 0])
    seen = []
    for _ in range(9):
        state = sim.state()
        seen.append(state["q0"] + 2 * state["q1"] + 4 * state["q2"])
        sim.clock()
    assert seen == [0, 1, 2, 3, 4, 5, 6, 7, 0]


def test_gray_counter_outputs_change_one_bit_per_step():
    circuit = gray_counter(3)
    sim = Simulator(circuit)
    sim.set_all_state([0, 0, 0])
    previous = None
    codes = set()
    for _ in range(8):
        outs = sim.output_values()
        code = tuple(outs[f"gray{i}"] for i in range(3))
        codes.add(code)
        if previous is not None:
            assert sum(a != b for a, b in zip(previous, code)) == 1
        previous = code
        sim.clock()
    assert len(codes) == 8


def test_shift_register_delays_input():
    circuit = shift_register(3)
    sim = Simulator(circuit)
    sim.set_all_state([0, 0, 0])
    stream = [1, 0, 1, 1, 0, 0, 1]
    seen = []
    for bit in stream:
        sim.set_inputs({"sin": bit})
        sim.clock()
        seen.append(sim.value("s2"))
    assert seen[2:] == stream[:5]  # two clock edges from sin to s2


def test_x_state_propagates_until_driven():
    builder = CircuitBuilder("xprop")
    a = builder.input("a")
    ff = builder.dff("ff", d=a)
    builder.output("o", builder.and_(ff, a, name="g"))
    circuit = builder.build()
    sim = Simulator(circuit)
    sim.set_inputs({"a": ONE})
    assert sim.value("g") == X  # ff still unknown
    sim.clock()
    assert sim.value("ff") == ONE
    assert sim.value("g") == ONE


def test_x_controlling_value_still_decides():
    builder = CircuitBuilder("xdom")
    a = builder.input("a")
    ff = builder.dff("ff", d=a)
    builder.output("o", builder.and_(ff, a, name="g"))
    circuit = builder.build()
    sim = Simulator(circuit)
    sim.set_inputs({"a": ZERO})
    assert sim.value("g") == ZERO  # 0 dominates AND even with ff = X


def test_set_inputs_rejects_non_input():
    circuit = shift_register(2)
    sim = Simulator(circuit)
    with pytest.raises(ValueError):
        sim.set_inputs({"s0": 1})
    with pytest.raises(ValueError):
        sim.set_state({"sin": 1})


def test_run_with_inputs_per_cycle():
    circuit = shift_register(1)
    sim = Simulator(circuit)
    sim.set_all_state([0])
    trace = sim.run(3, inputs_per_cycle=[{"sin": 1}, {"sin": 0}, {"sin": 1}])
    assert [t["s0"] for t in trace] == [1, 0, 1]


def test_constants_are_preassigned():
    builder = CircuitBuilder("consts")
    one = builder.const1("one")
    zero = builder.const0("zero")
    builder.output("o", builder.and_(one, builder.not_(zero, name="nz"), name="g"))
    sim = Simulator(builder.build())
    assert sim.value("g") == ONE


def test_ternary_eval_matches_binary_on_full_inputs():
    builder = CircuitBuilder("t")
    a, b = builder.input("a"), builder.input("b")
    g = builder.xor(builder.and_(a, b, name="g1"), a, name="g2")
    builder.output("o", g)
    circuit = builder.build()
    for bits in itertools.product((0, 1), repeat=2):
        values = ternary_eval(circuit, dict(zip(circuit.inputs, bits)))
        assert values[circuit.id_of("g2")] == (bits[0] & bits[1]) ^ bits[0]


def test_ternary_eval_x_dominated_by_controlling():
    builder = CircuitBuilder("t")
    a, b = builder.input("a"), builder.input("b")
    builder.output("o", builder.and_(a, b, name="g"))
    circuit = builder.build()
    values = ternary_eval(circuit, {a: ZERO, b: X})
    assert values[circuit.id_of("g")] == ZERO
    values = ternary_eval(circuit, {a: ONE, b: X})
    assert values[circuit.id_of("g")] == X
