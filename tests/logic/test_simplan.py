"""The compiled simulation plan must be bit-identical to the reference loop.

:mod:`repro.logic.simplan` lowers a circuit once into levelized,
gate-type-batched numpy kernels; these tests pin its contract:

* ``comb_eval`` under the compiled plan produces exactly the same words
  as the per-node python loop, on arbitrary random circuits and inputs;
* both agree with the three-valued :class:`Simulator` on X-free
  assignments, pattern by pattern;
* plans are cached on the circuit and invalidated by mutation;
* the padding identity rows survive wholesale ``values`` replacement
  (the fault-simulator's usage pattern).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.builder import CircuitBuilder
from repro.circuit.library import fig1_circuit
from repro.logic.bitsim import BitSimulator
from repro.logic.simplan import SimPlan, compiled_plan
from repro.logic.simulator import Simulator

from tests.logic.python_sim import PythonBitSimulator
from tests.strategies import random_sequential_circuit, seeds


def _randomized_pair(circuit, rng_seed, words=2):
    """Compiled and python simulators holding identical random sources."""
    compiled = BitSimulator(circuit, words=words)
    python = PythonBitSimulator(circuit, words=words)
    rng = np.random.default_rng(rng_seed)
    compiled.randomize_sources(rng)
    python.values = compiled.values.copy()
    return compiled, python


@given(seeds, st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_plan_matches_python_loop(seed, rng_seed):
    """Every node's pattern words agree between the two evaluators."""
    circuit = random_sequential_circuit(seed)
    compiled, python = _randomized_pair(circuit, rng_seed)
    compiled.comb_eval()
    python.comb_eval()
    assert np.array_equal(compiled.values, python.values)


@given(seeds, st.integers(min_value=0, max_value=2**32 - 1))
def test_compiled_plan_matches_scalar_simulator(seed, rng_seed):
    """On X-free assignments the plan reproduces the 3-valued simulator."""
    circuit = random_sequential_circuit(seed)
    sim = BitSimulator(circuit, words=1)
    rng = np.random.default_rng(rng_seed)
    sim.randomize_sources(rng)
    sim.comb_eval()

    for pattern in (0, 31, 63):
        scalar = Simulator(circuit)
        scalar.set_all_state(
            [int(sim.values[d][0]) >> pattern & 1 for d in circuit.dffs]
        )
        if circuit.inputs:
            scalar.set_all_inputs(
                [int(sim.values[i][0]) >> pattern & 1 for i in circuit.inputs]
            )
        scalar.comb_eval()
        for node in range(circuit.num_nodes):
            expected = scalar.values[node]
            if expected is None:
                continue
            assert int(sim.values[node][0]) >> pattern & 1 == expected


def test_all_gate_types_in_one_circuit():
    """One circuit exercising every batch kind the plan can emit."""
    b = CircuitBuilder("alltypes")
    a, c, d = b.input("a"), b.input("c"), b.input("d")
    one, zero = b.const1("one"), b.const0("zero")
    gates = [
        b.and_(a, c, name="g_and"),
        b.nand(a, c, d, name="g_nand"),
        b.or_(c, d, name="g_or"),
        b.nor(a, d, name="g_nor"),
        b.xor(a, c, name="g_xor"),
        b.xnor(c, d, name="g_xnor"),
        b.not_(a, name="g_not"),
        b.buf(d, name="g_buf"),
        b.mux(a, c, d, name="g_mux"),
        b.and_(one, zero, name="g_const"),
    ]
    acc = gates[0]
    for g in gates[1:]:
        acc = b.xor(acc, g)
    ff = b.dff("ff")
    b.drive(ff, acc)
    b.output("po", acc)
    circuit = b.build()

    compiled, python = _randomized_pair(circuit, rng_seed=11, words=4)
    compiled.comb_eval()
    python.comb_eval()
    assert np.array_equal(compiled.values, python.values)


def test_plan_is_cached_on_the_circuit():
    circuit = fig1_circuit()
    assert compiled_plan(circuit) is compiled_plan(circuit)
    sims = [BitSimulator(circuit, words=w) for w in (1, 2, 4)]
    assert sims[0].plan is sims[1].plan is sims[2].plan


def test_plan_cache_invalidated_by_mutation():
    from repro.circuit.gates import GateType

    circuit = fig1_circuit()
    before = compiled_plan(circuit)
    circuit.add_node(GateType.OUTPUT, (circuit.inputs[0],), "extra_po")
    after = compiled_plan(circuit)
    assert after is not before
    assert after.circuit_version == circuit.version


def test_stale_plan_rejected():
    from repro.circuit.gates import GateType

    circuit = fig1_circuit()
    plan = compiled_plan(circuit)
    circuit.add_node(GateType.INPUT, (), "late_pi")
    with pytest.raises(ValueError):
        BitSimulator(circuit, words=1, plan=plan)


def test_values_replacement_keeps_padding_rows():
    """The fault simulator assigns ``sim.values = matrix`` wholesale; the
    plan's identity padding rows must survive that."""
    circuit = fig1_circuit()
    sim = BitSimulator(circuit, words=2)
    rng = np.random.default_rng(3)
    fresh = rng.integers(
        0, 1 << 64, size=(circuit.num_nodes, 2), dtype=np.uint64
    )
    sim.values = fresh
    assert np.array_equal(sim.values, fresh)
    sim.comb_eval()  # would corrupt outputs if the pad rows were clobbered

    reference = PythonBitSimulator(circuit, words=2)
    reference.values = fresh
    reference.comb_eval()
    assert np.array_equal(sim.values, reference.values)

    with pytest.raises(ValueError):
        sim.values = fresh[:, :1]


def test_plan_levels_cover_every_combinational_node():
    circuit = fig1_circuit()
    plan = compiled_plan(circuit)
    assert isinstance(plan, SimPlan)
    covered = set()
    for batches in plan.levels:
        for batch in batches:
            covered.update(int(n) for n in batch.outputs)
    from repro.circuit.gates import GateType

    expected = {
        n
        for n in range(circuit.num_nodes)
        if circuit.types[n]
        not in (GateType.INPUT, GateType.DFF, GateType.CONST0, GateType.CONST1)
    }
    assert covered == expected
