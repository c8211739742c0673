"""The flat packed closure kernel and the CSR lowering against their
oracles (``tests/atpg/packed_oracle.py``).

The flat loop promises more than the per-lane fixpoint the scalar
differentials check: the method kernel's visits, in its order.  After
every call of a random ``close`` / ``close_matrix`` / ``extend``
sequence, with and without a learned table, both engines must hold the
same conflict lanes, the same value and care planes on every node
(conflicted lanes' frozen bits included) and the same ``visits`` and
``closures`` counters.
"""

import random

import numpy as np
import pytest
from hypothesis import given

from repro.analysis.implication_db import implication_db
from repro.atpg.packed_implication import (
    MAX_LANES,
    PackedImplicationEngine,
    packed_plan,
)
from repro.bench_gen.suite import spec_by_name
from repro.bench_gen.synth import generate
from repro.circuit.library import fig1_circuit, s27
from repro.circuit.timeframe import expand_cached

from tests.atpg.packed_oracle import MethodPackedEngine, simplan_packed_plan
from tests.strategies import random_sequential_circuit, seeds


def _state(engine, num_nodes):
    value, care = engine.planes(range(num_nodes))
    lanes = np.arange(engine.lanes)
    return (
        engine.visits,
        engine.closures,
        engine.conflict_lanes(lanes).tobytes(),
        value.tobytes(),
        care.tobytes(),
    )


def _lane_count(rng):
    """Word edges and MAX_LANES as often as random counts."""
    return rng.choice([1, 63, 64, 65, MAX_LANES, rng.randrange(1, MAX_LANES + 1)])


def _random_call(rng, num_nodes, lanes):
    """One ``(method name, args)`` call; ``extend`` only on a closure."""
    kind = rng.randrange(3) if lanes else rng.randrange(2)
    if kind == 0:
        return "close", ([
            [(rng.randrange(num_nodes), rng.randrange(2))
             for _ in range(rng.randrange(1, 4))]
            for _ in range(_lane_count(rng))
        ],)
    if kind == 1:
        count = _lane_count(rng)
        width = rng.randrange(1, 4)
        nodes = np.array(
            [rng.randrange(num_nodes) for _ in range(count * width)],
            dtype=np.intp,
        ).reshape(count, width)
        values = np.array(
            [rng.randrange(2) for _ in range(count * width)], dtype=np.uint8
        ).reshape(count, width)
        return "close_matrix", (nodes, values)
    return "extend", ([
        (rng.randrange(lanes), rng.randrange(num_nodes), rng.randrange(2))
        for _ in range(rng.randrange(1, 40))
    ],)


def _assert_kernels_agree(circuit, learned, rng, calls=4):
    flat = PackedImplicationEngine(circuit, learned=learned)
    oracle = MethodPackedEngine(circuit, learned=learned)
    num_nodes = circuit.num_nodes
    for step in range(calls):
        name, args = _random_call(rng, num_nodes, flat.lanes)
        getattr(flat, name)(*args)
        getattr(oracle, name)(*args)
        assert _state(flat, num_nodes) == _state(oracle, num_nodes), (
            f"step {step}: {name} diverged"
        )


@given(seeds)
def test_flat_kernel_matches_method_kernel(seed):
    circuit = random_sequential_circuit(seed)
    _assert_kernels_agree(circuit, None, random.Random(seed ^ 0xF1A7))


@given(seeds)
def test_flat_kernel_matches_method_kernel_with_learned(seed):
    """Learned consequents run depth-first in the oracle's order, so even
    lanes a consequent contradicts freeze at the same visit."""
    circuit = random_sequential_circuit(seed)
    learned = implication_db(circuit)
    _assert_kernels_agree(circuit, learned, random.Random(seed ^ 0x1EA7))


def test_flat_kernel_matches_on_an_expansion_with_static_learning():
    """The decide stage's shape: three-literal premises on a 2-frame
    expansion, then the probe ``extend``, under a launch-prefix learned
    table."""
    from repro.atpg.learning import learn_static_implications

    comb = expand_cached(generate(spec_by_name("syn330")), frames=2).comb
    learned = learn_static_implications(comb)
    assert learned, "syn330's expansion must learn something"
    _assert_kernels_agree(comb, learned, random.Random(330), calls=6)


def _plan_fields(plan):
    return (
        plan.num_nodes, plan.buffer_rows, plan.gates, plan.consumers,
        plan.driver, plan.preset1, plan.preset0,
    )


@pytest.mark.parametrize("frames", [2, 3])
@pytest.mark.parametrize("build", [
    fig1_circuit, s27, lambda: generate(spec_by_name("syn330")),
], ids=["fig1", "s27", "syn330"])
def test_csr_lowering_equals_simplan_lowering(build, frames):
    """Gate order, fanin rows, consumers, driver and presets of the plan
    lowered from the CSR arrays equal the SimPlan-lowered plan's."""
    comb = expand_cached(build(), frames=frames).comb
    assert _plan_fields(packed_plan(comb)) == _plan_fields(
        simplan_packed_plan(comb)
    )


@given(seeds)
def test_csr_lowering_equals_simplan_lowering_on_random_circuits(seed):
    """Constants, MUXes and self-loop flip-flops included."""
    circuit = random_sequential_circuit(seed)
    assert _plan_fields(packed_plan(circuit)) == _plan_fields(
        simplan_packed_plan(circuit)
    )


def test_plan_lowering_builds_no_simplan(monkeypatch):
    from repro.logic import simplan

    def refuse(self, circuit):
        raise AssertionError("the packed plan lowered through a SimPlan")

    monkeypatch.setattr(simplan.SimPlan, "__init__", refuse)
    comb = expand_cached(fig1_circuit(), frames=2).comb
    assert packed_plan(comb).gates
