"""The two-plane ternary plan must match the scalar ternary evaluator.

:class:`~repro.logic.bitsim.TernarySimulator` evaluates {0, 1, X} logic
bit-parallel on the compiled plan: the ``care`` plane marks known lanes,
the ``value`` plane carries the known values.  These tests pin its
contract:

* every node of every lane agrees with the scalar :func:`ternary_eval`
  dict walk, on arbitrary random circuits and random {0, 1, X} seedings
  (combinational circuits and 2-frame expansions alike);
* the planes stay canonical (``value & ~care == 0``) after evaluation;
* pinned rows override the plan's own computation and propagate
  downstream, which is how a caller holds an expansion's frame-1 state
  nodes;
* :func:`pack_lane_matrix` packs lane matrices in the simulator's
  little-endian lane order and rejects overflowing lane counts.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.circuit.builder import CircuitBuilder
from repro.circuit.timeframe import expand_cached
from repro.logic.simulator import ternary_eval
from repro.logic.bitsim import TernarySimulator, pack_lane_matrix
from repro.logic.values import X

from tests.strategies import (
    random_combinational_circuit,
    random_sequential_circuit,
    seeds,
)

_LANES = 96  # spills into the second word on words=2


def _seed_lanes(sim, circuit, rng):
    """Random {0, 1, X} per source per lane; returns per-lane dicts."""
    sources = list(circuit.inputs)
    assignments = [{} for _ in range(_LANES)]
    value = np.zeros((len(sources), _LANES), dtype=np.uint8)
    care = np.zeros((len(sources), _LANES), dtype=np.uint8)
    for row, node in enumerate(sources):
        for lane in range(_LANES):
            choice = rng.choice((0, 1, X))
            assignments[lane][node] = choice
            if choice is not X:
                care[row, lane] = 1
                value[row, lane] = choice
    sim.set_source_planes(
        sources,
        pack_lane_matrix(value, sim.words),
        pack_lane_matrix(care, sim.words),
    )
    return assignments


def _assert_matches_scalar(circuit):
    sim = TernarySimulator(circuit, words=2)
    assignments = _seed_lanes(sim, circuit, random.Random(circuit.name))
    sim.comb_eval()
    for lane in (0, 1, 63, 64, _LANES - 1):
        expected = ternary_eval(circuit, assignments[lane])
        for node in range(circuit.num_nodes):
            assert sim.lane_value(node, lane) == expected[node], (
                f"{circuit.name}: node {node} lane {lane}"
            )


@given(seeds)
def test_ternary_plan_matches_scalar_on_combinational(seed):
    _assert_matches_scalar(random_combinational_circuit(seed))


@given(seeds)
def test_ternary_plan_matches_scalar_on_expansions(seed):
    """The hazard checker's actual substrate: 2-frame expansion combs."""
    circuit = random_sequential_circuit(seed)
    _assert_matches_scalar(expand_cached(circuit, frames=2).comb)


@given(seeds)
def test_planes_stay_canonical(seed):
    circuit = random_combinational_circuit(seed)
    sim = TernarySimulator(circuit, words=2)
    _seed_lanes(sim, circuit, random.Random(seed))
    sim.comb_eval()
    assert not np.any(sim.value & ~sim.care)


def test_unseeded_sources_default_to_x():
    builder = CircuitBuilder("t")
    a, b = builder.input("a"), builder.input("b")
    builder.output("o", builder.and_(a, b, name="g"))
    circuit = builder.build()
    sim = TernarySimulator(circuit, words=1)
    sim.comb_eval()
    assert sim.lane_value(circuit.id_of("g"), 0) is X


def test_pinned_row_overrides_plan_and_propagates():
    builder = CircuitBuilder("t")
    a, b, c = builder.input("a"), builder.input("b"), builder.input("c")
    g = builder.and_(a, b, name="g")
    builder.output("o", builder.or_(g, c, name="h"))
    circuit = builder.build()
    g_id, h_id = circuit.id_of("g"), circuit.id_of("h")

    sim = TernarySimulator(circuit, words=1)
    # a=b=1 would make g=1; pin g to X instead and drive c=0 / c=1 on
    # two lanes: h must read the pin, not the computed value.
    value = pack_lane_matrix(np.array([[1, 1], [1, 1], [0, 1]], dtype=np.uint8), 1)
    care = pack_lane_matrix(np.ones((3, 2), dtype=np.uint8), 1)
    sim.set_source_planes([a, b, c], value, care)
    pin = np.asarray([g_id], dtype=np.intp)
    sim.comb_eval(pin, np.zeros((1, 1), np.uint64), np.zeros((1, 1), np.uint64))
    assert sim.lane_value(g_id, 0) is X  # pin held after the sweep
    assert sim.lane_value(h_id, 0) is X  # X OR 0 = X
    assert sim.lane_value(h_id, 1) == 1  # X OR 1 = 1


def test_clear_sources_resets_to_x_but_keeps_constants():
    builder = CircuitBuilder("t")
    a = builder.input("a")
    one = builder.const1("one")
    builder.output("o", builder.and_(a, one, name="g"))
    circuit = builder.build()
    sim = TernarySimulator(circuit, words=1)
    ones = np.full((1, 1), np.uint64(0xFFFFFFFFFFFFFFFF))
    sim.set_source_planes([a], ones, ones)
    sim.comb_eval()
    assert sim.lane_value(circuit.id_of("g"), 0) == 1
    sim.clear_sources()
    sim.comb_eval()
    assert sim.lane_value(a, 0) is X
    assert sim.lane_value(circuit.id_of("one"), 0) == 1
    assert sim.lane_value(circuit.id_of("g"), 0) is X


@given(seeds, st.integers(min_value=1, max_value=3))
def test_pack_lane_matrix_roundtrip(seed, words):
    rng = np.random.default_rng(seed)
    lanes = rng.integers(1, 64 * words + 1)
    matrix = rng.integers(0, 2, size=(5, lanes), dtype=np.uint8)
    packed = pack_lane_matrix(matrix, words)
    assert packed.shape == (5, words)
    for lane in range(int(lanes)):
        bits = (packed[:, lane // 64] >> np.uint64(lane % 64)) & np.uint64(1)
        assert np.array_equal(bits.astype(np.uint8), matrix[:, lane])


def test_pack_lane_matrix_rejects_overflow():
    import pytest

    with pytest.raises(ValueError, match="do not fit"):
        pack_lane_matrix(np.zeros((2, 65), dtype=np.uint8), 1)
