"""Unit tests for the per-gate sensitization extension options.

The reachability proof that runs before each path search is checked
on whole searches against the walk without it
(``tests/core/path_search_oracle.py``).
"""

import pytest
from hypothesis import given, settings

from repro.circuit.builder import CircuitBuilder
from repro.core.hazard import HazardChecker
from repro.core.sensitization import (
    PathSearchOutcome,
    SensitizationMode,
    _extension_options,
    find_sensitizable_path,
)
from repro.atpg.implication import ImplicationEngine
from repro.logic.values import ONE, ZERO
from tests.analysis.oracle_sweep import parity_mux_circuit
from tests.core import path_search_oracle
from tests.strategies import random_sequential_circuit, seeds


def _engine_for(build):
    builder = CircuitBuilder("t")
    build(builder)
    circuit = builder.build()
    return circuit, ImplicationEngine(circuit)


def test_and_gate_options():
    def build(b):
        a, c, d = b.input("a"), b.input("c"), b.input("d")
        b.output("o", b.and_(a, c, d, name="g"))

    circuit, engine = _engine_for(build)
    gate = circuit.id_of("g")
    via = circuit.id_of("a")
    sens = _extension_options(engine, gate, via,
                              SensitizationMode.STATIC_SENSITIZATION)
    # One option: both side inputs non-controlling (1 for AND).
    assert sens == [[(circuit.id_of("c"), ONE), (circuit.id_of("d"), ONE)]]

    cosens = _extension_options(engine, gate, via,
                                SensitizationMode.STATIC_CO_SENSITIZATION)
    assert len(cosens) == 2
    assert [(via, ZERO)] in cosens  # on-input at the controlling value


def test_or_gate_noncontrolling_is_zero():
    def build(b):
        a, c = b.input("a"), b.input("c")
        b.output("o", b.or_(a, c, name="g"))

    circuit, engine = _engine_for(build)
    sens = _extension_options(
        engine, circuit.id_of("g"), circuit.id_of("a"),
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert sens == [[(circuit.id_of("c"), ZERO)]]


def test_xor_gate_unconstrained():
    def build(b):
        a, c = b.input("a"), b.input("c")
        b.output("o", b.xor(a, c, name="g"))

    circuit, engine = _engine_for(build)
    for mode in SensitizationMode:
        assert _extension_options(
            engine, circuit.id_of("g"), circuit.id_of("a"), mode
        ) is None


def test_mux_options_by_role():
    def build(b):
        s, d0, d1 = b.input("s"), b.input("d0"), b.input("d1")
        b.output("o", b.mux(s, d0, d1, name="g"))

    circuit, engine = _engine_for(build)
    gate = circuit.id_of("g")
    s, d0, d1 = (circuit.id_of(n) for n in ("s", "d0", "d1"))
    via_select = _extension_options(engine, gate, s,
                                    SensitizationMode.STATIC_SENSITIZATION)
    assert len(via_select) == 2  # d0 != d1, both polarities
    via_d0 = _extension_options(engine, gate, d0,
                                SensitizationMode.STATIC_SENSITIZATION)
    assert via_d0 == [[(s, ZERO)]]
    via_d1 = _extension_options(engine, gate, d1,
                                SensitizationMode.STATIC_SENSITIZATION)
    assert via_d1 == [[(s, ONE)]]


def test_search_finds_multi_gate_path():
    def build(b):
        a, k1, k2 = b.input("a"), b.input("k1"), b.input("k2")
        g1 = b.and_(a, k1, name="g1")
        g2 = b.or_(g1, k2, name="g2")
        b.output("o", g2)

    circuit, engine = _engine_for(build)
    result = find_sensitizable_path(
        engine, circuit.id_of("a"), circuit.id_of("g2"),
        {circuit.id_of("g1"), circuit.id_of("g2")},
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert result.outcome is PathSearchOutcome.FOUND
    assert [circuit.names[n] for n in result.path] == ["a", "g1", "g2"]


def test_search_blocked_by_assumed_side_value():
    def build(b):
        a, k1 = b.input("a"), b.input("k1")
        b.output("o", b.and_(a, k1, name="g1"))

    circuit, engine = _engine_for(build)
    assert engine.assume(circuit.id_of("k1"), ZERO)  # controlling: blocks
    result = find_sensitizable_path(
        engine, circuit.id_of("a"), circuit.id_of("g1"),
        {circuit.id_of("g1")},
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert result.outcome is PathSearchOutcome.NONE


# ----------------------------------------------------------------------
# The reachability proof.
# ----------------------------------------------------------------------
_SEARCH_BUILDS = pytest.mark.parametrize(
    "build",
    [
        lambda seed: random_sequential_circuit(seed, max_dffs=5, max_gates=16),
        parity_mux_circuit,
    ],
    ids=["random", "parity-mux"],
)
_SEARCH_BUDGETS = pytest.mark.parametrize(
    "budgets",
    [{}, {"backtrack_limit": 0, "max_attempts": 3}],
    ids=["default", "starved"],
)


@_SEARCH_BUDGETS
@_SEARCH_BUILDS
@given(seed=seeds)
@settings(max_examples=15)
def test_proof_settles_only_searches_without_a_path(build, budgets, seed):
    """Every case premise of every FF pair, both modes: a search the
    proof settles is NONE or UNKNOWN for the walk without the proof
    (which reads the whole transitive fan-in), and every other search
    gives that walk's outcome, path and attempts.

    The random circuits hold MUXes and flip-flops fed straight by
    another flip-flop, whose target is the source's own node."""
    circuit = build(seed)
    checker = HazardChecker(circuit)
    expansion = checker.expansion
    engine = checker.engine
    frame2 = checker._frame2_nodes
    for source in range(len(circuit.dffs)):
        for sink in range(len(circuit.dffs)):
            start = expansion.ff_at[1][source]
            target = expansion.ff_at[2][sink]
            cone = checker._sink_cone(target)
            for a in (0, 1):
                for b in (0, 1):
                    mark = engine.checkpoint()
                    premise = [
                        (expansion.ff_at[0][source], a), (start, 1 - a),
                        (expansion.ff_at[1][sink], b), (target, b),
                    ]
                    if engine.assume_all(premise):
                        values = bytes(engine.assignment.values)
                        for mode in SensitizationMode:
                            got = find_sensitizable_path(
                                engine, start, target, frame2, mode,
                                reach=cone, **budgets,
                            )
                            assert bytes(engine.assignment.values) == values
                            want = path_search_oracle.find_sensitizable_path(
                                engine, start, target, frame2, mode, **budgets
                            )
                            if got.unreachable:
                                assert (got.outcome, got.attempts) == (
                                    PathSearchOutcome.NONE, 0
                                )
                                assert want.outcome is not PathSearchOutcome.FOUND
                            else:
                                assert (got.outcome, got.path, got.attempts) == (
                                    want.outcome, want.path, want.attempts
                                )
                    engine.backtrack(mark)
