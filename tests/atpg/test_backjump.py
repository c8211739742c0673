"""Conflict-directed backjumping against the chronological oracle.

:func:`repro.atpg.justify.justify` may skip only subtrees that hold no
solution, so against :func:`tests.atpg.chronological.chronological_justify`
on the same premise it must

* reach the same status whenever the oracle decides (it never aborts
  where the oracle decided, and may decide where the oracle aborted),
* return the identical witness on SAT,
* spend no more backtracks, and no more decisions when the oracle
  decides (a search both abort may walk further before its last
  backtrack).

Premises are the MC-violation cases of random sequential circuits:
``FF_i(t)=a, FF_i(t+1)=¬a, FF_j(t+1)=b, FF_j(t+2)=¬b``.
"""

import pytest
from hypothesis import given

from repro.analysis.implication_db import implication_db
from repro.atpg.implication import ImplicationEngine
from repro.atpg.justify import SearchStatus, justify
from repro.atpg.learning import learn_static_implications
from repro.atpg.scoap import compute_scoap, make_choice_sorter
from repro.circuit.builder import CircuitBuilder
from repro.circuit.timeframe import expand
from repro.core.brute import brute_force_mc_pairs
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.result import Classification
from repro.logic.values import BINARY, ONE

from tests.atpg.chronological import chronological_justify
from tests.strategies import random_sequential_circuit, seeds

CONFIGS = ("plain", "static-learning", "implication-db", "scoap")
LIMITS = (0, 2, 50, 100_000)


def _engine(comb, config):
    """The engine and choice sorter of one search configuration."""
    learned = None
    if config == "static-learning":
        learned = learn_static_implications(comb)
    elif config == "implication-db":
        learned = implication_db(comb)
    sorter = None
    if config == "scoap":
        sorter = make_choice_sorter(compute_scoap(comb))
    return ImplicationEngine(comb, learned=learned), sorter


def _violation_premises(expansion):
    ff_at = expansion.ff_at
    count = len(ff_at[0])
    for i in range(count):
        for j in range(count):
            for a in BINARY:
                for b in BINARY:
                    yield [(ff_at[0][i], a), (ff_at[1][i], 1 - a),
                           (ff_at[1][j], b), (ff_at[2][j], 1 - b)]


def _check_against_oracle(oracle, got):
    assert got.backtracks <= oracle.backtracks
    if oracle.status is SearchStatus.ABORTED:
        return
    assert got.status is oracle.status
    assert got.witness == oracle.witness
    assert got.decisions <= oracle.decisions


@pytest.mark.parametrize("config", CONFIGS)
@given(seed=seeds)
def test_backjumping_matches_chronological_oracle(config, seed):
    circuit = random_sequential_circuit(seed, max_inputs=4, max_dffs=5,
                                        max_gates=30)
    expansion = expand(circuit, frames=2)
    engine, sorter = _engine(expansion.comb, config)
    for premise in _violation_premises(expansion):
        mark = engine.checkpoint()
        if engine.assume_all(premise):
            before = bytes(engine.assignment.values)
            for limit in LIMITS:
                oracle = chronological_justify(engine, limit, sorter)
                got = justify(engine, limit, sorter)
                assert bytes(engine.assignment.values) == before
                _check_against_oracle(oracle, got)
        engine.backtrack(mark)


@given(seeds)
def test_decided_pairs_match_brute_force_at_tiny_limit(seed):
    """A limit of 2 leaves pairs undecided; every decided one is exact."""
    circuit = random_sequential_circuit(seed, max_inputs=3, max_dffs=4,
                                        max_gates=24)
    expected = brute_force_mc_pairs(circuit)
    result = MultiCycleDetector(
        circuit, DetectorOptions(backtrack_limit=2)
    ).run()
    for pair_result in result.pair_results:
        if pair_result.classification is Classification.UNDECIDED:
            continue
        key = (pair_result.pair.source, pair_result.pair.sink)
        is_multi = pair_result.classification is Classification.MULTI_CYCLE
        assert is_multi == (key in expected)


def _irrelevant_choice_circuit():
    """``o = OR(a1, a2)`` beside ``g = XOR(BUF(x), BUF(x))``.

    With ``o = 1`` and ``g = 1`` assumed, the search branches on ``o``
    first (it sits at a lower level).  ``g = 1`` is impossible whatever
    ``o``'s choice, which no conflict of ``g``'s subtree mentions.
    """
    builder = CircuitBuilder("backjump")
    a1, a2, x = builder.input("a1"), builder.input("a2"), builder.input("x")
    o = builder.or_(a1, a2, name="o")
    g = builder.xor(builder.buf(x, name="b1"), builder.buf(x, name="b2"),
                    name="g")
    builder.output("po", o)
    builder.output("pg", g)
    return builder.build(), o, g


def test_failure_independent_of_a_choice_is_proved_once():
    circuit, o, g = _irrelevant_choice_circuit()
    engine = ImplicationEngine(circuit)
    assert engine.assume_all([(o, ONE), (g, ONE)])
    oracle = chronological_justify(engine)
    got = justify(engine)
    assert oracle.status is got.status is SearchStatus.UNSAT
    # The oracle proves g's subtree under both of o's choices; the
    # backjumping search proves it once and stops.
    assert (oracle.decisions, oracle.backtracks) == (6, 6)
    assert (got.decisions, got.backtracks) == (3, 2)


def test_backjump_lets_a_tight_limit_decide():
    circuit, o, g = _irrelevant_choice_circuit()
    engine = ImplicationEngine(circuit)
    assert engine.assume_all([(o, ONE), (g, ONE)])
    assert chronological_justify(engine, backtrack_limit=2).status is (
        SearchStatus.ABORTED)
    assert justify(engine, backtrack_limit=2).status is SearchStatus.UNSAT
