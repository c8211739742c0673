"""The one-loop implication engine against the per-rule dispatch oracle.

:class:`~tests.atpg.rule_oracle.RuleOracleEngine` runs the gate rules
one method call at a time.  The engine in ``src/`` must take exactly the
same steps: after every ``assume``/``assume_all``/``checkpoint``/
``backtrack`` of a random sequence, both hold the same values, trail,
``position``/``reason`` of every assigned node, ``unjustified`` set,
``_jtrail`` ops and ``implications`` count, and after a failed assume
the same ``conflict_seeds()``.  The backjumping search reads those
reasons and conflict seeds, so any drift would move its decisions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.implication_db import implication_db
from repro.atpg.implication import ImplicationEngine
from repro.atpg.learning import learn_static_implications
from repro.circuit.timeframe import expand

from tests.atpg.rule_oracle import RuleOracleEngine
from tests.strategies import (
    random_combinational_circuit,
    random_sequential_circuit,
    seeds,
)

_literal = st.tuples(st.integers(min_value=0, max_value=1 << 16), st.integers(0, 1))
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("assume"), _literal),
        st.tuples(st.just("assume_all"), st.lists(_literal, min_size=1, max_size=4)),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("backtrack")),
    ),
    min_size=1,
    max_size=24,
)


def _circuit(kind, seed):
    if kind == "sequential":
        return expand(random_sequential_circuit(seed, max_gates=16), 2).comb
    return random_combinational_circuit(seed, max_inputs=6, max_gates=18)


def _table(name, circuit):
    if name == "learned":
        return learn_static_implications(circuit)
    if name == "db":
        return implication_db(circuit)
    return None


def _state(engine):
    trail = list(engine.assignment.trail)
    return {
        "values": bytes(engine.assignment.values),
        "trail": trail,
        "reasons": [(engine.position[n], engine.reason[n]) for n in trail],
        "unjustified": sorted(engine.unjustified),
        "jtrail": list(engine._jtrail),
        "implications": engine.implications,
        "why": engine._why,
    }


@pytest.mark.parametrize("table", ["none", "learned", "db"])
@pytest.mark.parametrize("kind", ["sequential", "combinational"])
@settings(max_examples=150, deadline=None)
@given(seed=seeds, ops=_ops)
def test_engine_steps_like_rule_oracle(kind, table, seed, ops):
    circuit = _circuit(kind, seed)
    learned = _table(table, circuit)
    engine = ImplicationEngine(circuit, learned=learned)
    oracle = RuleOracleEngine(circuit, learned=learned)
    num_nodes = circuit.num_nodes
    marks = []
    for op in ops:
        if op[0] == "assume":
            node, value = op[1]
            results = [e.assume(node % num_nodes, value) for e in (engine, oracle)]
        elif op[0] == "assume_all":
            literals = [(node % num_nodes, value) for node, value in op[1]]
            results = [e.assume_all(literals) for e in (engine, oracle)]
        elif op[0] == "checkpoint":
            mark = engine.checkpoint()
            assert oracle.checkpoint() == mark
            marks.append(mark)
            continue
        else:
            mark = marks.pop() if marks else engine._base_mark
            engine.backtrack(mark)
            oracle.backtrack(mark)
            assert _state(engine) == _state(oracle)
            continue
        assert results[0] == results[1], op
        assert _state(engine) == _state(oracle), op
        if not results[0]:
            assert engine.conflict_seeds() == oracle.conflict_seeds()
            assert engine._clash == oracle._clash


@pytest.mark.parametrize("table", ["learned", "db"])
def test_learned_consequents_and_clashes_are_reached(table):
    """On these circuits learned tables post consequents and clash, so
    the learned cases of the differential compare more than the rules."""
    posted = clashes = 0
    for seed in range(40):
        circuit = _circuit("sequential", seed)
        engine = ImplicationEngine(circuit, learned=_table(table, circuit))
        for start in range(0, 2 * circuit.num_nodes, 7):
            literals = [((start + 3 * k) % circuit.num_nodes, k & 1) for k in range(3)]
            mark = engine.checkpoint()
            if not engine.assume_all(literals):
                clashes += engine._why <= -2
            trail = engine.assignment.trail[mark[0]:]
            posted += sum(engine.reason[n] <= -2 for n in trail)
            engine.backtrack(mark)
    assert posted > 0
    assert clashes > 0
