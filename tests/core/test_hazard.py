"""Static hazard checking: the paper's Section 5 claims on Fig. 3/Fig. 4.

The per-mode claims run against the per-mode walk of
``tests/core/hazard_oracle.py``; the §5.2 split and the budget rule run
against the bounds an exact hazard pass records on every verdict.
"""

import pytest

from repro.circuit.techmap import techmap
from repro.circuit.timeframe import expand
from repro.circuit.topology import FFPair
from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs
from repro.core.hazard import HazardChecker
from repro.core.result import Classification, PairResult, Stage
from repro.core.sensitization import (
    PathSearchOutcome,
    SensitizationMode,
    find_sensitizable_path,
)
from repro.atpg.implication import ImplicationEngine

from hypothesis import given, settings
from tests.analysis.oracle_sweep import parity_mux_circuit
from tests.core import path_search_oracle
from tests.core.hazard_oracle import ModeWalk, check_hazards, flagged_names
from tests.strategies import random_sequential_circuit, seeds

SENS = SensitizationMode.STATIC_SENSITIZATION
COSENS = SensitizationMode.STATIC_CO_SENSITIZATION
#: search budgets no random test circuit exhausts
UNLIMITED = {"backtrack_limit": 10_000, "max_attempts": 50_000}


def _exact(circuit):
    return detect_multi_cycle_pairs(
        circuit, DetectorOptions(hazard_check="exact")
    )


def _names(circuit, verdict):
    return circuit.names[verdict.pair.source], circuit.names[verdict.pair.sink]


def test_fig3_ff3_ff2_flagged_by_sensitization(fig3):
    """The paper's Fig. 3 example: the MC pair (FF3, FF2) admits a static
    hazard through MUX2's AND/OR structure, found by static sensitization."""
    detection = detect_multi_cycle_pairs(fig3)
    assert ("FF3", "FF2") in flagged_names(
        fig3, check_hazards(fig3, detection, SENS)
    )


def test_fig3_hazard_witness_runs_through_mux2(fig3):
    detection = detect_multi_cycle_pairs(fig3)
    walk = ModeWalk(fig3, SENS)
    target = next(
        p for p in detection.multi_cycle_pairs
        if (fig3.names[p.pair.source], fig3.names[p.pair.sink]) == ("FF3", "FF2")
    )
    report = walk.check_pair(target)
    assert report.has_potential_hazard
    path_names = [walk.expansion.comb.names[n] for n in report.witness_path]
    assert any("MUX2" in name for name in path_names)
    # The exact pass records the same witness on the pair's verdict.
    (verdict,) = [
        v for v in _exact(fig3).hazard_verdicts
        if _names(fig3, v) == ("FF3", "FF2")
    ]
    assert verdict.witness_case == report.witness_case
    assert verdict.witness_path == report.witness_path


def test_cosensitization_flags_superset(fig3):
    """Every pair flagged by sensitization is flagged by co-sensitization
    (a statically sensitizable path is statically co-sensitizable)."""
    detection = detect_multi_cycle_pairs(fig3)
    assert set(flagged_names(fig3, check_hazards(fig3, detection, SENS))) <= set(
        flagged_names(fig3, check_hazards(fig3, detection, COSENS))
    )


@given(seeds)
def test_table3_ordering_on_random_circuits(seed):
    """before >= kept(sensitize) >= kept(co-sensitize) must always hold."""
    circuit = techmap(
        random_sequential_circuit(seed, max_inputs=2, max_dffs=3, max_gates=8)
    )
    detection = detect_multi_cycle_pairs(circuit)
    before = len(detection.multi_cycle_pairs)
    kept_sens = before - len(
        flagged_names(circuit, check_hazards(circuit, detection, SENS, **UNLIMITED))
    )
    kept_cosens = before - len(
        flagged_names(circuit, check_hazards(circuit, detection, COSENS, **UNLIMITED))
    )
    assert before >= kept_sens >= kept_cosens


def test_fig4_path_cosensitizable_but_not_sensitizable(fig4):
    """The Fig. 4 fragment: with side input B at 0, the A -> C path is
    statically co-sensitizable but not statically sensitizable."""
    expansion = expand(fig4, 2)
    engine = ImplicationEngine(expansion.comb)
    comb = expansion.comb
    a_index = expansion.ff_index(fig4.id_of("A"))
    b_index = expansion.ff_index(fig4.id_of("B"))
    a_node = expansion.ff_at[1][a_index]  # FF A's value entering frame 2
    b_node = expansion.ff_at[1][b_index]
    c_node = comb.id_of("C@1")            # the AND gate inside frame 2
    allowed = {c_node}
    assert engine.assume(b_node, 0)  # B presents the controlling value

    sens = find_sensitizable_path(
        engine, a_node, c_node, allowed,
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert sens.outcome is PathSearchOutcome.NONE

    cosens = find_sensitizable_path(
        engine, a_node, c_node, allowed,
        SensitizationMode.STATIC_CO_SENSITIZATION,
    )
    assert cosens.outcome is PathSearchOutcome.FOUND


def test_path_search_restores_engine(fig4):
    expansion = expand(fig4, 2)
    engine = ImplicationEngine(expansion.comb)
    comb = expansion.comb
    a_node = expansion.ff_at[1][expansion.ff_index(fig4.id_of("A"))]
    before = list(engine.assignment.values)
    find_sensitizable_path(
        engine, a_node, comb.id_of("C@1"), {comb.id_of("C@1")},
        SensitizationMode.STATIC_CO_SENSITIZATION,
    )
    assert list(engine.assignment.values) == before


def test_unreachable_source_is_none(fig3):
    checker = HazardChecker(fig3)
    comb = checker.expansion.comb
    engine = checker.engine
    # A frame-2 PI cannot reach a frame-1-only node.
    result = find_sensitizable_path(
        engine, comb.id_of("IN@1"), comb.id_of("IN@0"), frozenset(),
        SensitizationMode.STATIC_SENSITIZATION,
    )
    assert result.outcome is PathSearchOutcome.NONE


def test_attempt_limit_flags_conservatively(fig3):
    """A search budget hit neither clears a pair nor proves a glitch.

    With no path-search budget every search that the reachability
    proof does not settle ends UNKNOWN: the co-sensitization bound flags
    every pair with a satisfiable case (each fig3 pair has a case no
    proof clears) and the sensitization bound flags none (the per-mode
    sensitization walk flagged them all, as ``limited``).
    """
    from repro.analysis.hazard_exact import ExactHazardChecker

    pair_results = detect_multi_cycle_pairs(fig3).multi_cycle_pairs
    verdicts = ExactHazardChecker(fig3, max_attempts=0).check_pairs(pair_results)
    assert [v.cosensitize_flagged for v in verdicts] == [
        bool(HazardChecker._satisfiable_cases(p)) for p in pair_results
    ]
    assert any(v.cosensitize_flagged for v in verdicts)
    assert not any(v.sensitize_flagged for v in verdicts)
    assert all(v.witness_path is None for v in verdicts)
    walk = ModeWalk(fig3, SENS, max_attempts=0)
    reports = [walk.check_pair(p) for p in pair_results]
    assert all(r.limited == r.has_potential_hazard for r in reports)


def test_hazard_appears_only_after_mapping(fig1, fig3):
    """The paper's core Section 5 insight: hazards are a property of the
    *implementation*.  On the composite-MUX fig1 the select path of the
    pair (FF3, FF2) is not statically sensitizable (the data inputs are
    forced equal whenever FF3 toggles), but the Fig. 3 AND/OR mapping of
    the same function exposes a sensitizable hazard path through
    MUX2's AND1/OR — hence hazard analysis runs on mapped netlists."""
    def sensitize_flagged(circuit):
        return {
            _names(circuit, v) for v in _exact(circuit).hazard_verdicts
            if v.sensitize_flagged
        }

    assert ("FF3", "FF2") not in sensitize_flagged(fig1)
    assert ("FF3", "FF2") in sensitize_flagged(fig3)


def test_classify_hazards_partitions_mc_pairs(fig3):
    detection = _exact(fig3)
    classes = {}
    for verdict in detection.hazard_verdicts:
        classes.setdefault(verdict.bound_class, []).append(
            _names(fig3, verdict)
        )
    assert set(classes) <= {"safe", "dependent", "hazardous"}
    total = sum(len(v) for v in classes.values())
    assert total == len(detection.multi_cycle_pairs)
    # The paper's Fig. 3 pair is outright hazardous.
    assert ("FF3", "FF2") in classes["hazardous"]
    # (FF1, FF2) is clean under sensitization but co-sensitization flags
    # it: the dependency class of §5.2.
    assert ("FF1", "FF2") in classes["dependent"]


@given(seeds)
def test_classify_hazards_consistent_with_individual_checks(seed):
    from repro.analysis.hazard_exact import ExactHazardChecker

    circuit = techmap(
        random_sequential_circuit(seed, max_inputs=2, max_dffs=3, max_gates=8)
    )
    detection = detect_multi_cycle_pairs(circuit)
    verdicts = ExactHazardChecker(circuit, **UNLIMITED).check_pairs(
        detection.multi_cycle_pairs
    )
    hazardous = sorted(
        _names(circuit, v) for v in verdicts if v.bound_class == "hazardous"
    )
    dependent_or_worse = sorted(
        _names(circuit, v) for v in verdicts if v.bound_class != "safe"
    )
    sens = check_hazards(circuit, detection, SENS, **UNLIMITED)
    cosens = check_hazards(circuit, detection, COSENS, **UNLIMITED)
    assert hazardous == flagged_names(circuit, sens)
    assert dependent_or_worse == flagged_names(circuit, cosens)


@pytest.mark.parametrize(
    "budgets", [{}, {"backtrack_limit": 0, "max_attempts": 3}],
    ids=["default", "starved"],
)
@pytest.mark.parametrize(
    "build",
    [
        lambda seed: random_sequential_circuit(
            seed, max_inputs=4, max_dffs=6, max_gates=24
        ),
        parity_mux_circuit,
    ],
    ids=["random", "parity-mux"],
)
@given(seed=seeds)
@settings(max_examples=15)
def test_cases_cleared_at_the_launch_have_no_path(build, budgets, seed):
    """Every case the run walk clears, by one co-sensitization search on
    the launch state or by its own, has no co-sensitizable path: the
    per-case search without the reachability proof
    (``tests/core/path_search_oracle.py``), inside the case's whole
    premise, answers NONE or UNKNOWN.

    Bare records walk all four cases of every FF pair, so each round
    that no earlier case left open starts with a launch search."""
    circuit = build(seed)
    checker = HazardChecker(circuit, **budgets)
    records = [
        PairResult(FFPair(source, sink), Classification.MULTI_CYCLE, Stage.ATPG)
        for source in circuit.dffs
        for sink in circuit.dffs
    ]
    verdicts = checker.check_runs(records, [()] * len(records))
    expansion = checker.expansion
    engine = ImplicationEngine(expansion.comb)
    for record, verdict in zip(records, verdicts):
        source = expansion.ff_index(record.pair.source)
        sink = expansion.ff_index(record.pair.sink)
        start = expansion.ff_at[1][source]
        target = expansion.ff_at[2][sink]
        cases = HazardChecker._satisfiable_cases(record)
        cleared = cases[:len(cases) - len(verdict.open_cases)]
        assert verdict.cleared == (cleared == cases)
        for a, b in cleared:
            mark = engine.checkpoint()
            premise = [
                (expansion.ff_at[0][source], a), (start, 1 - a),
                (expansion.ff_at[1][sink], b), (target, b),
            ]
            if engine.assume_all(premise):
                found = path_search_oracle.find_sensitizable_path(
                    engine, start, target, checker._frame2_nodes, COSENS,
                    **budgets,
                )
                assert found.outcome is not PathSearchOutcome.FOUND
            engine.backtrack(mark)
