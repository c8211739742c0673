"""Result-type accessors and stage accounting."""

import dataclasses

import pytest

from repro.circuit.topology import FFPair
from repro.core.detector import detect_multi_cycle_pairs
from repro.core.result import (
    CaseOutcome,
    CaseResult,
    Classification,
    PairResult,
    Stage,
    StageStats,
)


def test_pair_result_is_multi_cycle_flag():
    pair = FFPair(0, 1)
    assert PairResult(pair, Classification.MULTI_CYCLE,
                      Stage.IMPLICATION).is_multi_cycle
    assert not PairResult(pair, Classification.SINGLE_CYCLE,
                          Stage.SIMULATION).is_multi_cycle
    assert not PairResult(pair, Classification.UNDECIDED,
                          Stage.ATPG).is_multi_cycle


def test_case_result_defaults():
    case = CaseResult(0, 1, CaseOutcome.IMPLIED_STABLE)
    assert case.decisions == 0 and case.witness is None


def test_case_result_is_frozen():
    """Equal case records may be one shared instance, so none may change."""
    case = CaseResult(0, 1, CaseOutcome.IMPLIED_STABLE)
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.outcome = CaseOutcome.VIOLATED
    assert case == CaseResult(0, 1, CaseOutcome.IMPLIED_STABLE)


def test_detection_result_partitions(fig1):
    result = detect_multi_cycle_pairs(fig1)
    total = (len(result.multi_cycle_pairs) + len(result.single_cycle_pairs)
             + len(result.undecided_pairs))
    assert total == result.connected_pairs


def test_pair_names_helper(fig1):
    result = detect_multi_cycle_pairs(fig1)
    first = result.pair_results[0]
    source, sink = result.pair_names(first)
    assert source == fig1.names[first.pair.source]
    assert sink == fig1.names[first.pair.sink]


def test_stage_stats_default_zero():
    stats = StageStats()
    assert stats.single_cycle == stats.multi_cycle == stats.undecided == 0
    assert stats.cpu_seconds == 0.0


def test_every_stage_reported(fig1):
    result = detect_multi_cycle_pairs(fig1)
    assert set(result.stats) == set(Stage)


def test_cases_recorded_for_analysed_pairs(fig1):
    result = detect_multi_cycle_pairs(fig1)
    for pair_result in result.pair_results:
        if pair_result.stage is Stage.SIMULATION:
            assert pair_result.cases == []
        else:
            assert 1 <= len(pair_result.cases) <= 4
            for case in pair_result.cases:
                assert case.a in (0, 1) and case.b in (0, 1)
