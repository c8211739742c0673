"""Experiment T3 — the paper's Table 3: static hazard checking.

Counts multi-cycle pairs before hazard checking and after validation by
static sensitization, the exact check and static co-sensitization, with
the checking CPU time.  One exact hazard pass per circuit records both
static bounds on every verdict, so every row is a count over one
verdict list.  The reproduced shape:

    pairs(before) >= pairs(sensitize) >= pairs(exact) >= pairs(co-sensitize)

(sensitization under-approximates the exact condition and
co-sensitization over-approximates it, so co-sensitization flags the
most pairs as potentially hazardous).
"""

from __future__ import annotations

import pytest

from repro.analysis.hazard_exact import ExactHazardChecker
from repro.circuit.techmap import techmap
from repro.core.detector import detect_multi_cycle_pairs
from repro.reporting.tables import run_table3

from conftest import PROFILE, record_report
from repro.bench_gen.suite import suite

_CIRCUITS = [techmap(c) for c in suite(PROFILE)]
_IDS = [c.name for c in _CIRCUITS]
_DETECTIONS = {c.name: detect_multi_cycle_pairs(c) for c in _CIRCUITS}


@pytest.mark.parametrize("circuit", _CIRCUITS, ids=_IDS)
def test_hazard_checking(benchmark, circuit):
    pairs = _DETECTIONS[circuit.name].multi_cycle_pairs
    verdicts = benchmark(lambda: ExactHazardChecker(circuit).check_pairs(pairs))
    assert len(verdicts) == len(pairs)
    for verdict in verdicts:
        # sensitize flagged <= exact flagged <= co-sensitize flagged
        assert verdict.cosensitize_flagged >= verdict.flagged
        assert verdict.flagged >= verdict.sensitize_flagged


def test_table3_report(benchmark, bench_circuits):
    table = benchmark.pedantic(run_table3, args=(bench_circuits,),
                               rounds=1, iterations=1)
    record_report(table.format())
    before, sensitize, exact, cosensitize = (row[1] for row in table.rows)
    assert before >= sensitize >= exact >= cosensitize
