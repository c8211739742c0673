"""Ablation A2 — D-algorithm-style vs PODEM-style backtrack search (§4.5).

The paper chose a D-algorithm flavour "because it assigns values to
internal nodes directly and tries to detect contradictions faster than
[a] PODEM based method" on the mostly-redundant targets of the MC check.
Both engines are implemented here; this module verifies they classify
every pair identically and measures the cost difference the paper's
choice is based on.
"""

from __future__ import annotations

import pytest

from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs
from repro.reporting.tables import format_table

from conftest import PROFILE, record_report
from repro.bench_gen.suite import suite

_CIRCUITS = suite(PROFILE)
_IDS = [c.name for c in _CIRCUITS]
_ENGINES = ("dalg", "podem")


@pytest.mark.parametrize("engine", _ENGINES)
def test_search_engine_cost(benchmark, engine):
    circuit = _CIRCUITS[-1]
    options = DetectorOptions(search_engine=engine, use_random_sim=False,
                              backtrack_limit=10_000)
    result = benchmark(detect_multi_cycle_pairs, circuit, options)
    assert result.connected_pairs > 0


def test_engines_agree_and_report(benchmark, bench_circuits):
    def run_all():
        rows = []
        for circuit in bench_circuits:
            verdicts = {}
            for engine in _ENGINES:
                options = DetectorOptions(
                    search_engine=engine, use_random_sim=False,
                    backtrack_limit=10_000,
                )
                verdicts[engine] = detect_multi_cycle_pairs(circuit, options)
            assert (verdicts["dalg"].multi_cycle_pair_names()
                    == verdicts["podem"].multi_cycle_pair_names()), (
                f"engines disagree on {circuit.name}"
            )
            rows.append([
                circuit.name,
                len(verdicts["dalg"].multi_cycle_pairs),
                verdicts["dalg"].total_seconds,
                verdicts["podem"].total_seconds,
            ])
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    record_report(format_table(
        "Ablation A2: D-algorithm vs PODEM search (random sim disabled)",
        ["circuit", "MC-pair", "dalg (s)", "podem (s)"],
        rows,
        ["Identical verdicts; only the exploration cost differs (§4.5)."],
    ))


@pytest.mark.parametrize("guided", [False, True], ids=["plain", "scoap"])
def test_scoap_guidance_cost(benchmark, guided):
    """SCOAP-ordered decisions vs declaration order (verdict-invariant)."""
    circuit = _CIRCUITS[-1]
    options = DetectorOptions(use_random_sim=False,
                              search_engine="scoap" if guided else "dalg",
                              backtrack_limit=10_000)
    result = benchmark(detect_multi_cycle_pairs, circuit, options)
    assert result.connected_pairs > 0
