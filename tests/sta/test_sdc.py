"""SDC emission from detection results."""

import pytest

from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs
from repro.core.result import CaseOutcome
from repro.sta.constraints import (
    constraints_json,
    format_sdc,
    sdc_constraints,
)

import json


def test_one_constraint_per_multi_cycle_pair(fig1):
    detection = detect_multi_cycle_pairs(fig1)
    constraints = sdc_constraints(detection)
    assert len(constraints) == len(detection.multi_cycle_pairs)
    assert constraints == sorted(
        constraints, key=lambda c: (c.source, c.sink)
    )
    for constraint in constraints:
        assert constraint.kind in ("multicycle", "false-path")
        assert constraint.safe  # hazard stage was off: nothing flagged


def test_false_path_when_all_cases_contradict(fig1):
    detection = detect_multi_cycle_pairs(fig1)
    expected = set()
    names = fig1.names
    for result in detection.multi_cycle_pairs:
        if result.cases and all(
            c.outcome is CaseOutcome.CONTRADICTION for c in result.cases
        ):
            expected.add((names[result.pair.source],
                          names[result.pair.sink]))
    constraints = sdc_constraints(detection)
    assert {
        (c.source, c.sink) for c in constraints if c.kind == "false-path"
    } == expected


def test_sdc_text_shape(fig1):
    detection = detect_multi_cycle_pairs(fig1)
    text = format_sdc(detection)
    assert text.startswith("# multi-cycle path constraints for fig1")
    assert "hazard stage was off" in text
    relaxed = [
        line for line in text.splitlines()
        if line.startswith("set_multicycle_path -setup")
    ]
    false_paths = [
        line for line in text.splitlines()
        if line.startswith("set_false_path")
    ]
    assert len(relaxed) + len(false_paths) == len(
        detection.multi_cycle_pairs
    )
    for line in relaxed:
        assert "-setup 2" in line and "get_cells" in line


def test_hazard_flagged_pairs_are_commented_out(fig1):
    detection = detect_multi_cycle_pairs(
        fig1, DetectorOptions(hazard_check="exact")
    )
    assert detection.hazard_flagged  # fig1 has hazard-flagged MC pairs
    constraints = sdc_constraints(detection)
    flagged = [c for c in constraints if c.hazard_flagged]
    assert len(flagged) == detection.hazard_flagged
    text = format_sdc(detection, constraints=constraints)
    for constraint in flagged:
        assert (
            f"# {constraint.hazard_verdict}, not relaxed: "
            f"{constraint.source} -> {constraint.sink}" in text
        )
    # Active (uncommented) commands cover exactly the safe constraints.
    active = [
        line for line in text.splitlines()
        if line.startswith(("set_multicycle_path", "set_false_path"))
    ]
    safe = [c for c in constraints if c.safe]
    assert all(f"{{{c.sink}}}" in " ".join(active) for c in safe)
    for constraint in flagged:
        span = (
            f"-from [get_cells {{{constraint.source}}}] "
            f"-to [get_cells {{{constraint.sink}}}]"
        )
        assert not any(span in line for line in active)


def test_budget_controls_setup_multiplier(fig1):
    detection = detect_multi_cycle_pairs(fig1)
    text = format_sdc(detection, multi_cycle_budget=3)
    assert "-setup 3" in text
    assert "-hold 2" in text


def test_json_interchange_roundtrip(fig1):
    detection = detect_multi_cycle_pairs(
        fig1, DetectorOptions(hazard_check="exact")
    )
    payload = json.loads(constraints_json(detection))
    assert payload["circuit"] == "fig1"
    assert payload["hazard_mode"] == "exact"
    constraints = sdc_constraints(detection)
    assert len(payload["constraints"]) == len(constraints)
    for entry, constraint in zip(payload["constraints"], constraints):
        assert entry["source"] == constraint.source
        assert entry["sink"] == constraint.sink
        assert entry["safe"] == constraint.safe
        assert entry["hazard_flagged"] == constraint.hazard_flagged


def test_single_cycle_only_circuit_emits_nothing(shift4):
    detection = detect_multi_cycle_pairs(shift4)
    if detection.multi_cycle_pairs:
        return  # library change; the property below is vacuous then
    assert sdc_constraints(detection) == []
    text = format_sdc(detection)
    assert "set_multicycle_path" not in text


# ----------------------------------------------------------------------
# Exact three-way verdicts (--hazard-check exact).
# ----------------------------------------------------------------------
def _exact(circuit):
    return detect_multi_cycle_pairs(
        circuit, DetectorOptions(hazard_check="exact")
    )


def test_exact_verdict_flows_into_constraints(fig1):
    detection = _exact(fig1)
    assert detection.hazard_verdicts  # fig1 has MC pairs to classify
    constraints = sdc_constraints(detection)
    verdicts = {
        (fig1.names[v.pair.source], fig1.names[v.pair.sink]):
            v.verdict.value
        for v in detection.hazard_verdicts
    }
    for constraint in constraints:
        assert constraint.hazard_verdict == verdicts[
            (constraint.source, constraint.sink)
        ]
        # Exact "safe" pairs relax; proven/possible pairs are gated.
        if constraint.hazard_verdict == "safe":
            assert not constraint.hazard_flagged


def test_exact_glitch_proven_commented_with_verdict(fig1):
    detection = _exact(fig1)
    constraints = sdc_constraints(detection)
    text = format_sdc(detection, constraints=constraints)
    gated = [c for c in constraints if c.hazard_flagged]
    assert gated  # fig1 has glitch-proven pairs
    for constraint in gated:
        assert (
            f"# {constraint.hazard_verdict}, not relaxed: "
            f"{constraint.source} -> {constraint.sink}" in text
        )
    active = [
        line for line in text.splitlines()
        if line.startswith(("set_multicycle_path", "set_false_path"))
    ]
    for constraint in gated:
        span = (
            f"-from [get_cells {{{constraint.source}}}] "
            f"-to [get_cells {{{constraint.sink}}}]"
        )
        assert not any(span in line for line in active)


def test_exact_json_interchange_carries_verdict(fig1):
    detection = _exact(fig1)
    payload = json.loads(constraints_json(detection))
    assert payload["hazard_mode"] == "exact"
    kinds = {"safe", "glitch-possible", "glitch-proven"}
    for entry in payload["constraints"]:
        assert entry["hazard_verdict"] in kinds
        if entry["hazard_verdict"] == "safe":
            assert entry["safe"]


def test_k1_budget_emits_setup_one_hold_zero(fig1):
    """Regression: k=1 keeps -setup 1 / -hold 0 (a no-op relaxation)."""
    detection = _exact(fig1)
    text = format_sdc(detection, multi_cycle_budget=1)
    assert "-setup 1" in text
    assert "-hold 0" in text
    assert "-setup 2" not in text


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_cycle_is_rejected(fig1, budget):
    """A budget of 0 would write ``-setup 0`` and ``-hold -1``, and
    divide by zero in the relaxation report: every entry point raises
    ``ValueError`` naming the value, the JSON form also when it is
    given the constraints it renders."""
    from repro.sta.constraints import relaxation_report

    detection = detect_multi_cycle_pairs(fig1)
    constraints = sdc_constraints(detection)
    message = f"multi_cycle_budget must be >= 1, got {budget}"
    with pytest.raises(ValueError, match=message):
        relaxation_report(fig1, detection, multi_cycle_budget=budget)
    with pytest.raises(ValueError, match=message):
        sdc_constraints(detection, budget)
    with pytest.raises(ValueError, match=message):
        format_sdc(detection, multi_cycle_budget=budget)
    with pytest.raises(ValueError, match=message):
        constraints_json(detection, budget)
    with pytest.raises(ValueError, match=message):
        constraints_json(detection, budget, constraints=constraints)


def test_all_contradiction_pair_is_safe_false_path():
    """A shift pair (sink.D = source.Q) contradicts every implication
    case, so it is multi-cycle, a false path in SDC, and exactly safe
    without any SAT solve (decided by the case analysis alone)."""
    from repro.circuit.builder import CircuitBuilder

    b = CircuitBuilder("shift-pair")
    src = b.dff("FFA")
    b.dff("FFB", d=b.buf(src, name="g"))
    b.drive(src, b.input("pi"))
    circuit = b.build()
    detection = _exact(circuit)
    names = circuit.names
    pairs = {
        (names[r.pair.source], names[r.pair.sink])
        for r in detection.multi_cycle_pairs
    }
    if ("FFA", "FFB") not in pairs:
        return  # library/classifier change; property is vacuous then
    constraints = sdc_constraints(detection)
    by_pair = {(c.source, c.sink): c for c in constraints}
    constraint = by_pair[("FFA", "FFB")]
    assert constraint.kind == "false-path"
    assert constraint.cycles == 0
    assert constraint.hazard_verdict == "safe"
    assert constraint.safe
    verdict = next(
        v for v in detection.hazard_verdicts
        if (names[v.pair.source], names[v.pair.sink]) == ("FFA", "FFB")
    )
    assert verdict.decided_by == "cases"
    text = format_sdc(detection, constraints=constraints)
    assert "set_false_path -from [get_cells {FFA}] " \
           "-to [get_cells {FFB}]" in text
