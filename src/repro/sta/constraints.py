"""Applying detected multi-cycle pairs as timing constraints.

Quantifies the paper's motivation: every FF pair proven multi-cycle may be
given ``k`` clock periods instead of one, relaxing the timing constraints
used by synthesis/STA.  :func:`relaxation_report` compares the circuit's
timing before and after applying the detector's verdicts:

* per-pair required time ``k * period`` instead of ``period``,
* minimum feasible clock period with and without relaxation,
* slack distribution and the number of violating pairs at a given period.

:func:`sdc_constraints` turns the verdicts into interchange form — SDC
``set_multicycle_path`` / ``set_false_path`` commands (plus a JSON
mirror) that downstream synthesis/STA tools consume directly.  When the
detector's hazard stage ran (``--hazard-check exact``), flagged pairs
are *not* relaxed: the MC condition holds for settled values but a
static hazard could latch a transient, so the constraint is emitted
commented-out with its three-way verdict (glitch-proven /
glitch-possible) as the reason, and the JSON mirror carries a
``hazard_verdict`` field per pair.  "safe" pairs relax normally even
when co-sensitization alone would have flagged them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.circuit.netlist import Circuit
from repro.core.result import CaseOutcome, DetectionResult
from repro.sta.timing import DelayModel, ff_pair_delays


@dataclass
class PairTiming:
    source: int
    sink: int
    delay: float
    allowed_cycles: int

    def slack(self, period: float) -> float:
        return self.allowed_cycles * period - self.delay


@dataclass
class RelaxationReport:
    circuit: Circuit
    pair_timings: list[PairTiming]
    #: smallest clock period meeting every single-cycle constraint
    min_period_baseline: float
    #: smallest clock period when multi-cycle pairs get k cycles
    min_period_relaxed: float

    @property
    def speedup(self) -> float:
        """Clock-frequency gain unlocked by multi-cycle relaxation."""
        if self.min_period_relaxed == 0.0:
            return 1.0
        return self.min_period_baseline / self.min_period_relaxed

    def violations_at(self, period: float, relaxed: bool = True) -> int:
        """Number of pairs with negative slack at ``period``."""
        count = 0
        for timing in self.pair_timings:
            cycles = timing.allowed_cycles if relaxed else 1
            if cycles * period - timing.delay < 0:
                count += 1
        return count

    def worst_slack(self, period: float, relaxed: bool = True) -> float:
        slacks = [
            (t.allowed_cycles if relaxed else 1) * period - t.delay
            for t in self.pair_timings
        ]
        return min(slacks) if slacks else 0.0


def _check_budget(multi_cycle_budget: int) -> None:
    """Reject a multi-cycle budget below one cycle with a ``ValueError``.

    A budget of 0 would give relaxed pairs no time at all (``-setup 0``,
    ``-hold -1``); 1 is the single-cycle check, a no-op relaxation.
    """
    if multi_cycle_budget < 1:
        raise ValueError(
            f"multi_cycle_budget must be >= 1, got {multi_cycle_budget}"
        )


def relaxation_report(
    circuit: Circuit,
    detection: DetectionResult,
    model: DelayModel | None = None,
    multi_cycle_budget: int = 2,
) -> RelaxationReport:
    """Build the before/after timing comparison for one detection run.

    Multi-cycle pairs receive ``multi_cycle_budget`` cycles (the MC
    condition guarantees 2; callers holding k-cycle results may pass more
    per :mod:`repro.core.kcycle`).  Undecided and single-cycle pairs keep 1.
    A budget below 1 raises ``ValueError``.
    """
    _check_budget(multi_cycle_budget)
    delays = ff_pair_delays(circuit, model)
    budget: dict[tuple[int, int], int] = {}
    for result in detection.pair_results:
        key = (result.pair.source, result.pair.sink)
        budget[key] = multi_cycle_budget if result.is_multi_cycle else 1

    timings = [
        PairTiming(source, sink, delay, budget.get((source, sink), 1))
        for (source, sink), delay in sorted(delays.items())
    ]
    min_baseline = max((t.delay for t in timings), default=0.0)
    min_relaxed = max((t.delay / t.allowed_cycles for t in timings), default=0.0)
    return RelaxationReport(circuit, timings, min_baseline, min_relaxed)


# ----------------------------------------------------------------------
# SDC emission.
# ----------------------------------------------------------------------
@dataclass
class SdcConstraint:
    """One emitted timing exception for a detected multi-cycle FF pair."""

    source: str
    sink: str
    #: "multicycle" (``set_multicycle_path``) or "false-path"
    #: (``set_false_path`` — every implication case contradicted, so no
    #: single-cycle transition between the FFs is possible at all).
    kind: str
    #: setup multiplier for "multicycle" constraints; 0 for false paths.
    cycles: int
    #: the hazard stage flagged this pair — the relaxation is *unsafe*
    #: (a static hazard could latch a transient) and the SDC command is
    #: emitted commented-out.
    hazard_flagged: bool = False
    #: the exact three-way verdict ("safe" / "glitch-possible" /
    #: "glitch-proven") when the detection ran ``--hazard-check exact``;
    #: ``None`` when the hazard stage was off.
    hazard_verdict: str | None = None

    @property
    def safe(self) -> bool:
        return not self.hazard_flagged


def sdc_constraints(
    detection: DetectionResult, multi_cycle_budget: int = 2
) -> list[SdcConstraint]:
    """Timing exceptions implied by one detection run, sorted by pair.

    Every proven multi-cycle pair yields one constraint.  A pair whose
    implication cases *all* ended in contradiction gets ``set_false_path``
    (the premise — sink toggling one cycle after the source — is
    structurally impossible); the rest get ``set_multicycle_path -setup
    multi_cycle_budget``.  Pairs flagged by the hazard stage (when it
    ran) are marked unsafe and rendered as comments by
    :func:`format_sdc`; undecided and single-cycle pairs yield nothing.
    A budget below 1 raises ``ValueError``.
    """
    _check_budget(multi_cycle_budget)
    names = detection.circuit.names
    verdicts = {
        (v.pair.source, v.pair.sink): v for v in detection.hazard_verdicts
    }
    constraints: list[SdcConstraint] = []
    for result in detection.multi_cycle_pairs:
        verdict = verdicts.get((result.pair.source, result.pair.sink))
        all_contradicted = bool(result.cases) and all(
            case.outcome is CaseOutcome.CONTRADICTION
            for case in result.cases
        )
        constraints.append(
            SdcConstraint(
                source=names[result.pair.source],
                sink=names[result.pair.sink],
                kind="false-path" if all_contradicted else "multicycle",
                cycles=0 if all_contradicted else multi_cycle_budget,
                hazard_flagged=verdict is not None and verdict.flagged,
                hazard_verdict=(
                    verdict.verdict.value if verdict is not None else None
                ),
            )
        )
    constraints.sort(key=lambda c: (c.source, c.sink))
    return constraints


def _sdc_command(constraint: SdcConstraint) -> str:
    """The SDC command text for one constraint (without hazard gating)."""
    span = (
        f"-from [get_cells {{{constraint.source}}}] "
        f"-to [get_cells {{{constraint.sink}}}]"
    )
    if constraint.kind == "false-path":
        return f"set_false_path {span}"
    return (
        f"set_multicycle_path -setup {constraint.cycles} {span}\n"
        f"set_multicycle_path -hold {constraint.cycles - 1} {span}"
    )


def format_sdc(
    detection: DetectionResult,
    multi_cycle_budget: int = 2,
    constraints: list[SdcConstraint] | None = None,
) -> str:
    """Render a detection run as SDC text.

    Hazard-flagged pairs appear as commented-out commands with the
    reason, so the relaxation is visible but inert; when the hazard
    stage did not run, a header comment says the verdicts are
    implication-only.
    """
    if constraints is None:
        constraints = sdc_constraints(detection, multi_cycle_budget)
    lines = [
        f"# multi-cycle path constraints for {detection.circuit.name}",
        f"# engine: {detection.engine}; hazard check: {detection.hazard_mode}",
    ]
    if detection.hazard_mode == "off":
        lines.append(
            "# hazard stage was off: verdicts cover settled values only"
        )
    for constraint in constraints:
        command = _sdc_command(constraint)
        if constraint.hazard_flagged:
            reason = (
                constraint.hazard_verdict
                if constraint.hazard_verdict is not None
                else "hazard-flagged"
            )
            lines.append(
                f"# {reason}, not relaxed: "
                f"{constraint.source} -> {constraint.sink}"
            )
            lines.extend(f"# {line}" for line in command.splitlines())
        else:
            lines.append(command)
    return "\n".join(lines) + "\n"


def constraints_json(
    detection: DetectionResult,
    multi_cycle_budget: int = 2,
    constraints: list[SdcConstraint] | None = None,
) -> str:
    """The JSON interchange form of :func:`sdc_constraints`.

    The payload records ``multi_cycle_budget`` even when ``constraints``
    are given, so a budget below 1 raises ``ValueError`` either way.
    """
    _check_budget(multi_cycle_budget)
    if constraints is None:
        constraints = sdc_constraints(detection, multi_cycle_budget)
    payload = {
        "circuit": detection.circuit.name,
        "engine": detection.engine,
        "hazard_mode": detection.hazard_mode,
        "multi_cycle_budget": multi_cycle_budget,
        "constraints": [
            {
                "source": c.source,
                "sink": c.sink,
                "kind": c.kind,
                "cycles": c.cycles,
                "hazard_flagged": c.hazard_flagged,
                "hazard_verdict": c.hazard_verdict,
                "safe": c.safe,
            }
            for c in constraints
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
