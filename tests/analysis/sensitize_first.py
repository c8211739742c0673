"""Sensitization-first exact hazard classifier: the bound-walk oracle.

:class:`~repro.analysis.hazard_exact.ExactHazardChecker` gets both
static bounds from one walk over each pair's cases on one implication
engine, co-sensitization first.  This reference keeps the older order:
two :class:`~repro.core.hazard.HazardChecker` instances, each with its
own engine, run a full sensitization walk over every case and then,
for pairs it does not prove, a full co-sensitization walk.  The SAT
stage and the delay filter are inherited unchanged, so a differential
against it checks exactly the order of the bounds.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.hazard_exact import ExactHazardChecker
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion
from repro.core.hazard import HazardChecker
from repro.core.result import HazardVerdictKind, PairHazardVerdict, PairResult
from repro.core.sensitization import SensitizationMode


class SensitizeFirstChecker(ExactHazardChecker):
    """Exact classifier that runs the two bounds one after the other."""

    def __init__(
        self,
        circuit: Circuit,
        expansion: TimeFrameExpansion | None = None,
        **options: Any,
    ) -> None:
        super().__init__(circuit, expansion, **options)
        budgets = {
            "backtrack_limit": self._bounds.backtrack_limit,
            "max_attempts": self._bounds.max_attempts,
        }
        self._sens = HazardChecker(
            circuit,
            SensitizationMode.STATIC_SENSITIZATION,
            expansion=self.expansion,
            **budgets,
        )
        self._cosens = HazardChecker(
            circuit,
            SensitizationMode.STATIC_CO_SENSITIZATION,
            expansion=self.expansion,
            **budgets,
        )

    def _classify(
        self, pair_result: PairResult, cases: list[tuple[int, int]]
    ) -> PairHazardVerdict:
        pair = pair_result.pair
        if not cases:
            return PairHazardVerdict(pair, HazardVerdictKind.SAFE, "cases")
        sens = self._sens.check_pair(pair_result)
        proven = sens.has_potential_hazard and not sens.limited
        if not proven:
            cosens = self._cosens.check_pair(pair_result)
            if not cosens.has_potential_hazard:
                return PairHazardVerdict(
                    pair, HazardVerdictKind.SAFE, "cosensitize"
                )
        elif self.delays is None:
            return PairHazardVerdict(
                pair,
                HazardVerdictKind.GLITCH_PROVEN,
                "sensitize",
                witness_case=sens.witness_case,
            )
        disagreeing = not proven
        if disagreeing:
            self.counters["disagreement"] += 1
        case, witness, unknown = self._solve_pair(pair, cases)
        if witness is not None:
            if disagreeing:
                self.counters["resolved"] += 1
            delay_safe: bool | None = None
            if self.delays is not None:
                delay_safe = not self._survives_delays(pair, witness)
            return PairHazardVerdict(
                pair,
                HazardVerdictKind.GLITCH_PROVEN,
                "exact",
                witness_case=case,
                witness=witness,
                delay_safe=delay_safe,
            )
        if unknown:
            if proven:
                return PairHazardVerdict(
                    pair,
                    HazardVerdictKind.GLITCH_PROVEN,
                    "sensitize",
                    witness_case=sens.witness_case,
                )
            return PairHazardVerdict(
                pair, HazardVerdictKind.GLITCH_POSSIBLE, "exact"
            )
        if disagreeing:
            self.counters["resolved"] += 1
        return PairHazardVerdict(pair, HazardVerdictKind.SAFE, "exact")
