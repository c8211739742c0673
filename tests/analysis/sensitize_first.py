"""Sensitization-first exact hazard classifier: the bound-walk oracle.

:class:`~repro.analysis.hazard_exact.ExactHazardChecker` gets both
static bounds from one walk over each launch run's cases on one
implication engine, co-sensitization first.  This reference gets them from two
per-mode walks (``tests/core/hazard_oracle.py``), each with its own
engine: a full sensitization walk over every case, then a full
co-sensitization walk.  The classification, the SAT stage and the
delay filter are inherited unchanged, so a differential against it
checks exactly the bound walk.  The X-reach pre-pass is inherited too:
the open cases it leaves are computed here from co-sensitization's first
flagged case, so both sides make the same solver calls.  The per-mode
reports of every pair are kept in :attr:`SensitizeFirstChecker.reports`.
"""

from __future__ import annotations

from typing import Any, Collection, Sequence

from repro.analysis.hazard_exact import ExactHazardChecker
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion
from repro.core.hazard import BoundsVerdict, HazardChecker
from repro.core.result import PairResult
from repro.core.sensitization import SensitizationMode
from tests.core.hazard_oracle import ModeWalk, PairHazardReport


class _TwoWalkBounds:
    """The bounds from a sensitization and a co-sensitization walk."""

    def __init__(self, checker: SensitizeFirstChecker, budgets: dict) -> None:
        self.checker = checker
        self.sens = ModeWalk(
            checker.circuit,
            SensitizationMode.STATIC_SENSITIZATION,
            expansion=checker.expansion,
            **budgets,
        )
        self.cosens = ModeWalk(
            checker.circuit,
            SensitizationMode.STATIC_CO_SENSITIZATION,
            expansion=checker.expansion,
            **budgets,
        )

    def check_runs(
        self,
        pair_results: Sequence[PairResult],
        xsafe: Sequence[Collection[tuple[int, int]]],
    ) -> list[BoundsVerdict]:
        return [
            self.check_bounds(pair_result, safe)
            for pair_result, safe in zip(pair_results, xsafe)
        ]

    def check_bounds(
        self, pair_result: PairResult, xsafe: Collection[tuple[int, int]]
    ) -> BoundsVerdict:
        sens = self.sens.check_pair(pair_result)
        cosens = self.cosens.check_pair(pair_result)
        self.checker.reports.append((sens, cosens))
        if not cosens.has_potential_hazard:
            return BoundsVerdict(None, cleared=True)
        # Open: from co-sensitization's first flagged case on, every
        # case the X-reach pre-pass did not settle.
        cases = HazardChecker._satisfiable_cases(pair_result)
        open_cases = tuple(
            case
            for case in cases[cases.index(cosens.first_flagged):]
            if case not in xsafe
        )
        if sens.has_potential_hazard and not sens.limited:
            return BoundsVerdict(
                sens.witness_case,
                cleared=False,
                witness_path=sens.witness_path,
                open_cases=open_cases,
            )
        return BoundsVerdict(None, cleared=False, open_cases=open_cases)


class SensitizeFirstChecker(ExactHazardChecker):
    """Exact classifier whose bounds come from two per-mode walks."""

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
        #: (sensitization, co-sensitization) report per checked pair
        self.reports: list[tuple[PairHazardReport, PairHazardReport]] = []
        self._bounds = _TwoWalkBounds(self, budgets)
