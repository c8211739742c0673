"""Per-mode hazard walk: the oracle for the two bounds of the exact pass.

:meth:`repro.core.hazard.HazardChecker.check_runs` gets both static
bounds in one walk per launch run that runs co-sensitization first.  This reference
runs one mode's path search over every satisfiable case of a pair, on
an implication engine of its own and with its own case loop.  A
search that hits its budget flags the pair conservatively
(``limited``); the exact pass records such a pair under
co-sensitization only (``docs/hazards.md``, "Search budgets").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atpg.implication import ImplicationEngine
from repro.circuit.gates import COMBINATIONAL_TYPES
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion, expand_cached
from repro.core.hazard import HazardChecker
from repro.core.result import DetectionResult, PairResult
from repro.core.sensitization import (
    PathSearchOutcome,
    SensitizationMode,
    find_sensitizable_path,
)


@dataclass
class PairHazardReport:
    """One mode's hazard verdict for one multi-cycle pair."""

    pair_result: PairResult
    has_potential_hazard: bool
    #: a witnessing (case, path-node-ids) when a hazard path was found
    witness_case: tuple[int, int] | None = None
    witness_path: list[int] | None = None
    #: True when a search budget forced the conservative verdict
    limited: bool = False
    #: the first case whose search found a path or hit its budget
    first_flagged: tuple[int, int] | None = None


class ModeWalk:
    """One sensitization mode's search over each case of a pair."""

    def __init__(
        self,
        circuit: Circuit,
        mode: SensitizationMode,
        backtrack_limit: int = 50,
        max_attempts: int = 5000,
        expansion: TimeFrameExpansion | None = None,
    ) -> None:
        self.mode = mode
        self.backtrack_limit = backtrack_limit
        self.max_attempts = max_attempts
        self.expansion = expansion or expand_cached(circuit, frames=2)
        self.engine = ImplicationEngine(self.expansion.comb)
        self.frame2 = frozenset(
            self.expansion.node_at[1][n]
            for n in range(circuit.num_nodes)
            if circuit.types[n] in COMBINATIONAL_TYPES
        )

    def check_pair(self, pair_result: PairResult) -> PairHazardReport:
        """Flag the pair when a case has a path or a search hits its budget."""
        expansion = self.expansion
        engine = self.engine
        source = expansion.ff_index(pair_result.pair.source)
        sink = expansion.ff_index(pair_result.pair.sink)
        target = expansion.ff_at[2][sink]
        limited = False
        first_flagged = None
        for a, b in HazardChecker._satisfiable_cases(pair_result):
            mark = engine.checkpoint()
            premise = [
                (expansion.ff_at[0][source], a),
                (expansion.ff_at[1][source], 1 - a),
                (expansion.ff_at[1][sink], b),
                (target, b),
            ]
            result = None
            if engine.assume_all(premise):
                result = find_sensitizable_path(
                    engine,
                    source=expansion.ff_at[1][source],
                    target=target,
                    allowed=self.frame2,
                    mode=self.mode,
                    backtrack_limit=self.backtrack_limit,
                    max_attempts=self.max_attempts,
                )
            engine.backtrack(mark)
            if result is None or result.outcome is PathSearchOutcome.NONE:
                continue
            if first_flagged is None:
                first_flagged = (a, b)
            if result.outcome is PathSearchOutcome.FOUND:
                return PairHazardReport(
                    pair_result, True, witness_case=(a, b),
                    witness_path=result.path, first_flagged=first_flagged,
                )
            limited = True
        return PairHazardReport(
            pair_result, limited, limited=limited, first_flagged=first_flagged
        )


def check_hazards(
    circuit: Circuit,
    detection: DetectionResult,
    mode: SensitizationMode,
    **budgets: int,
) -> list[PairHazardReport]:
    """One mode's report for every multi-cycle pair of ``detection``."""
    walk = ModeWalk(circuit, mode, **budgets)
    return [walk.check_pair(p) for p in detection.multi_cycle_pairs]


def flagged_names(circuit: Circuit, reports: list[PairHazardReport]):
    """Sorted ``(source, sink)`` names of the flagged pairs."""
    return sorted(
        (circuit.names[r.pair_result.pair.source],
         circuit.names[r.pair_result.pair.sink])
        for r in reports
        if r.has_potential_hazard
    )
