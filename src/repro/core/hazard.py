"""Static-hazard validation of detected multi-cycle FF pairs (Section 5).

The MC condition only constrains *settled* values, so the non-path-based
detectors (ours, the SAT-based and the BDD-based ones) can be optimistic:
relaxing the timing of a pair whose sink can glitch may break the circuit
once a gate on the glitch path becomes slow.  This module re-validates each
detected multi-cycle pair:

for every assignment case whose premise is satisfiable (the source really
can toggle that way), it asks whether a path from the source's new value
(``FF_i(t+1)``, feeding the second time frame) to the sink's data input
(``FF_j(t+2)``) is statically sensitizable / co-sensitizable under that
case; if so, the transition may reach the sink as a static hazard and the
pair is *flagged* (dropped from the verified set).

The result reproduces the paper's Table 3 ordering:

    pairs(before) >= pairs(after sensitize) >= pairs(after co-sensitize)

because co-sensitization over-approximates the exact sensitization
condition (safe) while sensitization under-approximates it (optimistic,
and survivors may depend on one another — Section 5.2).

:meth:`HazardChecker.check_pair` runs one mode's search per case.  The
exact classification (:mod:`repro.analysis.hazard_exact`) needs both
bounds; :meth:`HazardChecker.check_bounds` gets them in one walk that
assumes each case premise once and runs co-sensitization first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.circuit.gates import COMBINATIONAL_TYPES
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion, expand_cached
from repro.logic.values import BINARY
from repro.atpg.implication import ImplicationEngine
from repro.core.result import CaseOutcome, DetectionResult, PairResult
from repro.core.sensitization import (
    PathSearchOutcome,
    PathSearchResult,
    SensitizationMode,
    find_sensitizable_path,
)

_T = TypeVar("_T")

#: Runs one path search, in the given mode, inside the current case premise.
CaseSearch = Callable[[SensitizationMode], PathSearchResult]


@dataclass
class PairHazardReport:
    """Hazard verdict for one multi-cycle pair."""

    pair_result: PairResult
    has_potential_hazard: bool
    #: a witnessing (case, path-node-ids) when a hazard path was found
    witness_case: tuple[int, int] | None = None
    witness_path: list[int] | None = None
    #: True when a resource limit forced the conservative verdict
    limited: bool = False


@dataclass(frozen=True)
class BoundsVerdict:
    """Both static bounds of one pair (:meth:`HazardChecker.check_bounds`)."""

    #: the first case with a statically sensitizable path: a real glitch
    proven_case: tuple[int, int] | None
    #: co-sensitization cleared every case within budget: no glitch
    cleared: bool


@dataclass
class HazardCheckResult:
    """Aggregate over all multi-cycle pairs of a detection run."""

    mode: SensitizationMode
    reports: list[PairHazardReport]
    total_seconds: float

    @property
    def verified_pairs(self) -> list[PairResult]:
        """Multi-cycle pairs with no potential hazard under this mode."""
        return [r.pair_result for r in self.reports if not r.has_potential_hazard]

    @property
    def flagged_pairs(self) -> list[PairResult]:
        return [r.pair_result for r in self.reports if r.has_potential_hazard]


class HazardChecker:
    """Checks detected MC pairs for static hazards on a shared expansion."""

    def __init__(
        self,
        circuit: Circuit,
        mode: SensitizationMode = SensitizationMode.STATIC_CO_SENSITIZATION,
        backtrack_limit: int = 50,
        max_attempts: int = 5000,
        expansion: TimeFrameExpansion | None = None,
    ) -> None:
        self.circuit = circuit
        self.mode = mode
        self.backtrack_limit = backtrack_limit
        self.max_attempts = max_attempts
        if expansion is None:
            expansion = expand_cached(circuit, frames=2)
        elif expansion.frames < 2:
            raise ValueError("the hazard check needs a 2-frame expansion")
        self.expansion = expansion
        self.engine = ImplicationEngine(self.expansion.comb)
        # The hazard path must lie inside the second frame's combinational
        # logic (the cycle t+1 -> t+2 in which the relaxed propagation runs).
        self._frame2_nodes = frozenset(
            self.expansion.node_at[1][n]
            for n in range(circuit.num_nodes)
            if circuit.types[n] in COMBINATIONAL_TYPES
        )

    def check_pair(self, pair_result: PairResult) -> PairHazardReport:
        """Decide whether one multi-cycle pair may see a static hazard."""
        limited = False

        def visit(
            case: tuple[int, int], search: CaseSearch
        ) -> PairHazardReport | None:
            nonlocal limited
            result = search(self.mode)
            if result.outcome is PathSearchOutcome.FOUND:
                return PairHazardReport(
                    pair_result,
                    has_potential_hazard=True,
                    witness_case=case,
                    witness_path=result.path,
                )
            if result.outcome is PathSearchOutcome.UNKNOWN:
                limited = True
            return None

        report = self._walk_cases(pair_result, visit)
        if report is not None:
            return report
        if limited:
            # Resource limit: conservatively flag the pair.
            return PairHazardReport(pair_result, has_potential_hazard=True, limited=True)
        return PairHazardReport(pair_result, has_potential_hazard=False)

    def check_bounds(self, pair_result: PairResult) -> BoundsVerdict:
        """Both static bounds of one pair in one walk over its cases.

        ``self.mode`` plays no part.  Each case's premise is assumed once.
        Co-sensitization searches run first, case by case, until one
        finds a path or hits a budget; the pair is then not cleared, and
        from that case on only sensitization searches run.  The walk
        stops at the first case with a sensitizable path.  A pair cleared
        in every case runs no sensitization search.

        Both verdicts equal those of two separate walks (sensitization
        over every case, then co-sensitization).  A sensitization witness
        vector meets one co-sensitization option at every gate of its
        path, so a case that co-sensitization clears within budget has no
        sensitizable path, and the first case with one is the same.  The
        engine state after a premise does not depend on the searches run
        before it, so each search returns what it would on an engine of
        its own.
        """
        cleared = True

        def visit(
            case: tuple[int, int], search: CaseSearch
        ) -> tuple[int, int] | None:
            nonlocal cleared
            if cleared:
                cosens = search(SensitizationMode.STATIC_CO_SENSITIZATION)
                if cosens.outcome is PathSearchOutcome.NONE:
                    return None
                cleared = False
            sens = search(SensitizationMode.STATIC_SENSITIZATION)
            if sens.outcome is PathSearchOutcome.FOUND:
                return case
            return None

        proven_case = self._walk_cases(pair_result, visit)
        return BoundsVerdict(proven_case, cleared)

    def _walk_cases(
        self,
        pair_result: PairResult,
        visit: Callable[[tuple[int, int], CaseSearch], _T | None],
    ) -> _T | None:
        """Visit each satisfiable case with its premise assumed.

        ``visit(case, search)`` runs path searches from the source's new
        value ``FF_i(t+1)`` to the sink's data input ``FF_j(t+2)`` inside
        the premise.  The walk returns the first non-``None`` value a
        visit returns, or ``None`` after the last case; the engine is
        back at its entry state either way.
        """
        expansion = self.expansion
        pair = pair_result.pair
        source = expansion.ff_index(pair.source)
        sink = expansion.ff_index(pair.sink)
        ffi_t = expansion.ff_at[0][source]
        ffi_t1 = expansion.ff_at[1][source]
        ffj_t1 = expansion.ff_at[1][sink]
        ffj_t2 = expansion.ff_at[2][sink]
        engine = self.engine
        # The sink's cone is shared by every case's path search; it lives
        # only for this call, so memory stays flat however many pairs run.
        reach: set[int] | None = None

        def search(mode: SensitizationMode) -> PathSearchResult:
            return find_sensitizable_path(
                engine,
                source=ffi_t1,
                target=ffj_t2,
                allowed=self._frame2_nodes,
                mode=mode,
                backtrack_limit=self.backtrack_limit,
                max_attempts=self.max_attempts,
                reach=reach,
            )

        for case in self._satisfiable_cases(pair_result):
            a, b = case
            mark = engine.checkpoint()
            premise = [(ffi_t, a), (ffi_t1, 1 - a), (ffj_t1, b), (ffj_t2, b)]
            outcome = None
            if engine.assume_all(premise):
                if reach is None:
                    reach = expansion.comb.transitive_fanin([ffj_t2])
                outcome = visit(case, search)
            engine.backtrack(mark)
            if outcome is not None:
                return outcome
        return None

    @staticmethod
    def _satisfiable_cases(pair_result: PairResult) -> list[tuple[int, int]]:
        """Assignment cases whose premise is satisfiable.

        Contradiction cases cannot produce the transition at all; if the
        detector recorded no case data (e.g. the pair came from an external
        tool), every case is checked.
        """
        if not pair_result.cases:
            return [(a, b) for a in BINARY for b in BINARY]
        return [
            (c.a, c.b)
            for c in pair_result.cases
            if c.outcome in (CaseOutcome.IMPLIED_STABLE, CaseOutcome.PROVED_STABLE)
        ]


def check_hazards(
    circuit: Circuit,
    detection: DetectionResult,
    mode: SensitizationMode = SensitizationMode.STATIC_CO_SENSITIZATION,
    backtrack_limit: int = 50,
    max_attempts: int = 5000,
) -> HazardCheckResult:
    """Validate every multi-cycle pair of ``detection`` against hazards."""
    started = time.perf_counter()
    checker = HazardChecker(
        circuit, mode, backtrack_limit=backtrack_limit, max_attempts=max_attempts
    )
    reports = [checker.check_pair(p) for p in detection.multi_cycle_pairs]
    return HazardCheckResult(
        mode=mode, reports=reports, total_seconds=time.perf_counter() - started
    )


class HazardClass:
    """Three-way classification keys (see :func:`classify_hazards`)."""

    SAFE = "safe"
    HAZARDOUS = "hazardous"
    DEPENDENT = "dependent"


def classify_hazards(
    circuit: Circuit,
    detection: DetectionResult,
    backtrack_limit: int = 50,
    max_attempts: int = 5000,
) -> dict[str, list[PairResult]]:
    """Partition multi-cycle pairs per the paper's summary sentence.

    "One-tenth of the multi-cycle FF pairs ... may have static hazards at
    the input of FFs and three-tenth of them may depend on one another":

    * ``hazardous`` — flagged by the static *sensitization* check: a
      hazard path exists outright; the pair must not be relaxed.
    * ``dependent`` — clean under sensitization but flagged by
      *co-sensitization*: every would-be hazard path is blocked by a side
      input, so the pair is only safe as long as the blocking paths keep
      their own timing (§5.2's inter-pair dependency).
    * ``safe`` — clean under both conditions; relaxable unconditionally.
    """
    sensitize = check_hazards(
        circuit, detection, SensitizationMode.STATIC_SENSITIZATION,
        backtrack_limit=backtrack_limit, max_attempts=max_attempts,
    )
    cosensitize = check_hazards(
        circuit, detection, SensitizationMode.STATIC_CO_SENSITIZATION,
        backtrack_limit=backtrack_limit, max_attempts=max_attempts,
    )
    flagged_sens = {
        (r.pair_result.pair.source, r.pair_result.pair.sink)
        for r in sensitize.reports
        if r.has_potential_hazard
    }
    flagged_cosens = {
        (r.pair_result.pair.source, r.pair_result.pair.sink)
        for r in cosensitize.reports
        if r.has_potential_hazard
    }
    classes: dict[str, list[PairResult]] = {
        HazardClass.SAFE: [],
        HazardClass.HAZARDOUS: [],
        HazardClass.DEPENDENT: [],
    }
    for pair_result in detection.multi_cycle_pairs:
        key = (pair_result.pair.source, pair_result.pair.sink)
        if key in flagged_sens:
            classes[HazardClass.HAZARDOUS].append(pair_result)
        elif key in flagged_cosens:
            classes[HazardClass.DEPENDENT].append(pair_result)
        else:
            classes[HazardClass.SAFE].append(pair_result)
    return classes
