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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.circuit.gates import COMBINATIONAL_TYPES
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion, expand_cached
from repro.logic.values import BINARY
from repro.atpg.implication import ImplicationEngine
from repro.core.result import CaseOutcome, DetectionResult, PairResult
from repro.core.sensitization import (
    PathSearchOutcome,
    SensitizationMode,
    find_sensitizable_path,
)


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
        expansion = self.expansion
        pair = pair_result.pair
        source = expansion.ff_index(pair.source)
        sink = expansion.ff_index(pair.sink)
        ffi_t = expansion.ff_at[0][source]
        ffi_t1 = expansion.ff_at[1][source]
        ffj_t1 = expansion.ff_at[1][sink]
        ffj_t2 = expansion.ff_at[2][sink]

        limited = False
        # The sink's cone is shared by every case's path search; it lives
        # only for this call, so memory stays flat however many pairs run.
        reach: set[int] | None = None
        for case in self._satisfiable_cases(pair_result):
            a, b = case
            mark = self.engine.checkpoint()
            premise = [(ffi_t, a), (ffi_t1, 1 - a), (ffj_t1, b), (ffj_t2, b)]
            if not self.engine.assume_all(premise):
                self.engine.backtrack(mark)
                continue
            if reach is None:
                reach = self.expansion.comb.transitive_fanin([ffj_t2])
            result = find_sensitizable_path(
                self.engine,
                source=ffi_t1,
                target=ffj_t2,
                allowed=self._frame2_nodes,
                mode=self.mode,
                backtrack_limit=self.backtrack_limit,
                max_attempts=self.max_attempts,
                reach=reach,
            )
            self.engine.backtrack(mark)
            if result.outcome is PathSearchOutcome.FOUND:
                return PairHazardReport(
                    pair_result,
                    has_potential_hazard=True,
                    witness_case=case,
                    witness_path=result.path,
                )
            if result.outcome is PathSearchOutcome.UNKNOWN:
                limited = True
        if limited:
            # Resource limit: conservatively flag the pair.
            return PairHazardReport(pair_result, has_potential_hazard=True, limited=True)
        return PairHazardReport(pair_result, has_potential_hazard=False)

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
