"""Static-hazard bounds of detected multi-cycle FF pairs (Section 5).

The MC condition only constrains *settled* values, so the non-path-based
detectors (ours, the SAT-based and the BDD-based ones) can be optimistic:
relaxing the timing of a pair whose sink can glitch may break the circuit
once a gate on the glitch path becomes slow.  Section 5 re-validates each
detected multi-cycle pair:

for every assignment case whose premise is satisfiable (the source really
can toggle that way), it asks whether a path from the source's new value
(``FF_i(t+1)``, feeding the second time frame) to the sink's data input
(``FF_j(t+2)``) is statically sensitizable / co-sensitizable under that
case; if so, the transition may reach the sink as a static hazard.

Sensitization is the optimistic lower bound (a found path is a real
glitch) and co-sensitization the safe upper bound (a pair it clears
cannot glitch), which gives the paper's Table 3 ordering:

    pairs(before) >= pairs(after sensitize) >= pairs(after co-sensitize)

:meth:`HazardChecker.check_bounds` gets both bounds in one walk that
assumes each case premise once and runs co-sensitization first; the
exact classification (:mod:`repro.analysis.hazard_exact`) records both
on every verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection

from repro.circuit.gates import COMBINATIONAL_TYPES
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion, expand_cached
from repro.logic.values import BINARY
from repro.atpg.implication import ImplicationEngine
from repro.core.result import CaseOutcome, PairResult
from repro.core.sensitization import (
    PathSearchOutcome,
    PathSearchResult,
    SensitizationMode,
    find_sensitizable_path,
)


@dataclass(frozen=True)
class BoundsVerdict:
    """Both static bounds of one pair (:meth:`HazardChecker.check_bounds`)."""

    #: the first case with a statically sensitizable path: a real glitch
    proven_case: tuple[int, int] | None
    #: co-sensitization cleared every case within budget: no glitch
    cleared: bool
    #: the sensitizable path of ``proven_case``, source first
    witness_path: list[int] | None = None
    #: the cases neither bound settled: from the first case
    #: co-sensitization does not clear on, those not X-reach safe
    open_cases: tuple[tuple[int, int], ...] = ()


class HazardChecker:
    """Both static hazard bounds of MC pairs on a shared expansion."""

    def __init__(
        self,
        circuit: Circuit,
        backtrack_limit: int = 50,
        max_attempts: int = 5000,
        expansion: TimeFrameExpansion | None = None,
    ) -> None:
        self.circuit = circuit
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

    def check_bounds(
        self,
        pair_result: PairResult,
        xsafe: Collection[tuple[int, int]],
    ) -> BoundsVerdict:
        """Both static bounds of one pair in one walk over its cases.

        Each satisfiable case's premise ``FF_i(t) = a``, ``FF_i(t+1) =
        1-a``, ``FF_j(t+1) = FF_j(t+2) = b`` is assumed once; every path
        search from the source's new value ``FF_i(t+1)`` to the sink's
        data input ``FF_j(t+2)`` runs inside it.  Co-sensitization
        searches run first, case by case, until one finds a path or hits
        a budget; the pair is then not cleared, and from that case on
        only sensitization searches run.  The walk stops at the first
        case with a sensitizable path.  A pair cleared in every case runs
        no sensitization search.

        ``xsafe`` holds the pair's X-reach safe cases, which cannot
        glitch (:mod:`repro.analysis.hazard_exact`).  Co-sensitization
        still walks them, so ``cleared`` does not depend on them.  They
        run no sensitization search, because a sensitizable path there
        would be a real glitch, and past the first uncleared case they
        are skipped whole, premise included.  The other cases from the
        first uncleared one on are the verdict's ``open_cases``.

        Both verdicts equal those of two separate walks (sensitization
        over every case, then co-sensitization).  A sensitization witness
        vector meets one co-sensitization option at every gate of its
        path, so a case that co-sensitization clears within budget has no
        sensitizable path, and the first case with one is the same.  The
        engine state after a premise does not depend on the searches run
        before it, so each search returns what it would on an engine of
        its own.  The engine is back at its entry state on return.
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
        cases = self._satisfiable_cases(pair_result)
        # Index of the first case co-sensitization does not clear.
        first_open: int | None = None

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

        proven_case: tuple[int, int] | None = None
        path: list[int] | None = None
        for index, case in enumerate(cases):
            if first_open is not None and case in xsafe:
                continue
            a, b = case
            mark = engine.checkpoint()
            premise = [(ffi_t, a), (ffi_t1, 1 - a), (ffj_t1, b), (ffj_t2, b)]
            path = None
            if engine.assume_all(premise):
                if reach is None:
                    reach = expansion.comb.transitive_fanin([ffj_t2])
                if first_open is None:
                    cosens = search(SensitizationMode.STATIC_CO_SENSITIZATION)
                    if cosens.outcome is not PathSearchOutcome.NONE:
                        first_open = index
                if first_open is not None and case not in xsafe:
                    path = search(SensitizationMode.STATIC_SENSITIZATION).path
            engine.backtrack(mark)
            if path is not None:
                proven_case = case
                break
        if first_open is None:
            return BoundsVerdict(None, cleared=True)
        open_cases = tuple(
            case for case in cases[first_open:] if case not in xsafe
        )
        return BoundsVerdict(proven_case, False, path, open_cases)

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

