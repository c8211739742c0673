"""Reference decide flows: the oracles of :mod:`repro.core.session`.

:class:`PairAnalyzer` is the paper's Section 4.1 procedure written out
per pair and per case.  For each pair ``(FF_i, FF_j)`` and each of the
four assignments ``(FF_i(t), FF_j(t+1)) = (a, b)`` it

1. assumes ``FF_i(t) = a``, ``FF_i(t+1) = ¬a`` (a transition at the source)
   and ``FF_j(t+1) = b``, then runs the implication procedure;
2. closes the case when a contradiction occurs or ``FF_j(t+2) = b`` is
   implied (the MC condition holds for this case);
3. otherwise searches for an input pattern with ``FF_j(t+2) = ¬b``;
   finding one proves the pair single-cycle, proving none exist closes the
   case as multi-cycle.

It re-derives the full three-assumption premise for every case: no
launch-prefix sharing and no packed pre-pass.  One analyzer on one
engine is the full-premise walk the session's launch-prefix cache must
be invisible against; a fresh analyzer per pair is the strongest
isolation baseline.

:class:`ScalarSession` is the shipping session with the packed pre-pass
settling nothing, so every case takes the scalar launch-run walk.  The
packed differentials compare it with :class:`DecisionSession`, and
tests of the scalar walk's own counters run on it so that packing
cannot leave them with nothing to count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuit.timeframe import TimeFrameExpansion
from repro.circuit.topology import FFPair
from repro.logic.values import BINARY
from repro.atpg.implication import ImplicationEngine
from repro.atpg.justify import SearchStatus, justify
from repro.core.result import (
    CaseOutcome,
    CaseResult,
    Classification,
    PairResult,
    Stage,
)
from repro.core.session import SEARCH_ENGINES, DecisionSession, PackedResolved


@dataclass
class PairAnalyzer:
    """Analyses FF pairs on a shared 2-frame expansion.

    Construct once per circuit (the engine and expansion are reused), then
    call :meth:`analyze` per pair.  ``search_engine`` selects the backtrack
    search: ``"dalg"`` (internal-node decisions, the paper's choice),
    ``"podem"`` (primary-input decisions, the alternative it rejects) or
    ``"scoap"`` (``dalg`` with SCOAP-ordered decisions).
    """

    expansion: TimeFrameExpansion
    backtrack_limit: int = 50
    learned: dict[tuple[int, int], list[tuple[int, int]]] | None = None
    search_engine: str = "dalg"

    def __post_init__(self) -> None:
        if self.expansion.frames < 2:
            raise ValueError("pair analysis needs at least a 2-frame expansion")
        if self.search_engine not in SEARCH_ENGINES:
            raise ValueError(f"unknown search engine {self.search_engine!r}")
        if self.search_engine == "podem":
            from repro.atpg.podem import podem_justify

            self._search = podem_justify
        elif self.search_engine == "scoap":
            from repro.atpg.scoap import compute_scoap, make_choice_sorter

            sorter = make_choice_sorter(compute_scoap(self.expansion.comb))

            def guided(engine, limit):
                return justify(engine, limit, choice_sorter=sorter)

            self._search = guided
        else:
            self._search = justify
        self.engine = ImplicationEngine(self.expansion.comb, learned=self.learned)

    def analyze(self, pair: FFPair) -> PairResult:
        """Classify one topologically connected FF pair."""
        expansion = self.expansion
        source = expansion.ff_index(pair.source)
        sink = expansion.ff_index(pair.sink)
        ffi_t = expansion.ff_at[0][source]
        ffi_t1 = expansion.ff_at[1][source]
        ffj_t1 = expansion.ff_at[1][sink]
        ffj_t2 = expansion.ff_at[2][sink]

        cases: list[CaseResult] = []
        used_search = False
        for a in BINARY:
            for b in BINARY:
                case = self._analyze_case(ffi_t, ffi_t1, ffj_t1, ffj_t2, a, b)
                cases.append(case)
                if case.decisions:
                    used_search = True
                if case.outcome is CaseOutcome.VIOLATED:
                    stage = (
                        Stage.ATPG
                        if case.decisions
                        else Stage.IMPLICATION
                    )
                    return PairResult(pair, Classification.SINGLE_CYCLE, stage, cases)
                if case.outcome is CaseOutcome.ABORTED:
                    return PairResult(pair, Classification.UNDECIDED, Stage.ATPG, cases)

        stage = Stage.ATPG if used_search else Stage.IMPLICATION
        return PairResult(pair, Classification.MULTI_CYCLE, stage, cases)

    def _analyze_case(
        self, ffi_t: int, ffi_t1: int, ffj_t1: int, ffj_t2: int, a: int, b: int
    ) -> CaseResult:
        engine = self.engine
        mark = engine.checkpoint()
        try:
            premise = [(ffi_t, a), (ffi_t1, 1 - a), (ffj_t1, b)]
            if not engine.assume_all(premise):
                return CaseResult(a, b, CaseOutcome.CONTRADICTION)

            implied = engine.value(ffj_t2)
            if implied == b:
                return CaseResult(a, b, CaseOutcome.IMPLIED_STABLE)

            if implied == 1 - b:
                # Paper Step 4.1.3 second half: FF_j(t+2) != FF_j(t+1) was
                # *implied*; confirm the premise itself is justifiable.
                result = self._search(engine, self.backtrack_limit)
                if result.status is SearchStatus.SAT:
                    return CaseResult(
                        a, b, CaseOutcome.VIOLATED,
                        result.decisions, result.backtracks, result.witness,
                    )
                if result.status is SearchStatus.ABORTED:
                    return CaseResult(
                        a, b, CaseOutcome.ABORTED, result.decisions, result.backtracks
                    )
                # Premise unjustifiable: vacuously multi-cycle for this case.
                return CaseResult(
                    a, b, CaseOutcome.CONTRADICTION,
                    result.decisions, result.backtracks,
                )

            # FF_j(t+2) still unknown: search for a violating pattern.
            if not engine.assume(ffj_t2, 1 - b):
                return CaseResult(a, b, CaseOutcome.IMPLIED_STABLE)
            result = self._search(engine, self.backtrack_limit)
            if result.status is SearchStatus.SAT:
                return CaseResult(
                    a, b, CaseOutcome.VIOLATED,
                    result.decisions, result.backtracks, result.witness,
                )
            if result.status is SearchStatus.ABORTED:
                return CaseResult(
                    a, b, CaseOutcome.ABORTED, result.decisions, result.backtracks
                )
            return CaseResult(
                a, b, CaseOutcome.PROVED_STABLE, result.decisions, result.backtracks
            )
        finally:
            engine.backtrack(mark)


class ScalarSession(DecisionSession):
    """A :class:`DecisionSession` whose packed pre-pass settles nothing."""

    def _packed_resolve(self, pairs: Sequence[FFPair]) -> PackedResolved:
        return {}
