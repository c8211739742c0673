"""Per-pair bound walk: the oracle for the run walk of the exact pass.

:meth:`repro.core.hazard.HazardChecker.check_runs` walks the pairs one
launch run at a time: each source value's launch literals
``FF_i(t) = a``, ``FF_i(t+1) = 1-a`` are closed once per run, a search
on that launch state can clear several cases of a pair at once, and
each case closes only its capture literals on top.  This reference
walks every pair on its own and closes each case's whole four-literal
premise in one ``assume_all``, with a search per case, the walk of
earlier releases.  The search order inside a pair, the X-reach skip
rule and the stop at the first sensitizable path are the same, so a
differential against :class:`PairWalkChecker` checks exactly the split
premise, the interleaved rounds and the launch search.
"""

from __future__ import annotations

from typing import Any, Collection, Sequence

from repro.analysis.hazard_exact import ExactHazardChecker
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion
from repro.core.hazard import BoundsVerdict, HazardChecker
from repro.core.result import PairResult
from repro.core.sensitization import PathSearchOutcome, SensitizationMode


class PairBounds(HazardChecker):
    """``check_runs`` as one :meth:`check_bounds` walk per pair."""

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
        self,
        pair_result: PairResult,
        xsafe: Collection[tuple[int, int]],
    ) -> BoundsVerdict:
        """Both static bounds of one pair, each case premise closed whole."""
        expansion = self.expansion
        pair = pair_result.pair
        source = expansion.ff_index(pair.source)
        sink = expansion.ff_index(pair.sink)
        ffi_t = expansion.ff_at[0][source]
        ffi_t1 = expansion.ff_at[1][source]
        ffj_t1 = expansion.ff_at[1][sink]
        ffj_t2 = expansion.ff_at[2][sink]
        engine = self.engine
        reach: set[int] | None = None
        cases = self._satisfiable_cases(pair_result)
        # Index of the first case co-sensitization does not clear.
        first_open: int | None = None
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
                    cosens = self._search(
                        ffi_t1, ffj_t2, reach,
                        SensitizationMode.STATIC_CO_SENSITIZATION,
                    )
                    if cosens.outcome is not PathSearchOutcome.NONE:
                        first_open = index
                if first_open is not None and case not in xsafe:
                    path = self._search(
                        ffi_t1, ffj_t2, reach,
                        SensitizationMode.STATIC_SENSITIZATION,
                    ).path
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


class PairWalkChecker(ExactHazardChecker):
    """Exact classifier whose bounds come from the per-pair walk."""

    def __init__(
        self,
        circuit: Circuit,
        expansion: TimeFrameExpansion | None = None,
        **options: Any,
    ) -> None:
        super().__init__(circuit, expansion, **options)
        self._bounds = PairBounds(
            circuit,
            backtrack_limit=self._bounds.backtrack_limit,
            max_attempts=self._bounds.max_attempts,
            expansion=self.expansion,
        )
