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

:meth:`HazardChecker.check_runs` gets both bounds in one walk per
launch run that closes each source value's launch literals once and
runs co-sensitization first, one search on the launch state clearing
several cases at once where it can; the exact classification
(:mod:`repro.analysis.hazard_exact`) records both on every verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Collection, Iterator, Sequence

from repro.circuit.gates import COMBINATIONAL_TYPES
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion, expand_cached
from repro.logic.values import BINARY
from repro.atpg.implication import ImplicationEngine
from repro.core.result import CaseOutcome, PairResult
from repro.core.session import launch_runs
from repro.core.sensitization import (
    PathSearchOutcome,
    PathSearchResult,
    SensitizationMode,
    find_sensitizable_path,
)


#: The search-work counters of :attr:`HazardChecker.counters`: path
#: searches run, cases cleared by a search on the launch state, and
#: searches the reachability proof settled.
SEARCH_COUNTERS = ("path_searches", "launch_cleared", "proof_settled")


@dataclass(frozen=True)
class BoundsVerdict:
    """Both static bounds of one pair (:meth:`HazardChecker.check_runs`)."""

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
        counters: dict[str, int] | None = None,
    ) -> None:
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        self.max_attempts = max_attempts
        #: :data:`SEARCH_COUNTERS`, added to ``counters`` when given
        self.counters = counters if counters is not None else {}
        for key in SEARCH_COUNTERS:
            self.counters.setdefault(key, 0)
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

    def check_runs(
        self,
        pair_results: Sequence[PairResult],
        xsafe: Sequence[Collection[tuple[int, int]]],
    ) -> list[BoundsVerdict]:
        """Both static bounds of each pair, in input order.

        ``xsafe[k]`` holds pair ``k``'s X-reach safe cases, which cannot
        glitch (:mod:`repro.analysis.hazard_exact`).  The pairs are
        walked one launch run at a time (:func:`launch_runs`), and within
        a run one round per source value ``a``, interleaved across the
        run's pairs as in the decision session.  A round closes the
        launch literals ``FF_i(t) = a``, ``FF_i(t+1) = 1-a`` once, at its
        first case that needs a premise; each of its cases then closes
        only its capture literals ``FF_j(t+1) = FF_j(t+2) = b`` and
        backtracks to the launch state.  A contradicted launch leaves
        the round's cases without a premise.

        Per pair the walk is the one the paper's §5 check makes, on
        paths from the source's new value ``FF_i(t+1)`` to the sink's
        data input ``FF_j(t+2)``.  While no case of the pair is
        uncleared and two or more of its ``a`` cases are left, its
        round starts with one co-sensitization search on the launch
        state; if that finds no path, it clears them all, and none
        closes its capture literals.  Every other search runs inside
        its case premise.  Co-sensitization searches run first, case by
        case, until one finds a path or hits a budget; the pair is then
        not cleared, and from that case on only sensitization searches
        run.  The pair's walk stops at its first case with a
        sensitizable path.  A pair cleared in every case runs no
        sensitization search.  Each search starts with the reachability
        proof of :func:`find_sensitizable_path` and reads the sink's
        cone within the second frame (:meth:`_sink_cone`).
        Co-sensitization still walks X-reach safe cases, so ``cleared``
        does not depend on them.  They run no sensitization search,
        because a sensitizable path there would be a real glitch, and
        past the first uncleared case they are skipped whole, premise
        included.  The other cases from the first uncleared one on are
        the verdict's ``open_cases``.

        Every pair's cases must be recorded ``a``-major, as every
        decider records them, so that the rounds visit them in their
        recorded order; a pair whose cases are not raises
        ``ValueError``.

        Both verdicts equal those of two separate walks (sensitization
        over every case, then co-sensitization).  A sensitization witness
        vector meets one co-sensitization option at every gate of its
        path, so a case that co-sensitization clears within budget has no
        sensitizable path, and the first case with one is the same.  A
        case's co-sensitizable path, with its justified vector, would
        also be found on the launch state, which holds fewer values, or
        stop that search at a budget; so a launch search that finds no
        path within budget leaves none to any of its cases.  That proof,
        and the reachability proof, can clear a case whose own search
        would stop at a budget ("Search budgets" in ``docs/hazards.md``);
        no other verdict moves.  The
        implication rules are monotone, so launch then capture closes to
        the values and unjustified gates of the one-shot premise, and
        contradicts exactly when it does; the engine state after a
        premise does not depend on the searches run before it.  So each
        search returns what it would on an engine of its own.  The
        engine is back at its entry state on return.
        """
        verdicts: list[BoundsVerdict] = []
        for start, end in launch_runs([r.pair for r in pair_results]):
            verdicts.extend(
                self._walk_run(pair_results[start:end], xsafe[start:end])
            )
        return verdicts

    def _walk_run(
        self,
        run: Sequence[PairResult],
        xsafe: Sequence[Collection[tuple[int, int]]],
    ) -> list[BoundsVerdict]:
        """The bounds of one same-source run (:meth:`check_runs`)."""
        expansion = self.expansion
        engine = self.engine
        source = expansion.ff_index(run[0].pair.source)
        ffi_t = expansion.ff_at[0][source]
        ffi_t1 = expansion.ff_at[1][source]
        walks = [_PairWalk(self, r, safe) for r, safe in zip(run, xsafe)]
        for a in BINARY:
            mark = engine.checkpoint()
            # Closes the launch literals at the round's first call.
            launch = cache(partial(engine.assume_all, [(ffi_t, a), (ffi_t1, 1 - a)]))
            for walk in walks:
                walk.walk_round(a, launch)
            engine.backtrack(mark)
        return [walk.verdict() for walk in walks]

    def _search(
        self,
        source: int,
        target: int,
        reach: set[int],
        mode: SensitizationMode,
    ) -> PathSearchResult:
        result = find_sensitizable_path(
            self.engine,
            source=source,
            target=target,
            allowed=self._frame2_nodes,
            mode=mode,
            backtrack_limit=self.backtrack_limit,
            max_attempts=self.max_attempts,
            reach=reach,
        )
        self.counters["path_searches"] += 1
        if result.unreachable:
            self.counters["proof_settled"] += 1
        return result

    def _sink_cone(self, target: int) -> set[int]:
        """``target``'s fan-in cone, followed through the second frame only.

        The frame's entry nodes (state entries, inputs) are the leaves.
        A path search enters only second-frame gates, and needs to know
        only whether the source is a leaf, so this cone serves it as the
        whole transitive fan-in of the expansion would.
        """
        frame2 = self._frame2_nodes
        fanins = self.engine.fanins
        cone = {target}
        stack = [target]
        while stack:
            node = stack.pop()
            if node in frame2:
                for fanin in fanins[node]:
                    if fanin not in cone:
                        cone.add(fanin)
                        stack.append(fanin)
        return cone

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


_COSENSITIZE = SensitizationMode.STATIC_CO_SENSITIZATION


class _PairWalk:
    """One pair's place in a run walk (:meth:`HazardChecker.check_runs`)."""

    def __init__(
        self,
        checker: HazardChecker,
        pair_result: PairResult,
        xsafe: Collection[tuple[int, int]],
    ) -> None:
        expansion = checker.expansion
        sink = expansion.ff_index(pair_result.pair.sink)
        self.checker = checker
        self.cases = HazardChecker._satisfiable_cases(pair_result)
        if any(
            earlier[0] > later[0]
            for earlier, later in zip(self.cases, self.cases[1:])
        ):
            raise ValueError(
                f"the cases of {pair_result.pair} are not recorded a-major"
            )
        self.xsafe = xsafe
        #: index of the next case to walk
        self.next = 0
        #: index of the first case co-sensitization does not clear
        self.first_open: int | None = None
        self.proven_case: tuple[int, int] | None = None
        self.path: list[int] | None = None
        #: the source's new value ``FF_i(t+1)``, where every path starts
        self.source = expansion.ff_at[1][expansion.ff_index(pair_result.pair.source)]
        self.ffj_t1 = expansion.ff_at[1][sink]
        self.ffj_t2 = expansion.ff_at[2][sink]
        #: the sink's frame-2 cone, shared by every path search of the pair
        self.reach: set[int] | None = None

    def walk_round(self, a: int, launch: Callable[[], bool]) -> None:
        """Walk the next cases with source value ``a``.

        ``launch()`` closes the round's launch literals at its first
        call and says whether they hold.  While every case walked so far
        is cleared and two or more ``a`` cases are left, one
        co-sensitization search on the launch state goes first; if it
        finds no path, it clears them all (:meth:`HazardChecker.check_runs`).
        """
        end = self.next
        while end < len(self.cases) and self.cases[end][0] == a:
            end += 1
        if (
            self.first_open is None
            and end - self.next > 1
            and launch()
            and self._search(_COSENSITIZE).outcome is PathSearchOutcome.NONE
        ):
            self.checker.counters["launch_cleared"] += end - self.next
            self.next = end
            return
        for index in self.cases_of(a):
            if launch():
                self.capture(index)

    def cases_of(self, a: int) -> Iterator[int]:
        """Indices of the next cases with source value ``a`` to walk.

        Past the first uncleared case, X-reach safe cases are skipped
        whole; after a sensitizable path, nothing is left.
        """
        cases = self.cases
        while self.next < len(cases) and cases[self.next][0] == a:
            index = self.next
            self.next += 1
            if self.first_open is None or cases[index] not in self.xsafe:
                yield index

    def capture(self, index: int) -> None:
        """Walk case ``index`` on top of its closed launch literals."""
        engine = self.checker.engine
        case = self.cases[index]
        b = case[1]
        mark = engine.checkpoint()
        path = None
        if engine.assume_all([(self.ffj_t1, b), (self.ffj_t2, b)]):
            if self.first_open is None:
                cosens = self._search(_COSENSITIZE)
                if cosens.outcome is not PathSearchOutcome.NONE:
                    self.first_open = index
            if self.first_open is not None and case not in self.xsafe:
                path = self._search(SensitizationMode.STATIC_SENSITIZATION).path
        engine.backtrack(mark)
        if path is not None:
            # A sensitizable path proves the glitch: the walk ends here.
            self.proven_case = case
            self.path = path
            self.next = len(self.cases)

    def _search(self, mode: SensitizationMode) -> PathSearchResult:
        """One path search to the sink on the engine's current state."""
        if self.reach is None:
            self.reach = self.checker._sink_cone(self.ffj_t2)
        return self.checker._search(self.source, self.ffj_t2, self.reach, mode)

    def verdict(self) -> BoundsVerdict:
        if self.first_open is None:
            return BoundsVerdict(None, cleared=True)
        open_cases = tuple(
            case for case in self.cases[self.first_open:]
            if case not in self.xsafe
        )
        return BoundsVerdict(self.proven_case, False, self.path, open_cases)
