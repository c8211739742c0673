"""Shared-launch decision sessions: one engine, many FF pairs.

The MC condition of every case ``(a, b)`` for a pair ``(FF_i, FF_j)``
starts from the same *launch* assumption ``FF_i(t)=a, FF_i(t+1)=¬a`` —
identical for every pair sharing the launching FF.  Re-deriving the
full three-assumption premise per case repeats that work four times per
pair; a :class:`DecisionSession` instead walks the surviving pairs in
*launch runs* (consecutive pairs with the same source, which is how
:func:`~repro.circuit.topology.connected_ff_pairs` orders them), pushes
each launch assumption once per ``(FF_i, a)``, keeps the implied trail
segment on the engine, and per pair/case only replays the capture-side
assumption ``FF_j(t+1)=b``.  A contradiction at the launch level settles
both captures of *every* pair under that launcher at once.

Why the results are identical to fresh per-case derivation: the
implication rules are monotone functions of the current value state, so
the closure of a set of assumptions (and whether it contradicts) does
not depend on the order they are posted in, and the unjustified set is a
function of the final values (a gate is re-examined whenever its
neighborhood changes, so its last examination sees the final state).
Splitting the premise into launch prefix + capture suffix therefore
reaches the same fixpoint the one-shot ``assume_all`` did, and every
downstream search starts from an identical state — verdicts, decision
and backtrack counts, and witnesses all match byte for byte.  The
property tests in ``tests/core/test_session.py`` pin this down against
the full-premise-per-case oracle (``tests/core/pair_analysis.py``).

Before the scalar walk, every group's cases run through the
bit-parallel closure of :mod:`repro.atpg.packed_implication`: each
``(pair, a, b)`` case is one lane, and every lane the closure proves
contradicted or implied-stable skips the scalar engine entirely.  A pair
whose four cases all settle that way gets its record straight from the
pre-pass; only pairs with an open case walk the launch runs, and their
open cases fall back to the scalar walk, so the records are the ones
the scalar walk alone would produce.

The k-cycle condition of the paper's §4.1 extension ("increasing the
number of time frames in Step 3") is the same walk over more frames: a
session built with ``k`` checks that the sink holds ``b`` through
``FF_j(t+k)``, one target frame at a time, and ``k = 2`` is the MC
condition.  Every k-cycle entry point (:mod:`repro.core.kcycle`)
decides through a session.

The session runs on the O(1)-checkpoint array engine of
:mod:`repro.atpg.implication` and is what the ``dalg``/``podem``/
``scoap`` deciders build in ``prepare()``; the parallel decision stage
shards whole launch runs so the prefix reuse survives in workers.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.circuit.timeframe import TimeFrameExpansion
from repro.circuit.topology import FFPair
from repro.logic.values import BINARY
from repro.atpg.implication import ImplicationEngine, LearnedTable
from repro.atpg.justify import SearchStatus, justify
from repro.core.result import (
    CaseOutcome,
    CaseResult,
    Classification,
    PairResult,
    Stage,
)

#: available backtrack-search engines (paper §4.5 compares dalg and
#: podem; scoap is dalg with SCOAP-ordered decisions)
SEARCH_ENGINES = ("dalg", "podem", "scoap")

#: a decided case resolved by the packed closure — mapping key is
#: ``(pair index in the group, a, b)``.
PackedResolved = dict[tuple[int, int, int], CaseResult]

#: the search-free case records the packed closure settles, shared by
#: every pair: ``_SETTLED[contradicted][2 * a + b]``.
_SETTLED = tuple(
    tuple(CaseResult(a, b, outcome) for a in BINARY for b in BINARY)
    for outcome in (CaseOutcome.IMPLIED_STABLE, CaseOutcome.CONTRADICTION)
)


def launch_runs(pairs: Sequence[FFPair]) -> list[tuple[int, int]]:
    """Half-open ``[start, end)`` runs of consecutive same-source pairs.

    ``connected_ff_pairs`` emits pairs sorted by ``(source, sink)``, and
    the random filter preserves that order, so in the pipeline each
    launching FF appears as exactly one run.  Arbitrary orderings are
    still handled correctly — scattered repeats of a source simply form
    several runs and share less.
    """
    runs: list[tuple[int, int]] = []
    index = 0
    total = len(pairs)
    while index < total:
        end = index + 1
        source = pairs[index].source
        while end < total and pairs[end].source == source:
            end += 1
        runs.append((index, end))
        index = end
    return runs


class DecisionSession:
    """Implication/ATPG decisions over one expansion, launch-prefix cached.

    Built once per expanded circuit (per process); :meth:`decide_group`
    settles a list of pairs and returns ``(PairResult, seconds)`` per
    pair in input order.  Each group first runs through the packed
    pre-pass (:meth:`_packed_resolve`: 64 cases per uint64 word share
    one implication fixpoint), then the scalar launch-run walk settles
    the cases the pre-pass left open.  :meth:`_packed_resolve` is the
    one override point of the pre-pass: a session whose override
    settles nothing walks every case.  A pair is multi-cycle when the
    sink stays stable through ``t+k``; ``k = 2`` (the default) is the
    MC condition, and the expansion needs at least ``k`` frames.
    """

    def __init__(
        self,
        expansion: TimeFrameExpansion,
        *,
        k: int = 2,
        backtrack_limit: int = 50,
        learned: LearnedTable | None = None,
        search_engine: str = "dalg",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if k < 2:
            raise ValueError("k must be >= 2")
        if expansion.frames < k:
            raise ValueError(
                f"deciding through t+{k} needs at least a {k}-frame expansion"
            )
        if search_engine not in SEARCH_ENGINES:
            raise ValueError(f"unknown search engine {search_engine!r}")
        self.expansion = expansion
        self.k = k
        self.backtrack_limit = backtrack_limit
        self._learned = learned
        self._packed_engine = None
        # ff_at rows t .. t+k as one (k+1, FFs) gather table
        self._ff_rows = np.asarray(expansion.ff_at[:k + 1], dtype=np.intp)
        self.clock = clock
        if search_engine == "podem":
            from repro.atpg.podem import podem_justify

            self._search = podem_justify
        elif search_engine == "scoap":
            from repro.atpg.scoap import compute_scoap, make_choice_sorter

            sorter = make_choice_sorter(compute_scoap(expansion.comb))

            def guided(engine, limit):
                return justify(engine, limit, choice_sorter=sorter)

            self._search = guided
        else:
            self._search = justify
        self.engine = ImplicationEngine(expansion.comb, learned=learned)
        # Session-lifetime observability counters (the decision_session
        # trace event and reporting totals read these via stats()).
        self.pairs_decided = 0
        self.prefix_hits = 0
        self.prefix_misses = 0
        self.launch_conflicts = 0
        self.trail_high_water = 0
        self.packed_lanes = 0
        self.packed_resolved = 0
        self.packed_fallbacks = 0
        self.packed_us = 0

    def stats(self) -> dict[str, int]:
        """Counter snapshot for the ``decision_session`` summary event.

        Lanes the packed closure settles never touch the scalar engine,
        so ``implications`` and the prefix counters count only the
        scalar walk; the ``packed_*`` counters account for the rest.
        """
        packed = self._packed_engine
        return {
            "pairs": self.pairs_decided,
            "prefix_hits": self.prefix_hits,
            "prefix_misses": self.prefix_misses,
            "launch_conflicts": self.launch_conflicts,
            "implications": self.engine.implications,
            "trail_high_water": self.trail_high_water,
            "packed_lanes": self.packed_lanes,
            "packed_resolved": self.packed_resolved,
            "packed_fallbacks": self.packed_fallbacks,
            "packed_closures": packed.closures if packed else 0,
            "packed_visits": packed.visits if packed else 0,
            "packed_us": self.packed_us,
        }

    # ------------------------------------------------------------------
    # Deciding.
    # ------------------------------------------------------------------
    def decide(self, pair: FFPair) -> PairResult:
        """Settle one pair (single-pair group; prefix still pushed once)."""
        return self.decide_group([pair])[0][0]

    def decide_group(
        self, pairs: Sequence[FFPair]
    ) -> list[tuple[PairResult, float]]:
        """Settle ``pairs`` in order; returns ``(result, seconds)`` each.

        A pair whose four cases the pre-pass settled is multi-cycle by
        implication with no walk: its record is the one the launch-run
        walk would build (cases in ``(a, b)`` order, zero walk
        counters).  The other pairs of each launch run walk it in pair
        order; the prefix push is lazy, so leaving settled pairs out of
        a run changes no engine operation.
        """
        if not pairs:
            return []
        out: list = [None] * len(pairs)
        started = self.clock()
        resolved = self._packed_resolve(pairs)
        packed_share = (self.clock() - started) / len(pairs)
        get = resolved.get
        for start, end in launch_runs(pairs):
            walk = []
            for index in range(start, end):
                cases = [
                    get((index, 0, 0)), get((index, 0, 1)),
                    get((index, 1, 0)), get((index, 1, 1)),
                ]
                if cases[0] and cases[1] and cases[2] and cases[3]:
                    result = PairResult(
                        pairs[index],
                        Classification.MULTI_CYCLE,
                        Stage.IMPLICATION,
                        cases,
                        metrics={
                            "implications": 0,
                            "prefix_hits": 0,
                            "prefix_misses": 0,
                        },
                    )
                    out[index] = (result, 0.0)
                else:
                    walk.append(index)
            if walk:
                self._decide_run(pairs, walk, out, resolved)
        self.pairs_decided += len(pairs)
        # The shared closure's cost is attributed evenly — per-pair
        # seconds stay meaningful and the group total is exact.
        return [(result, seconds + packed_share) for result, seconds in out]

    # ------------------------------------------------------------------
    # Packed pre-pass.
    # ------------------------------------------------------------------
    def _packed_resolve(self, pairs: Sequence[FFPair]) -> PackedResolved:
        """Settle search-free cases of ``pairs`` in packed closures.

        Every pair contributes its four ``(a, b)`` cases as lanes of a
        :class:`~repro.atpg.packed_implication.PackedImplicationEngine`
        closure (chunked at the engine's lane capacity).  A lane whose
        premise conflicts is a ``CONTRADICTION``.  A lane whose closure
        forces every target before the last, ``FF_j(t+2) .. FF_j(t+k-1)``,
        to ``b`` and forces the last, ``FF_j(t+k)``, to ``b`` too — or
        leaves it X but contradicts on the stability probe
        ``FF_j(t+k) = 1-b`` — is ``IMPLIED_STABLE``.  Those outcomes
        carry no search effort in the scalar path, so the returned
        records are byte-identical to what the fallback would have
        produced; every other lane is left to the scalar engine.
        """
        from repro.atpg.packed_implication import (
            MAX_LANES,
            PackedImplicationEngine,
        )

        started = self.clock()
        engine = self._packed_engine
        if engine is None:
            engine = PackedImplicationEngine(
                self.expansion.comb, learned=self._learned
            )
            self._packed_engine = engine
        ff_rows = self._ff_rows
        ff_index = self.expansion.ff_index
        resolved: PackedResolved = {}
        chunk = MAX_LANES // 4
        for chunk_start in range(0, len(pairs), chunk):
            block = pairs[chunk_start:chunk_start + chunk]
            lanes = len(block) * 4
            # Lane 4p + 2a + b is case (a, b) of the block's pair p.
            lane_ids = np.arange(lanes)
            a = (lane_ids >> 1) & 1
            b = lane_ids & 1
            source = np.fromiter(
                (ff_index(pair.source) for pair in block), np.intp, len(block)
            ).repeat(4)
            sink = np.fromiter(
                (ff_index(pair.sink) for pair in block), np.intp, len(block)
            ).repeat(4)
            nodes = np.stack(
                (ff_rows[0, source], ff_rows[1, source], ff_rows[1, sink]),
                axis=1,
            )
            values = np.stack((a, 1 - a, b), axis=1)
            # One row per target frame FF_j(t+2) .. FF_j(t+k).
            targets = ff_rows[2:, sink]
            engine.close_matrix(nodes, values)
            conflicted = engine.conflict_lanes(lane_ids)
            known, value = engine.read_nodes(
                targets.ravel(), np.tile(lane_ids, len(targets))
            )
            known = known.reshape(targets.shape)
            held = (known == 1) & (value.reshape(targets.shape) == b)
            # Lanes whose every target before the last is forced to b.
            earlier = ~conflicted & held[:-1].all(axis=0)
            open_lanes = np.flatnonzero(earlier & (known[-1] == 0))
            probe_stable = np.zeros(lanes, dtype=bool)
            if len(open_lanes):
                engine.extend(
                    zip(
                        open_lanes.tolist(),
                        targets[-1, open_lanes].tolist(),
                        (1 - b[open_lanes]).tolist(),
                    )
                )
                probe_stable[open_lanes] = engine.conflict_lanes(open_lanes)
            # Settled: a contradicted premise, or earlier targets forced
            # to b and the last forced to b or its probe FF_j(t+k) = 1-b
            # contradicted.  The rest need the scalar walk.
            settled = conflicted | (earlier & (held[-1] | probe_stable))
            contradicted = conflicted.tolist()
            for lane in np.flatnonzero(settled).tolist():
                key = (chunk_start + (lane >> 2), (lane >> 1) & 1, lane & 1)
                resolved[key] = _SETTLED[contradicted[lane]][lane & 3]
            self.packed_lanes += lanes
        self.packed_resolved += len(resolved)
        self.packed_fallbacks += 4 * len(pairs) - len(resolved)
        self.packed_us += int((self.clock() - started) * 1e6)
        return resolved

    def _decide_run(
        self,
        pairs: Sequence[FFPair],
        members: list[int],
        out: list,
        resolved: PackedResolved,
    ) -> None:
        """Settle the ``members`` of one same-source run (pair indices in
        order), sharing the launch prefixes.

        Per-pair case order stays ``(0,0),(0,1),(1,0),(1,1)`` with the
        usual short-circuit on VIOLATED/ABORTED; the rounds over ``a``
        are interleaved across the run's pairs so each prefix is pushed
        exactly once.  The prefix propagation is timed (and its
        implications counted) inside the first unsettled pair's block.

        ``resolved`` (the packed pre-pass) supplies finished case
        records keyed by ``(pair index, a, b)``; the prefix push is lazy
        — it happens at the first case the packed closure left open, so
        a fully packed-settled round never touches the scalar engine.
        """
        expansion = self.expansion
        engine = self.engine
        clock = self.clock
        source_index = expansion.ff_index(pairs[members[0]].source)
        ffi_t = expansion.ff_at[0][source_index]
        ffi_t1 = expansion.ff_at[1][source_index]
        capture_row = expansion.ff_at[1]
        target_rows = expansion.ff_at[2:self.k + 1]

        count = len(members)
        cases: list[list[CaseResult]] = [[] for _ in range(count)]
        verdict: list[tuple[Classification, Stage] | None] = [None] * count
        used_search = [False] * count
        seconds = [0.0] * count
        implications = [0] * count
        hits = [0] * count
        misses = [0] * count

        for a in BINARY:
            prefix_ok: bool | None = None
            mark = None
            for i in range(count):
                if verdict[i] is not None:
                    continue
                started = clock()
                posted_before = engine.implications
                prefix_counted = False
                capture = -1
                targets: list[int] = []
                for b in BINARY:
                    case = resolved.get((members[i], a, b))
                    if case is None:
                        if prefix_ok is None:
                            mark = engine.checkpoint()
                            prefix_ok = engine.assume_all(
                                [(ffi_t, a), (ffi_t1, 1 - a)]
                            )
                            self.prefix_misses += 1
                            misses[i] += 1
                            if not prefix_ok:
                                self.launch_conflicts += 1
                            self._note_high_water()
                            prefix_counted = True
                        elif not prefix_counted:
                            self.prefix_hits += 1
                            hits[i] += 1
                            prefix_counted = True
                        if not prefix_ok:
                            # The launch assumption itself is impossible:
                            # the capture case is contradicted outright.
                            case = CaseResult(a, b, CaseOutcome.CONTRADICTION)
                        else:
                            if capture < 0:
                                pair = pairs[members[i]]
                                sink_index = expansion.ff_index(pair.sink)
                                capture = capture_row[sink_index]
                                targets = [
                                    row[sink_index] for row in target_rows
                                ]
                            case = self._capture_case(capture, targets, a, b)
                    cases[i].append(case)
                    if case.decisions:
                        used_search[i] = True
                    if case.outcome is CaseOutcome.VIOLATED:
                        verdict[i] = (
                            Classification.SINGLE_CYCLE,
                            Stage.ATPG if case.decisions else Stage.IMPLICATION,
                        )
                        break
                    if case.outcome is CaseOutcome.ABORTED:
                        verdict[i] = (Classification.UNDECIDED, Stage.ATPG)
                        break
                implications[i] += engine.implications - posted_before
                seconds[i] += clock() - started
            if mark is not None:
                engine.backtrack(mark)

        for i in range(count):
            if verdict[i] is not None:
                classification, stage = verdict[i]
            else:
                classification = Classification.MULTI_CYCLE
                stage = Stage.ATPG if used_search[i] else Stage.IMPLICATION
            result = PairResult(
                pairs[members[i]],
                classification,
                stage,
                cases[i],
                metrics={
                    "implications": implications[i],
                    "prefix_hits": hits[i],
                    "prefix_misses": misses[i],
                },
            )
            out[members[i]] = (result, seconds[i])

    # ------------------------------------------------------------------
    # Case analysis.
    # ------------------------------------------------------------------
    def _capture_case(
        self, capture: int, targets: list[int], a: int, b: int
    ) -> CaseResult:
        """One case on top of an already-propagated launch prefix."""
        engine = self.engine
        mark = engine.checkpoint()
        try:
            if not engine.assume(capture, b):
                return CaseResult(a, b, CaseOutcome.CONTRADICTION)
            self._note_high_water()
            return self._case_tail(targets, a, b)
        finally:
            engine.backtrack(mark)

    def _case_tail(self, targets: list[int], a: int, b: int) -> CaseResult:
        """Post-premise logic: implied value checks + searches.

        With the premise ``FF_i(t)=a, FF_i(t+1)=¬a, FF_j(t+1)=b``
        propagated, the case walks the targets ``FF_j(t+m)``, ``m =
        2..k``.  A target implied to ``b`` holds.  Otherwise a search for
        an input pattern with ``FF_j(t+m)=¬b`` either finds one (the
        sink can change: VIOLATED) or proves none exists, and the walk
        goes on with ``FF_j(t+m)=b`` assumed in place of the refuted
        probe.  The last target takes no sub-checkpoint, since nothing
        is assumed after it, so at ``k = 2`` this is the MC condition's
        single check.  Decisions and backtracks add up across frames;
        the case is PROVED_STABLE when a search ran, IMPLIED_STABLE
        when none did.

        One refinement over the paper's Step 4.1.3: when implication
        derives ``FF_j(t+m)=¬b`` the paper immediately declares the
        pair single-cycle.  That conclusion needs the assumed values to
        be justifiable, so the justification search confirms it (it
        starts from the implied state and is near-instant); an
        unjustifiable premise is treated like the contradiction case.
        See DESIGN.md "Algorithmic notes".
        """
        engine = self.engine
        decisions = backtracks = 0
        searched = False
        last = len(targets) - 1
        for index, target in enumerate(targets):
            implied = engine.value(target)
            if implied == b:
                continue
            flipped = implied == 1 - b
            # A refuted probe is undone only where a later target follows.
            mark = engine.checkpoint() if not flipped and index < last else None
            if flipped or engine.assume(target, 1 - b):
                result = self._search(engine, self.backtrack_limit)
                searched = True
                decisions += result.decisions
                backtracks += result.backtracks
                if result.status is SearchStatus.SAT:
                    return CaseResult(
                        a, b, CaseOutcome.VIOLATED,
                        decisions, backtracks, result.witness,
                    )
                if result.status is SearchStatus.ABORTED:
                    return CaseResult(
                        a, b, CaseOutcome.ABORTED, decisions, backtracks
                    )
                if flipped:
                    return CaseResult(
                        a, b, CaseOutcome.CONTRADICTION, decisions, backtracks
                    )
            if mark is None:
                break
            engine.backtrack(mark)
            if not engine.assume(target, b):
                return CaseResult(
                    a, b, CaseOutcome.CONTRADICTION, decisions, backtracks
                )
        outcome = (
            CaseOutcome.PROVED_STABLE if searched else CaseOutcome.IMPLIED_STABLE
        )
        return CaseResult(a, b, outcome, decisions, backtracks)

    def _note_high_water(self) -> None:
        depth = self.engine.assignment.num_assigned()
        if depth > self.trail_high_water:
            self.trail_high_water = depth
