"""Exact SAT-backed hazard classification of multi-cycle FF pairs.

The paper's two path-search checks bracket the exact static-hazard
condition: static sensitization is the optimistic lower bound (a found
path comes with a justification-verified vector, so the glitch is real)
and static co-sensitization is the safe upper bound (a pair it clears
cannot glitch).  Pairs where the bounds disagree were previously left
with a conservative "maybe" — this module closes the gap by deciding
the condition *exactly*, following Komarath-Saurabh's formulation of
hazard detection as a decision problem, on the shared incremental SAT
decider:

    is there a binary assignment to the 2-frame expansion's inputs that
    (1) satisfies the case premise ``FF_i(t) = a``, ``FF_i(t+1) = 1-a``,
        ``FF_j(t+1) = FF_j(t+2) = b``, and
    (2) drives the sink's data input ``FF_j(t+2)`` to X when the
        *source's* second-frame state entry alone is replaced by X in an
        Eichelberger-style ternary re-evaluation of the second frame?

Condition (2) is encoded dual-rail: every second-frame node ``n`` gets
two literals ``p_n`` ("the ternary value can be 1") and ``q_n`` ("can
be 0"), with ``X == p AND q``; the Kleene gate algebra then becomes
plain monotone AND/OR structure over the rails, sharing the solver with
the binary Tseitin plane of the whole expansion.  Each state entry
carries a *force-X selector* variable so one encoding serves every pair
under assumptions, exactly like the SAT MC decider shares its CNF.
Flip-flops whose D inputs come from one node share that state entry,
so forcing it forces all of them.

Before any bound walk, an *X-reach* pre-pass settles whole cases
without the solver.  One packed implication closure of the 2-frame
expansion holds every (pair, satisfiable case) lane, seeded with the
case premise.  Its implied values on the second frame's state entries
and primary inputs seed a Kleene sweep of the sequential circuit's
logic, with X on every flip-flop reading the source's state entry and
on every input the closure left open.  A case is *X-reach safe* when
its premise conflicts or the sink's data input stays binary.  That is
sound: every assignment satisfying the premise refines the implied
values, and Kleene evaluation is monotone, so its sink cannot be X.
The bound walk and the solver skip those cases.

The resulting three-way classification per pair:

* ``safe`` — no satisfiable case glitches (the co-sensitization bound
  cleared the pair, X-reach settled every case it left open, or the
  solver proved the rest UNSAT),
* ``glitch-proven`` — a sensitizable path or a SAT witness proves it,
* ``glitch-possible`` — only when a resource limit (path search and
  conflict limit both) leaves the pair undecided; flagged downstream.

With a per-gate min/max delay annotation (:mod:`repro.sta.delays`) the
checker additionally re-filters glitch-proven pairs: the SAT witness
fixes the ternary X-set, and an earliest/latest arrival sweep over it
decides whether the reconverging transition can actually produce a
pulse at the sink (``latest > earliest``).  Equal-delay single-path
glitch reports die here — a lone clean edge is not a hazard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.atpg.packed_implication import MAX_LANES, PackedImplicationEngine
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion, expand_cached
from repro.circuit.topology import FFPair
from repro.logic.bitsim import TernarySimulator, pack_lane_matrix
from repro.logic.simulator import evaluate_gate, ternary_eval
from repro.logic.values import X
from repro.core.hazard import SEARCH_COUNTERS, BoundsVerdict, HazardChecker
from repro.core.result import (
    HazardVerdictKind,
    PairHazardVerdict,
    PairResult,
)
from repro.sat.solver import CdclSolver, SolveStatus
from repro.sat.tseitin import CircuitEncoding, encode_circuit
from repro.sta.delays import GateDelays

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import DetectorOptions

#: Dual-rail representation of one ternary signal: ``(p, q)`` literals
#: with ``p`` = "can evaluate to 1" and ``q`` = "can evaluate to 0".
Rail = tuple[int, int]

#: Counter keys of :attr:`ExactHazardChecker.counters` / :meth:`summary`:
#: the verdict counts, then the bound walk's search work
#: (:data:`~repro.core.hazard.SEARCH_COUNTERS`).
COUNTER_KEYS = (
    "checked",
    "disagreement",
    "resolved",
    "xreach",
    "safe",
    "glitch_possible",
    "glitch_proven",
    "sat_solves",
    "sat",
    "unsat",
    "unknown",
    "delay_filtered",
    *SEARCH_COUNTERS,
)


def empty_exact_summary() -> dict[str, float | int]:
    """The summary of an exact pass that saw no multi-cycle pairs."""
    summary: dict[str, float | int] = {key: 0 for key in COUNTER_KEYS}
    summary["resolution_fraction"] = 1.0
    return summary


def _and_var(solver: CdclSolver, lits: list[int]) -> int:
    """Literal equivalent to the conjunction of ``lits``."""
    if len(lits) == 1:
        return lits[0]
    out = solver.new_var()
    for lit in lits:
        solver.add_clause([-out, lit])
    solver.add_clause([out] + [-lit for lit in lits])
    return out


def _or_var(solver: CdclSolver, lits: list[int]) -> int:
    """Literal equivalent to the disjunction of ``lits``."""
    if len(lits) == 1:
        return lits[0]
    out = solver.new_var()
    for lit in lits:
        solver.add_clause([out, -lit])
    solver.add_clause([-out] + list(lits))
    return out


def _xor_rail(solver: CdclSolver, a: Rail, b: Rail) -> Rail:
    """Kleene XOR over two rails (X wins whenever either side is X)."""
    pa, qa = a
    pb, qb = b
    p = _or_var(solver, [_and_var(solver, [pa, qb]), _and_var(solver, [qa, pb])])
    q = _or_var(solver, [_and_var(solver, [pa, pb]), _and_var(solver, [qa, qb])])
    return p, q


class ExactHazardChecker:
    """Three-way exact hazard classifier over a shared 2-frame expansion.

    :meth:`check_pairs` first runs the X-reach pre-pass (module
    docstring) over every satisfiable case of its pairs.  Both
    path-search bounds then come from one walk per launch run on one
    implication engine: each source value's launch literals are closed
    once per run and each case's capture literals at most once
    (:meth:`~repro.core.hazard.HazardChecker.check_runs`).  The safe
    co-sensitization bound goes first: a pair it clears in every case is
    ``safe`` and runs no sensitization search.  From the first case it
    does not clear, the sensitization search looks for a proof in each
    case X-reach did not settle, and the first case with a sensitizable
    path makes the pair ``glitch-proven``.  Every verdict equals that of
    a full sensitization walk followed by a co-sensitization walk: a
    sensitization witness meets a co-sensitization option at every gate
    of its path, so a case cleared within budget holds no sensitizable
    path, and a sensitizable path is a real glitch, so an X-reach safe
    case holds none either.  A disagreeing pair whose open cases X-reach
    settled is ``safe`` by ``xreach``.  Only pairs with an open case
    left (and, with a delay sidecar, proven ones) reach the SAT
    encoding, which is built lazily and then shared by every remaining
    pair through assumptions.

    Every verdict records what the bounds said: ``sensitize_flagged``
    (a sensitizable path was found), ``cosensitize_flagged`` (not
    cleared within budget) and the sensitizable ``witness_path``.  A
    search that hits its budget neither clears a pair nor proves a
    glitch, so it sets ``cosensitize_flagged`` only.
    """

    def __init__(
        self,
        circuit: Circuit,
        expansion: TimeFrameExpansion | None = None,
        *,
        backtrack_limit: int = 50,
        max_attempts: int = 5000,
        conflict_limit: int = 100_000,
        delays: GateDelays | None = None,
    ) -> None:
        self.circuit = circuit
        if expansion is None:
            expansion = expand_cached(circuit, frames=2)
        elif expansion.frames < 2:
            raise ValueError("the exact hazard check needs a 2-frame expansion")
        self.expansion = expansion
        self.conflict_limit = conflict_limit
        self.delays = delays
        self.counters: dict[str, int] = {key: 0 for key in COUNTER_KEYS}
        self._bounds = HazardChecker(
            circuit,
            backtrack_limit=backtrack_limit,
            max_attempts=max_attempts,
            expansion=expansion,
            counters=self.counters,
        )
        self._packed: PackedImplicationEngine | None = None
        self._solver: CdclSolver | None = None
        self._encoding: CircuitEncoding | None = None
        self._rails: dict[int, Rail] = {}
        #: second-frame state entry node -> force-X selector variable
        self._force: dict[int, int] = {}
        self._x_of: dict[int, int] = {}
        #: (sequential node, second-frame copy) in topological order
        self._frame_gates: list[tuple[int, int]] = []

    @classmethod
    def from_options(
        cls,
        circuit: Circuit,
        options: DetectorOptions,
        expansion: TimeFrameExpansion | None = None,
        delays: GateDelays | None = None,
    ) -> ExactHazardChecker:
        """The checker a run under ``options`` uses.

        The one mapping from a run's hazard options to the path-search
        budget (the constant ``HAZARD_BACKTRACK_LIMIT``), the SAT
        conflict limit and the delay sidecar, shared by the pipeline's
        hazard pass and the report.  ``delays`` passes a sidecar the
        caller already loaded; by default it is read from
        ``options.hazard_delays``.
        """
        from repro.core.pipeline import HAZARD_BACKTRACK_LIMIT, load_gate_delays

        if delays is None:
            delays = load_gate_delays(options, circuit)
        return cls(
            circuit,
            expansion,
            backtrack_limit=HAZARD_BACKTRACK_LIMIT,
            conflict_limit=options.hazard_conflict_limit,
            delays=delays,
        )

    # ------------------------------------------------------------------
    # Classification.
    # ------------------------------------------------------------------
    def check_pair(self, pair_result: PairResult) -> PairHazardVerdict:
        """Classify one multi-cycle pair as safe / possible / proven."""
        return self.check_pairs([pair_result])[0]

    def check_pairs(
        self, pair_results: Iterable[PairResult]
    ) -> list[PairHazardVerdict]:
        """Classify pairs in order, after one X-reach pre-pass over all.

        The bound walk runs per launch run; the pairs are then
        classified in input order, so the solver sees them in that order.
        """
        pair_results = list(pair_results)
        safe = self._xreach_safe(pair_results)
        bounds = self._bounds.check_runs(pair_results, safe)
        return [
            self._check(pair_result, pair_bounds)
            for pair_result, pair_bounds in zip(pair_results, bounds)
        ]

    def _check(
        self, pair_result: PairResult, bounds: BoundsVerdict
    ) -> PairHazardVerdict:
        self.counters["checked"] += 1
        cases = HazardChecker._satisfiable_cases(pair_result)
        verdict = self._classify(pair_result.pair, cases, bounds)
        verdict.sensitize_flagged = bounds.proven_case is not None
        verdict.cosensitize_flagged = not bounds.cleared
        verdict.witness_path = bounds.witness_path
        self.counters[verdict.verdict.value.replace("-", "_")] += 1
        if verdict.delay_safe:
            self.counters["delay_filtered"] += 1
        return verdict

    def summary(self) -> dict[str, float | int]:
        """Counter snapshot plus the bench-gated resolution fraction."""
        summary: dict[str, float | int] = dict(self.counters)
        disagreement = self.counters["disagreement"]
        resolved = self.counters["resolved"]
        summary["resolution_fraction"] = (
            1.0 if disagreement == 0 else resolved / disagreement
        )
        return summary

    def _classify(
        self,
        pair: FFPair,
        cases: list[tuple[int, int]],
        bounds: BoundsVerdict,
    ) -> PairHazardVerdict:
        if not cases:
            # Every premise contradicts: the source cannot toggle while
            # the sink holds, so there is no transition to glitch with.
            return PairHazardVerdict(pair, HazardVerdictKind.SAFE, "cases")
        if bounds.cleared:
            return PairHazardVerdict(pair, HazardVerdictKind.SAFE, "cosensitize")
        proven = bounds.proven_case is not None
        if proven and self.delays is None:
            # The lower bound proved the glitch and no delay filter needs
            # an input witness: done without touching the solver.
            return PairHazardVerdict(
                pair,
                HazardVerdictKind.GLITCH_PROVEN,
                "sensitize",
                witness_case=bounds.proven_case,
            )
        disagreeing = not proven
        if disagreeing:
            self.counters["disagreement"] += 1
            if not bounds.open_cases:
                # X-reach settled every case co-sensitization left open.
                self.counters["resolved"] += 1
                self.counters["xreach"] += 1
                return PairHazardVerdict(pair, HazardVerdictKind.SAFE, "xreach")
        case, witness, unknown = self._solve_pair(pair, bounds.open_cases)
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
                # Conflict limit hit, but the lower bound already proved
                # the glitch — only the delay-filter witness is missing.
                return PairHazardVerdict(
                    pair,
                    HazardVerdictKind.GLITCH_PROVEN,
                    "sensitize",
                    witness_case=bounds.proven_case,
                )
            return PairHazardVerdict(
                pair, HazardVerdictKind.GLITCH_POSSIBLE, "exact"
            )
        if disagreeing:
            self.counters["resolved"] += 1
        return PairHazardVerdict(pair, HazardVerdictKind.SAFE, "exact")

    # ------------------------------------------------------------------
    # X-reach pre-pass.
    # ------------------------------------------------------------------
    def _xreach_safe(
        self, pair_results: list[PairResult]
    ) -> list[set[tuple[int, int]]]:
        """The X-reach safe cases of each pair (module docstring).

        One lane per (pair, satisfiable case), up to :data:`MAX_LANES`
        per closure.  The closure gets no learned table, like the
        scalar engine of the bound walk.
        """
        safe: list[set[tuple[int, int]]] = [set() for _ in pair_results]
        lanes = [
            (index, case)
            for index, pair_result in enumerate(pair_results)
            for case in HazardChecker._satisfiable_cases(pair_result)
        ]
        if not lanes:
            return safe
        expansion = self.expansion
        circuit = self.circuit
        if self._packed is None:
            self._packed = PackedImplicationEngine(expansion.comb)
        engine = self._packed
        ff_at = [np.asarray(row, dtype=np.intp) for row in expansion.ff_at]
        d_inputs = np.asarray(
            [circuit.next_state_node(dff) for dff in circuit.dffs],
            dtype=np.intp,
        )
        for start in range(0, len(lanes), MAX_LANES):
            chunk = lanes[start:start + MAX_LANES]
            pairs = [pair_results[index].pair for index, _ in chunk]
            source = np.asarray(
                [expansion.ff_index(pair.source) for pair in pairs],
                dtype=np.intp,
            )
            sink = np.asarray(
                [expansion.ff_index(pair.sink) for pair in pairs],
                dtype=np.intp,
            )
            a, b = np.asarray([case for _, case in chunk], dtype=np.intp).T
            engine.close_matrix(
                np.stack(
                    [ff_at[0][source], ff_at[1][source],
                     ff_at[1][sink], ff_at[2][sink]],
                    axis=1,
                ),
                np.stack([a, 1 - a, b, b], axis=1),
            )
            ff_value, ff_care = engine.planes(expansion.ff_at[1])
            pi_value, pi_care = engine.planes(expansion.pi_at[1])
            words = ff_care.shape[1]
            # X on every flip-flop whose t+1 value is the lane's source
            # entry: flip-flops whose D inputs come from one node share it.
            forced = pack_lane_matrix(
                ff_at[1][:, None] == ff_at[1][source][None, :], words
            )
            sim = TernarySimulator(circuit, words)
            sim.set_source_planes(circuit.dffs, ff_value, ff_care & ~forced)
            sim.set_source_planes(circuit.inputs, pi_value, pi_care)
            sim.comb_eval()
            lane_ids = np.arange(len(chunk), dtype=np.intp)
            sink_known = (
                sim.care[d_inputs[sink], lane_ids >> 6]
                >> (lane_ids & 63).astype(np.uint64)
            ) & np.uint64(1)
            settled = engine.conflict_lanes(lane_ids) | (sink_known == 1)
            for lane in np.flatnonzero(settled).tolist():
                index, case = chunk[lane]
                safe[index].add(case)
        return safe

    # ------------------------------------------------------------------
    # SAT decision.
    # ------------------------------------------------------------------
    def _solve_pair(
        self, pair: FFPair, cases: Iterable[tuple[int, int]]
    ) -> tuple[tuple[int, int] | None, dict[int, int] | None, bool]:
        """Try each case in turn; returns (case, witness, unknown)."""
        self._ensure_encoding()
        solver = self._solver
        encoding = self._encoding
        assert solver is not None and encoding is not None
        expansion = self.expansion
        source = expansion.ff_index(pair.source)
        sink = expansion.ff_index(pair.sink)
        source_node = expansion.ff_at[1][source]
        target = expansion.ff_at[2][sink]
        ffi_t = expansion.ff_at[0][source]
        ffj_t1 = expansion.ff_at[1][sink]
        base = [
            selector if node == source_node else -selector
            for node, selector in self._force.items()
        ]
        base.append(self._x_lit(target))
        unknown = False
        for a, b in cases:
            assumptions = base + [
                encoding.lit(ffi_t, a),
                encoding.lit(source_node, 1 - a),
                encoding.lit(ffj_t1, b),
                encoding.lit(target, b),
            ]
            self.counters["sat_solves"] += 1
            status = solver.solve(assumptions, conflict_limit=self.conflict_limit)
            if status is SolveStatus.SAT:
                self.counters["sat"] += 1
                witness: dict[int, int] = {}
                for node in expansion.comb.inputs:
                    value = solver.model_value(encoding.var_of[node])
                    witness[node] = 0 if value is None else value
                return (a, b), witness, unknown
            if status is SolveStatus.UNKNOWN:
                self.counters["unknown"] += 1
                unknown = True
            else:
                self.counters["unsat"] += 1
        return None, None, unknown

    def _ensure_encoding(self) -> None:
        """Lazily build the shared binary + dual-rail encoding."""
        if self._solver is not None:
            return
        expansion = self.expansion
        circuit = self.circuit
        solver = CdclSolver()
        encoding = encode_circuit(expansion.comb, solver)
        rails = self._rails
        # Second-frame state entries settle at their binary value unless
        # the pair's force-X selector is assumed (the toggling source).
        for node in dict.fromkeys(expansion.ff_at[1]):
            selector = solver.new_var()
            value = encoding.lit(node, 1)
            rails[node] = (
                _or_var(solver, [selector, value]),
                _or_var(solver, [selector, -value]),
            )
            self._force[node] = selector
        # Second-frame primary inputs settle at their free binary value.
        for node in expansion.pi_at[1]:
            rails.setdefault(node, (encoding.lit(node, 1), encoding.lit(node, 0)))
        # Second-frame gate copies, in topological order.
        node_map = expansion.node_at[1]
        for node in circuit.topo_order():
            gate_type = circuit.types[node]
            if gate_type in (GateType.INPUT, GateType.DFF):
                continue
            copy = node_map[node]
            fanin_rails = [rails[node_map[f]] for f in circuit.fanins[node]]
            rails[copy] = self._gate_rail(
                solver, encoding, gate_type, copy, fanin_rails
            )
            self._frame_gates.append((node, copy))
        self._solver = solver
        self._encoding = encoding

    @staticmethod
    def _gate_rail(
        solver: CdclSolver,
        encoding: CircuitEncoding,
        gate_type: GateType,
        copy: int,
        fanins: list[Rail],
    ) -> Rail:
        """Dual-rail Kleene semantics of one gate (see module docstring)."""
        if gate_type in (GateType.CONST0, GateType.CONST1):
            return encoding.lit(copy, 1), encoding.lit(copy, 0)
        if gate_type in (GateType.BUF, GateType.OUTPUT):
            return fanins[0]
        if gate_type == GateType.NOT:
            p, q = fanins[0]
            return q, p
        if gate_type == GateType.AND:
            return (
                _and_var(solver, [p for p, _ in fanins]),
                _or_var(solver, [q for _, q in fanins]),
            )
        if gate_type == GateType.NAND:
            return (
                _or_var(solver, [q for _, q in fanins]),
                _and_var(solver, [p for p, _ in fanins]),
            )
        if gate_type == GateType.OR:
            return (
                _or_var(solver, [p for p, _ in fanins]),
                _and_var(solver, [q for _, q in fanins]),
            )
        if gate_type == GateType.NOR:
            return (
                _and_var(solver, [q for _, q in fanins]),
                _or_var(solver, [p for p, _ in fanins]),
            )
        if gate_type in (GateType.XOR, GateType.XNOR):
            rail = fanins[0]
            for operand in fanins[1:]:
                rail = _xor_rail(solver, rail, operand)
            if gate_type == GateType.XNOR:
                rail = (rail[1], rail[0])
            return rail
        if gate_type == GateType.MUX:
            (ps, qs), (p0, q0), (p1, q1) = fanins
            p = _or_var(
                solver,
                [_and_var(solver, [ps, p1]), _and_var(solver, [qs, p0])],
            )
            q = _or_var(
                solver,
                [_and_var(solver, [ps, q1]), _and_var(solver, [qs, q0])],
            )
            return p, q
        raise ValueError(f"unhandled gate type {gate_type}")

    def _x_lit(self, node: int) -> int:
        """Literal asserting node ``node`` evaluates to X (lazy per sink)."""
        cached = self._x_of.get(node)
        if cached is None:
            solver = self._solver
            assert solver is not None
            p, q = self._rails[node]
            cached = _and_var(solver, [p, q])
            self._x_of[node] = cached
        return cached

    # ------------------------------------------------------------------
    # Delay-annotated re-filter.
    # ------------------------------------------------------------------
    def _survives_delays(self, pair: FFPair, witness: dict[int, int]) -> bool:
        """Earliest/latest arrival sweep over the witness's X-set.

        The transition leaves the source's state entry at time 0; every
        X node accumulates ``min``/``max`` gate delays along its X
        fanins.  A pulse can only form at the sink when the latest
        arrival strictly exceeds the earliest — reconvergence with
        delay spread, per the classic static-hazard timing argument.
        """
        delays = self.delays
        assert delays is not None
        expansion = self.expansion
        comb = expansion.comb
        source_node = expansion.ff_at[1][expansion.ff_index(pair.source)]
        target = expansion.ff_at[2][expansion.ff_index(pair.sink)]
        full = ternary_eval(
            comb, {node: witness.get(node, 0) for node in comb.inputs}
        )
        # Second-frame ternary values: state entries pinned at their
        # settled value, the source's entry alone replaced by X.
        phase: dict[int, int] = {node: full[node] for node in self._force}
        phase[source_node] = X
        for node in expansion.pi_at[1]:
            phase.setdefault(node, full[node])
        earliest: dict[int, float] = {source_node: 0.0}
        latest: dict[int, float] = {source_node: 0.0}
        names = self.circuit.names
        node_map = expansion.node_at[1]
        for node, copy in self._frame_gates:
            gate_type = self.circuit.types[node]
            if gate_type == GateType.CONST0:
                phase[copy] = 0
                continue
            if gate_type == GateType.CONST1:
                phase[copy] = 1
                continue
            fanins = [node_map[f] for f in self.circuit.fanins[node]]
            phase[copy] = evaluate_gate(gate_type, [phase[f] for f in fanins])
            if phase[copy] != X:
                continue
            spread = [f for f in fanins if phase[f] == X and f in earliest]
            if not spread:
                continue
            interval = delays.interval(names[node])
            earliest[copy] = min(earliest[f] for f in spread) + interval.min
            latest[copy] = max(latest[f] for f in spread) + interval.max
        if target not in latest:
            return False
        return latest[target] > earliest[target]
