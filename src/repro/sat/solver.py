"""A from-scratch CDCL SAT solver (the substrate for the baseline of [9]).

The paper compares against Nakamura et al.'s SAT-based multi-cycle path
detector; no SAT solver may be imported here, so this module implements a
complete conflict-driven clause-learning solver:

* two-literal watching for unit propagation,
* 1-UIP conflict analysis with clause learning and non-chronological
  backjumping,
* VSIDS-style variable activities with exponential decay,
* phase saving and Luby-sequence restarts,
* incremental solving under assumptions (used to share one CNF of the
  2-frame expansion across all FF pairs).

Literals follow the DIMACS convention: variable ``v >= 1``, literal ``+v``
or ``-v``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum


class SolveStatus(Enum):
    """Solver verdict (UNKNOWN only under a conflict limit)."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


_UNASSIGNED = -1


def _luby(index: int) -> int:
    """The reluctant-doubling (Luby) sequence 1 1 2 1 1 2 4 ... (0-indexed)."""
    size = 1
    exponent = 0
    while size < index + 1:
        exponent += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        exponent -= 1
        index %= size
    return 1 << exponent


@dataclass
class SolverStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0


class CdclSolver:
    """Conflict-driven clause-learning solver over DIMACS-style literals."""

    def __init__(self) -> None:
        self.num_vars = 0
        # Internal-literal clauses; a slot becomes None when a database
        # reduction deletes the learned clause living there.
        self.clauses: list[list[int] | None] = []
        self.watches: list[list[int]] = []          # internal lit -> clause ids
        self.values: list[int] = []                 # per var: 0/1/_UNASSIGNED
        self.levels: list[int] = []
        self.reasons: list[int] = []                # clause id or -1
        self.trail: list[int] = []                  # internal literals
        self.trail_lim: list[int] = []
        self.activity: list[float] = []
        self.phase: list[int] = []
        self.var_inc = 1.0
        self.var_decay = 0.95
        # Learned-clause bookkeeping for database reduction.
        self.is_learned: list[bool] = []
        self.clause_activity: list[float] = []
        self.clause_inc = 1.0
        self.max_learned = 4000
        self.stats = SolverStats()
        self._unsat = False
        self._qhead = 0
        # Lazy max-activity heap of (-activity, var); stale entries are
        # skipped at pop time (MiniSat-style order heap).
        self._order: list[tuple[float, int]] = []

    # ------------------------------------------------------------------
    # Encoding helpers: external literal <-> internal literal.
    # ------------------------------------------------------------------
    @staticmethod
    def _lit(ext: int) -> int:
        var = abs(ext) - 1
        return 2 * var + (1 if ext < 0 else 0)

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) DIMACS index."""
        self.num_vars += 1
        self.values.append(_UNASSIGNED)
        self.levels.append(0)
        self.reasons.append(-1)
        self.activity.append(0.0)
        self.phase.append(0)
        self.watches.append([])
        self.watches.append([])
        heapq.heappush(self._order, (0.0, self.num_vars - 1))
        return self.num_vars

    def _ensure_vars(self, max_var: int) -> None:
        while self.num_vars < max_var:
            self.new_var()

    # ------------------------------------------------------------------
    # Clause management.
    # ------------------------------------------------------------------
    def add_clause(self, ext_clause: list[int]) -> bool:
        """Add a clause (at decision level 0); returns False if root-UNSAT."""
        if self._unsat:
            return False
        self._cancel_until(0)
        if ext_clause:
            self._ensure_vars(max(abs(l) for l in ext_clause))
        seen: set[int] = set()
        clause: list[int] = []
        for ext in ext_clause:
            lit = self._lit(ext)
            if lit ^ 1 in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            value = self._lit_value(lit)
            if value == 1 and self.levels[lit // 2] == 0:
                return True  # already satisfied at root
            if value == 0 and self.levels[lit // 2] == 0:
                continue  # falsified at root: drop literal
            clause.append(lit)
        if not clause:
            self._unsat = True
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], -1):
                self._unsat = True
                return False
            conflict = self._propagate()
            if conflict != -1:
                self._unsat = True
                return False
            return True
        clause_id = len(self.clauses)
        self.clauses.append(clause)
        self.is_learned.append(False)
        self.clause_activity.append(0.0)
        self.watches[clause[0] ^ 1].append(clause_id)
        self.watches[clause[1] ^ 1].append(clause_id)
        return True

    # ------------------------------------------------------------------
    # Assignment primitives.
    # ------------------------------------------------------------------
    def _lit_value(self, lit: int) -> int:
        value = self.values[lit // 2]
        if value == _UNASSIGNED:
            return _UNASSIGNED
        return value ^ (lit & 1)

    def _enqueue(self, lit: int, reason: int) -> bool:
        value = self._lit_value(lit)
        if value == 0:
            return False
        if value == 1:
            return True
        var = lit // 2
        self.values[var] = 1 ^ (lit & 1)
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause id or -1."""
        head = self._qhead
        trail = self.trail
        while head < len(trail):
            lit = trail[head]
            head += 1
            self.stats.propagations += 1
            # Enqueuing ``lit`` falsifies ``lit ^ 1``; clauses watching that
            # literal are registered under ``watches[(lit ^ 1) ^ 1]``.
            false_lit = lit ^ 1
            watch_list = self.watches[lit]
            new_watch_list = []
            i = 0
            conflict = -1
            while i < len(watch_list):
                clause_id = watch_list[i]
                i += 1
                clause = self.clauses[clause_id]
                if clause is None:
                    continue  # deleted by a database reduction
                # Normalise: make clause[1] the false literal.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._lit_value(first) == 1:
                    new_watch_list.append(clause_id)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches[clause[1] ^ 1].append(clause_id)
                        moved = True
                        break
                if moved:
                    continue
                new_watch_list.append(clause_id)
                if not self._enqueue(first, clause_id):
                    # Conflict: keep the remaining watchers and stop.
                    new_watch_list.extend(watch_list[i:])
                    conflict = clause_id
                    break
            self.watches[lit] = new_watch_list
            if conflict != -1:
                self._qhead = len(trail)
                return conflict
        self._qhead = head
        return -1

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP).
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(self.num_vars):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self._order = [(-self.activity[v], v) for v in range(self.num_vars)]
            heapq.heapify(self._order)
        else:
            heapq.heappush(self._order, (-self.activity[var], var))

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """Return (learned clause, backjump level); clause[0] is the UIP."""
        learned: list[int] = [0]  # placeholder for the asserting literal
        seen = bytearray(self.num_vars)
        counter = 0
        lit = -1
        index = len(self.trail) - 1
        reason = conflict
        current_level = len(self.trail_lim)

        while True:
            # Reason clauses keep their asserted literal at position 0, so
            # resolution skips it; the conflict clause contributes all lits.
            clause = self.clauses[reason]
            assert clause is not None  # reasons are locked against deletion
            if self.is_learned[reason]:
                self._bump_clause(reason)
            for k in range(0 if lit == -1 else 1, len(clause)):
                q = clause[k]
                var = q // 2
                if not seen[var] and self.levels[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if self.levels[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Find the next literal to resolve on.
            while not seen[self.trail[index] // 2]:
                index -= 1
            lit = self.trail[index]
            index -= 1
            var = lit // 2
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            reason = self.reasons[var]

        learned[0] = lit ^ 1
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        max_k = 1
        for k in range(2, len(learned)):
            if self.levels[learned[k] // 2] > self.levels[learned[max_k] // 2]:
                max_k = k
        learned[1], learned[max_k] = learned[max_k], learned[1]
        return learned, self.levels[learned[1] // 2]

    def _bump_clause(self, clause_id: int) -> None:
        self.clause_activity[clause_id] += self.clause_inc
        if self.clause_activity[clause_id] > 1e100:
            for cid in range(len(self.clauses)):
                self.clause_activity[cid] *= 1e-100
            self.clause_inc *= 1e-100

    def _reduce_db(self) -> None:
        """Drop the less active half of the learned clauses.

        Binary clauses and clauses currently acting as a reason are kept.
        Deleted slots become ``None``; stale watch entries are skipped and
        garbage-collected during propagation.
        """
        locked = {self.reasons[lit // 2] for lit in self.trail}
        candidates = [
            cid
            for cid, clause in enumerate(self.clauses)
            if clause is not None
            and self.is_learned[cid]
            and len(clause) > 2
            and cid not in locked
        ]
        if not candidates:
            return
        candidates.sort(key=lambda cid: self.clause_activity[cid])
        for cid in candidates[: len(candidates) // 2]:
            self.clauses[cid] = None

    def _num_learned(self) -> int:
        return sum(
            1
            for cid, clause in enumerate(self.clauses)
            if clause is not None and self.is_learned[cid]
        )

    def _cancel_until(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        for lit in reversed(self.trail[bound:]):
            var = lit // 2
            self.phase[var] = self.values[var]
            self.values[var] = _UNASSIGNED
            self.reasons[var] = -1
            heapq.heappush(self._order, (-self.activity[var], var))
        del self.trail[bound:]
        del self.trail_lim[level:]
        self._qhead = len(self.trail)

    # ------------------------------------------------------------------
    # Decisions.
    # ------------------------------------------------------------------
    def _decide(self) -> int:
        """Pick an unassigned variable by activity; -1 when all assigned."""
        order = self._order
        values = self.values
        activity = self.activity
        while order:
            negated_activity, var = heapq.heappop(order)
            if values[var] == _UNASSIGNED and -negated_activity == activity[var]:
                return 2 * var + (1 if self.phase[var] == 0 else 0)
        # Heap exhausted (stale entries only): fall back to a linear scan.
        for var in range(self.num_vars):
            if values[var] == _UNASSIGNED:
                heapq.heappush(order, (-activity[var], var))
                return 2 * var + (1 if self.phase[var] == 0 else 0)
        return -1

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: list[int] | None = None,
        conflict_limit: int | None = None,
    ) -> SolveStatus:
        """Decide satisfiability under ``assumptions`` (DIMACS literals)."""
        if self._unsat:
            return SolveStatus.UNSAT
        self._cancel_until(0)
        conflict = self._propagate()
        if conflict != -1:
            self._unsat = True
            return SolveStatus.UNSAT

        assumption_lits = [self._lit(a) for a in (assumptions or [])]
        for ext in assumptions or []:
            self._ensure_vars(abs(ext))

        restart_count = 0
        conflicts_until_restart = 32 * _luby(restart_count)
        conflicts_since_restart = 0
        total_conflicts = 0

        while True:
            conflict = self._propagate()
            if conflict != -1:
                self.stats.conflicts += 1
                total_conflicts += 1
                conflicts_since_restart += 1
                if conflict_limit is not None and total_conflicts > conflict_limit:
                    self._cancel_until(0)
                    return SolveStatus.UNKNOWN
                if len(self.trail_lim) <= len(assumption_lits):
                    # Conflict inside (or below) the assumption prefix.
                    self._cancel_until(0)
                    return SolveStatus.UNSAT
                learned, backjump = self._analyze(conflict)
                backjump = max(backjump, len(assumption_lits))
                self._cancel_until(backjump)
                if len(learned) == 1:
                    self._cancel_until(0)
                    if not self._enqueue(learned[0], -1):
                        self._unsat = True
                        return SolveStatus.UNSAT
                    if self._propagate() != -1:
                        self._unsat = True
                        return SolveStatus.UNSAT
                    # Re-establish the assumption prefix from scratch.
                    if not self._apply_assumptions(assumption_lits):
                        return SolveStatus.UNSAT
                else:
                    clause_id = len(self.clauses)
                    self.clauses.append(learned)
                    self.is_learned.append(True)
                    self.clause_activity.append(self.clause_inc)
                    self.watches[learned[0] ^ 1].append(clause_id)
                    self.watches[learned[1] ^ 1].append(clause_id)
                    self.stats.learned_clauses += 1
                    self._enqueue(learned[0], clause_id)
                self.var_inc /= self.var_decay
                self.clause_inc /= 0.999
                if (self.stats.learned_clauses % 64 == 0
                        and self._num_learned() > self.max_learned):
                    self._reduce_db()
                continue

            if conflicts_since_restart >= conflicts_until_restart:
                self.stats.restarts += 1
                restart_count += 1
                conflicts_since_restart = 0
                conflicts_until_restart = 32 * _luby(restart_count)
                self._cancel_until(len(assumption_lits))
                continue

            if len(self.trail_lim) < len(assumption_lits):
                lit = assumption_lits[len(self.trail_lim)]
                value = self._lit_value(lit)
                if value == 0:
                    self._cancel_until(0)
                    return SolveStatus.UNSAT
                self.trail_lim.append(len(self.trail))
                if value == _UNASSIGNED:
                    self._enqueue(lit, -1)
                continue

            decision = self._decide()
            if decision == -1:
                return SolveStatus.SAT
            self.stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(decision, -1)

    def _apply_assumptions(self, assumption_lits: list[int]) -> bool:
        for lit in assumption_lits:
            value = self._lit_value(lit)
            if value == 0:
                self._cancel_until(0)
                return False
            self.trail_lim.append(len(self.trail))
            if value == _UNASSIGNED:
                self._enqueue(lit, -1)
            if self._propagate() != -1:
                self._cancel_until(0)
                return False
        return True

    # ------------------------------------------------------------------
    # Model access.
    # ------------------------------------------------------------------
    def model_value(self, var: int) -> int | None:
        """Value of DIMACS variable ``var`` in the last SAT model."""
        if var > self.num_vars:
            return None
        value = self.values[var - 1]
        return None if value == _UNASSIGNED else value

    def model(self) -> dict[int, int]:
        """The last model as ``{var: 0/1}`` (unassigned vars omitted)."""
        return {
            v + 1: self.values[v]
            for v in range(self.num_vars)
            if self.values[v] != _UNASSIGNED
        }
