"""Backtrack search proving assumptions justifiable or impossible.

Step 4.1.4 of the paper: after the implication procedure has derived every
mandatory value, a D-algorithm-flavoured search either finds an input/state
pattern consistent with the assumed values (the MC condition is violated —
the FF pair is single-cycle) or proves that none exists (the pair is
multi-cycle for this case).  The paper chose a D-algorithm-based engine
over PODEM because values are assigned to internal nodes directly and the
"fault" is likely redundant; our search shares that shape — it branches on
the *justification frontier* (assigned gates whose output is not implied by
their inputs), picks the unjustified gate of lowest ``(level, id)``, tries
its candidate assignments in order, and relies on the implication engine
to prune.

Conflict-directed backjumping
-----------------------------
A chronological search undoes only the latest decision after a failure,
so a subtree that fails for reasons set several levels higher is proved
again under every alternative in between.  The search here jumps back to
the level that caused the failure instead:

* **Reasons.** The engine records, for every assignment, its trail
  position and its reason — the gate whose rule implied it, a learned
  entry's source literal, or "assumed" (see
  :mod:`repro.atpg.implication`).  A failed ``assume`` leaves the
  clashing gate or nodes as seeds.
* **Conflict levels.** From a set of seed nodes the search walks the
  reasons backwards (a gate reason leads to that gate's pins assigned
  before the node) and collects the decision level of every assumed node
  it reaches.  Nodes assigned before the search are premises: the walk
  stops there.  A leaf conflict is mapped this way.
* **Exhausted frames.** Each decision frame keeps the union of its failed
  choices' level sets minus its own level.  When its last choice fails,
  the frame adds the levels that fix its J-gate's output and known pins
  (they are why the choice list covers every way to justify the gate).
  The result is a set of earlier decisions that together admit no
  solution.
* **Backjump.** The search undoes every level down to the deepest level
  in that set, merges the set (minus that level) into the frame there and
  tries its next choice.  An empty set means the premises alone are
  impossible: UNSAT.

Only subtrees that provably hold no solution are skipped, and the ones
that remain are visited in the chronological order.  So a SAT search
returns the same first witness as a chronological search, UNSAT and SAT
verdicts agree wherever the chronological search decides, and there
``decisions``/``backtracks`` never exceed its counts.
``tests/atpg/chronological.py`` keeps the chronological loop as the
differential oracle.

The number of backtracks is bounded (the paper used 50 by default); one
backjump counts as one backtrack however many levels it undoes.  Hitting
the bound yields :attr:`SearchStatus.ABORTED` and the pair is reported
*undecided* (conservatively treated as single-cycle downstream).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from repro.circuit.csr import csr_arrays
from repro.circuit.gates import CONTROLLING, GateType
from repro.logic.values import ONE, X, ZERO
from repro.atpg.implication import ASSUMED, ImplicationEngine, Mark


class SearchStatus(Enum):
    """Outcome of a justification search."""

    SAT = "sat"
    UNSAT = "unsat"
    ABORTED = "aborted"


@dataclass
class SearchResult:
    status: SearchStatus
    #: values of the free INPUT nodes when SAT (X entries are don't-cares)
    witness: dict[int, int] | None = None
    decisions: int = 0
    backtracks: int = 0


@dataclass
class _Frame:
    #: the unjustified gate this frame branches on
    gate: int
    choices: list[tuple[int, int]]
    index: int = 0
    #: checkpoint taken before the current choice was assumed
    mark: Mark = (0, 0)
    #: bitmask of the earlier decision levels its failed choices reached
    conflict: int = 0


def _choices_for(engine: ImplicationEngine, gate: int) -> list[tuple[int, int]]:
    """Single assignments that could justify ``gate``'s assigned output."""
    gate_type = engine.types[gate]
    values = engine.assignment.values
    fanins = engine.fanins[gate]

    if gate_type in CONTROLLING:
        controlling, _ = CONTROLLING[gate_type]
        return [(f, controlling) for f in fanins if values[f] == X]
    if gate_type in (GateType.XOR, GateType.XNOR):
        for fanin in fanins:
            if values[fanin] == X:
                return [(fanin, ZERO), (fanin, ONE)]
        return []
    if gate_type == GateType.MUX:
        select = fanins[0]
        return [(select, ZERO), (select, ONE)]
    # BUF/NOT/OUTPUT gates are always settled by implication.
    return []  # pragma: no cover - defensive


def _pick(engine: ImplicationEngine) -> int:
    """Choose the unjustified gate closest to the inputs (lowest level)."""
    levels = engine.levels
    return min(engine.unjustified, key=lambda g: (levels[g], g))


def extract_witness(engine: ImplicationEngine) -> dict[int, int]:
    """Free-input values of the current (satisfying) assignment.

    Reads the cached INPUT-node list of the circuit's shared
    :class:`~repro.circuit.csr.CsrArrays` — every SAT case used to
    type-scan all ``num_nodes`` rows to find the same handful of free
    inputs.
    """
    value = engine.value
    return {node: value(node) for node in csr_arrays(engine.circuit).inputs}


def _levels(
    engine: ImplicationEngine,
    seeds: Iterable[int],
    start: int,
    level_pos: list[int],
) -> int:
    """Bitmask of the decision levels the reasons of ``seeds`` reach.

    Unassigned seeds are ignored.  Nodes at trail positions before
    ``start`` were assigned before the search and end the walk; an
    assumed node at a later position is a decision, whose level is its
    index in ``level_pos`` (the trail position of each live decision)
    plus one.
    """
    values = engine.assignment.values
    position = engine.position
    reason = engine.reason
    fanins = engine.fanins
    levels = 0
    seen: set[int] = set()
    stack = list(seeds)
    while stack:
        node = stack.pop()
        at = position[node]
        if values[node] == X or at < start or node in seen:
            continue
        seen.add(node)
        why = reason[node]
        if why >= 0:
            # A gate rule: its antecedents are the gate's pins assigned
            # before ``node`` (``node`` itself is one of the pins).
            for pin in fanins[why]:
                if position[pin] < at:
                    stack.append(pin)
            if position[why] < at:
                stack.append(why)
        elif why == ASSUMED:
            levels |= 1 << bisect_right(level_pos, at)
        else:
            stack.append(-2 - why)
    return levels


def justify(
    engine: ImplicationEngine,
    backtrack_limit: int = 50,
    choice_sorter=None,
) -> SearchResult:
    """Search for an input pattern consistent with the current assignment.

    The engine must already be at an implication fixpoint (i.e. the last
    ``assume`` returned ``True``).  On every outcome — including SAT — the
    engine is restored to the state it was called in; a SAT witness is
    returned explicitly instead of being left in the engine.

    ``choice_sorter`` optionally reorders each frontier gate's candidate
    decisions (e.g. SCOAP-guided, :func:`repro.atpg.scoap.make_choice_sorter`);
    ordering affects cost only, never verdicts.  The search backjumps as
    described in the module docstring; ``backtracks`` counts each undo,
    a multi-level backjump included, once.
    """
    if not engine.unjustified:
        return SearchResult(SearchStatus.SAT, extract_witness(engine))

    trail = engine.assignment.trail

    def next_frame() -> _Frame:
        gate = _pick(engine)
        options = _choices_for(engine, gate)
        return _Frame(gate, choice_sorter(options) if choice_sorter else options)

    outer_mark = engine.checkpoint()
    start = outer_mark[0]
    decisions = 0
    backtracks = 0
    stack = [next_frame()]
    #: trail position of each live decision; level ``k`` is entry ``k - 1``
    level_pos: list[int] = []

    while True:
        frame = stack[-1]
        if frame.index < len(frame.choices):
            node, value = frame.choices[frame.index]
            frame.index += 1
            frame.mark = engine.checkpoint()
            level_pos.append(len(trail))
            decisions += 1
            if engine.assume(node, value):
                if not engine.unjustified:
                    witness = extract_witness(engine)
                    engine.backtrack(outer_mark)
                    return SearchResult(
                        SearchStatus.SAT, witness,
                        decisions=decisions, backtracks=backtracks,
                    )
                stack.append(next_frame())
                continue
            # Leaf conflict: remember which earlier levels it involved,
            # then undo this choice and try the frame's next one.
            level = len(stack)
            failed = _levels(engine, engine.conflict_seeds(), start, level_pos)
            level_pos.pop()
        else:
            # Every choice failed.  With the levels that make the J-gate
            # need justifying, the frame's set admits no solution: jump
            # back to its deepest level (UNSAT when it is empty).
            gate = frame.gate
            pins = (*engine.fanins[gate], gate)
            failed = frame.conflict | _levels(engine, pins, start, level_pos)
            if not failed:
                engine.backtrack(outer_mark)
                return SearchResult(
                    SearchStatus.UNSAT, decisions=decisions, backtracks=backtracks
                )
            level = failed.bit_length() - 1
            del stack[level:]
            del level_pos[level - 1:]
            frame = stack[-1]
        engine.backtrack(frame.mark)
        frame.conflict |= failed & ~(1 << level)
        backtracks += 1
        if backtracks > backtrack_limit:
            engine.backtrack(outer_mark)
            return SearchResult(
                SearchStatus.ABORTED, decisions=decisions, backtracks=backtracks
            )
