"""Chronological-backtracking justification search: the test oracle.

This is the search :func:`repro.atpg.justify.justify` ran before it
learned to backjump: after a failure it undoes only the latest decision
and tries that frame's next choice.  It branches on the same
J-frontier gate with the same choice order, so on every premise the
backjumping search must reach the same verdict wherever this one
decides, return the same first witness on SAT, and spend no more
decisions or backtracks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atpg.implication import ImplicationEngine, Mark
from repro.atpg.justify import (
    SearchResult,
    SearchStatus,
    _choices_for,
    _pick,
    extract_witness,
)


@dataclass
class _Frame:
    choices: list[tuple[int, int]]
    index: int = 0
    mark: Mark | None = None


def chronological_justify(
    engine: ImplicationEngine,
    backtrack_limit: int = 50,
    choice_sorter=None,
) -> SearchResult:
    """Same contract as :func:`repro.atpg.justify.justify`."""
    if not engine.unjustified:
        return SearchResult(SearchStatus.SAT, extract_witness(engine))

    def choices_of(gate: int) -> list[tuple[int, int]]:
        options = _choices_for(engine, gate)
        return choice_sorter(options) if choice_sorter else options

    outer_mark = engine.checkpoint()
    decisions = 0
    backtracks = 0
    stack = [_Frame(choices_of(_pick(engine)))]

    while stack:
        frame = stack[-1]
        if frame.mark is not None:
            engine.backtrack(frame.mark)
            frame.mark = None
            backtracks += 1
            if backtracks > backtrack_limit:
                engine.backtrack(outer_mark)
                return SearchResult(
                    SearchStatus.ABORTED, decisions=decisions, backtracks=backtracks
                )
        if frame.index >= len(frame.choices):
            stack.pop()
            continue
        node, value = frame.choices[frame.index]
        frame.index += 1
        frame.mark = engine.checkpoint()
        decisions += 1
        if engine.assume(node, value):
            if not engine.unjustified:
                witness = extract_witness(engine)
                engine.backtrack(frame.mark)
                engine.backtrack(outer_mark)
                return SearchResult(
                    SearchStatus.SAT, witness, decisions=decisions, backtracks=backtracks
                )
            stack.append(_Frame(choices_of(_pick(engine))))
        # On a conflict the frame's mark is undone at the top of the loop
        # and the next choice is tried.

    engine.backtrack(outer_mark)
    return SearchResult(
        SearchStatus.UNSAT, decisions=decisions, backtracks=backtracks
    )
