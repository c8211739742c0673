"""Path search without the reachability proof: the oracle for the proof.

:func:`repro.core.sensitization.find_sensitizable_path` sweeps forward
from the source before it walks, and answers NONE when the sweep cannot
reach the target over edges some extension option may still take.  This
reference is the walk alone, as it ran before the proof: the same
structural order, the same options and the same budgets.  So wherever
the proof does not settle a search, outcome, path and attempts must be
equal; where it does, the walk must answer NONE or, on a budget hit,
UNKNOWN, never FOUND.
"""

from __future__ import annotations

from repro.atpg.implication import ImplicationEngine
from repro.atpg.justify import SearchStatus, justify
from repro.core.sensitization import (
    PathSearchOutcome,
    PathSearchResult,
    SensitizationMode,
    _extension_options,
)


def find_sensitizable_path(
    engine: ImplicationEngine,
    source: int,
    target: int,
    allowed: frozenset[int] | set[int],
    mode: SensitizationMode,
    backtrack_limit: int = 50,
    max_attempts: int = 5000,
    reach: frozenset[int] | set[int] | None = None,
) -> PathSearchResult:
    """The depth-first path walk, with no proof before it."""
    if reach is None:
        reach = engine.circuit.transitive_fanin([target])
    if source not in reach:
        return PathSearchResult(PathSearchOutcome.NONE)

    outer_mark = engine.checkpoint()
    attempts = 0
    saw_unknown = False

    def walk(node: int, path: list[int]) -> PathSearchOutcome:
        nonlocal attempts, saw_unknown
        if node == target:
            result = justify(engine, backtrack_limit)
            if result.status is SearchStatus.SAT:
                return PathSearchOutcome.FOUND
            if result.status is SearchStatus.ABORTED:
                saw_unknown = True
            return PathSearchOutcome.NONE
        for gate in engine.fanouts[node]:
            if gate not in reach or gate not in allowed or gate in path:
                continue
            attempts += 1
            if attempts > max_attempts:
                saw_unknown = True
                return PathSearchOutcome.NONE
            options = _extension_options(engine, gate, node, mode)
            if options is None:
                options = [[]]
            for option in options:
                mark = engine.checkpoint()
                if engine.assume_all(option):
                    path.append(gate)
                    outcome = walk(gate, path)
                    if outcome is PathSearchOutcome.FOUND:
                        return outcome
                    path.pop()
                engine.backtrack(mark)
        return PathSearchOutcome.NONE

    path: list[int] = [source]
    outcome = walk(source, path)
    if outcome is PathSearchOutcome.FOUND:
        found = list(path)
        engine.backtrack(outer_mark)
        return PathSearchResult(PathSearchOutcome.FOUND, found, attempts)
    engine.backtrack(outer_mark)
    if saw_unknown:
        return PathSearchResult(PathSearchOutcome.UNKNOWN, None, attempts)
    return PathSearchResult(PathSearchOutcome.NONE, None, attempts)
