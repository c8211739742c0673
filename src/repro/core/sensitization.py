"""Static (co-)sensitization path search (Section 5.2/5.3).

A static hazard can invalidate a detected multi-cycle FF pair: even though
the sink's settled value is stable, the source transition may glitch
through to the sink's data input during the relaxed cycle.  The paper
detects this delay-independently by asking whether some path from the
source (at time t+1, entering the second time frame) to the sink's data
input (at time t+2) is

* **statically sensitizable** — an input vector sets every side input
  along the path to its non-controlling value (Section 5.2; optimistic:
  a sensitizable path is not always statically sensitizable, and surviving
  pairs may still depend on one another), or
* **statically co-sensitizable** — for every gate on the path with a
  controlled value the on-input presents the controlling value
  (Section 5.3; safe: every sensitizable path is statically
  co-sensitizable).

The search walks forward from the source, assuming the per-gate side-input
constraints through the shared implication engine (contradictions prune
whole path families), and confirms each complete path with the
justification search so that only genuinely satisfiable vectors count.

Before that walk a *reachability proof* sweeps forward from the source
over the same gates.  It cuts an edge into a gate when every extension
option there holds a literal the current values already contradict;
the walk only adds values, so a contradicted literal stays
contradicted and the walk can never cross a cut edge.  A target the
sweep does not reach has no path, and the search answers NONE without
walking (``PathSearchResult.unreachable``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.circuit.gates import CONTROLLING, GateType
from repro.logic.values import ONE, ZERO
from repro.atpg.implication import ImplicationEngine
from repro.atpg.justify import SearchStatus, justify


class SensitizationMode(Enum):
    """Which delay-independent condition the path search enforces."""

    STATIC_SENSITIZATION = "sensitize"
    STATIC_CO_SENSITIZATION = "co-sensitize"


class PathSearchOutcome(Enum):
    """Result of a sensitizable-path search."""

    FOUND = "found"
    NONE = "none"
    #: resource limit hit; callers must treat this conservatively
    UNKNOWN = "unknown"


@dataclass
class PathSearchResult:
    outcome: PathSearchOutcome
    #: node ids of a found path, source first (when FOUND)
    path: list[int] | None = None
    attempts: int = 0
    #: the reachability proof settled the search: no walk ran
    unreachable: bool = False


def _extension_options(
    engine: ImplicationEngine,
    gate: int,
    via: int,
    mode: SensitizationMode,
) -> list[list[tuple[int, int]]] | None:
    """Ways to extend a path into ``gate`` through fanin ``via``.

    Each option is a list of (node, value) assumptions; ``None`` means the
    gate imposes no constraint (buffers, inverters, parity gates).
    """
    gate_type = engine.types[gate]
    fanins = engine.fanins[gate]

    if gate_type in CONTROLLING:
        controlling, _ = CONTROLLING[gate_type]
        side_inputs = [f for f in fanins if f != via]
        if mode is SensitizationMode.STATIC_SENSITIZATION:
            # Every side input must settle at the non-controlling value.
            return [[(f, 1 - controlling) for f in side_inputs]]
        # Co-sensitization: either the gate is controlled and the on-input
        # carries the controlling value, or the gate is non-controlled
        # (every input non-controlling).
        return [
            [(via, controlling)],
            [(f, 1 - controlling) for f in fanins],
        ]

    if gate_type == GateType.MUX:
        select, d0, d1 = fanins
        if via == select and mode is SensitizationMode.STATIC_CO_SENSITIZATION:
            # Kleene MUX(X, v, X) is X whatever v and the settled data
            # inputs are, so an X select needs no side constraint; this
            # is co-sensitization of OR(AND(NOT s, d0), AND(s, d1)).
            return None
        options: list[list[tuple[int, int]]] = []
        if via == select:
            # The select only matters when the data inputs differ.
            options.append([(d0, ZERO), (d1, ONE)])
            options.append([(d0, ONE), (d1, ZERO)])
        if via == d0:
            options.append([(select, ZERO)])
        if via == d1:
            options.append([(select, ONE)])
        return options

    # BUF / NOT / OUTPUT / XOR / XNOR: no side constraint either way.
    return None


def _reaches(
    engine: ImplicationEngine,
    source: int,
    target: int,
    allowed: frozenset[int] | set[int],
    reach: frozenset[int] | set[int],
    mode: SensitizationMode,
) -> bool:
    """Whether the reachability proof lets ``source`` reach ``target``.

    The sweep enters the gates the walk may enter (in ``reach`` and
    ``allowed``) and cuts an edge ``node -> gate`` when every option of
    :func:`_extension_options` there holds a literal the current values
    contradict.  ``source == target`` is reached: a sink whose data
    input is the source's own node.
    """
    if source == target:
        return True
    values = engine.assignment.values
    fanouts = engine.fanouts
    entered = {source}
    stack = [source]
    while stack:
        node = stack.pop()
        for gate in fanouts[node]:
            if gate in entered or gate not in reach or gate not in allowed:
                continue
            options = _extension_options(engine, gate, node, mode)
            if options is not None and all(
                any(values[n] == 1 - v for n, v in option) for option in options
            ):
                continue
            if gate == target:
                return True
            entered.add(gate)
            stack.append(gate)
    return False


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
    """Search for a statically (co-)sensitizable path ``source -> target``.

    ``allowed`` restricts intermediate/target nodes (used to confine the
    walk to one time frame of an expansion).  ``reach`` holds
    ``target``'s fan-in cone, at least every gate of ``allowed`` on a
    path to it; a caller searching one target several times computes it
    once and passes it, otherwise the transitive fan-in is computed
    here.  The engine may already carry context assumptions (the MC case
    premise); it is restored before returning.  A FOUND result is backed
    by a justification-verified input vector.

    The reachability proof (module docstring) runs first: when the
    source is outside ``reach`` or cannot reach the target, the answer
    is NONE with ``unreachable`` set and no attempt made.
    """
    if reach is None:
        reach = engine.circuit.transitive_fanin([target])
    if source not in reach or not _reaches(engine, source, target, allowed, reach, mode):
        return PathSearchResult(PathSearchOutcome.NONE, unreachable=True)

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
