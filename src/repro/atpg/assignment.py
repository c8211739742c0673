"""Trail-based value assignment store with O(1) checkpoint/undo.

The implication engine and the backtrack search share this store: every
assignment is pushed onto a trail, a *checkpoint* is just the trail length,
and backtracking truncates the trail back to a checkpoint.  This is the same
mechanism SAT solvers use and is what makes the per-pair, per-case analysis
of Section 4 cheap — state is never copied.

Values live in a flat ``bytearray`` (one byte per node, ``X`` encoded as
2), so a store over a large expanded circuit costs one contiguous buffer
instead of a list of boxed ints.
"""

from __future__ import annotations

from repro.logic.values import X


class Assignment:
    """Three-valued assignment over dense node ids with an undo trail."""

    def __init__(self, num_nodes: int) -> None:
        self.values = bytearray([X]) * num_nodes
        self.trail: list[int] = []

    def checkpoint(self) -> int:
        """Mark the current trail position for a later :meth:`backtrack`."""
        return len(self.trail)

    def backtrack(self, mark: int) -> None:
        """Undo every assignment made after ``mark``."""
        values = self.values
        trail = self.trail
        for node in trail[mark:]:
            values[node] = X
        del trail[mark:]

    def set(self, node: int, value: int) -> None:
        """Record ``node := value``; caller must ensure the node was X."""
        self.values[node] = value
        self.trail.append(node)

    def get(self, node: int) -> int:
        return self.values[node]

    def assigned_since(self, mark: int) -> list[tuple[int, int]]:
        """(node, value) pairs assigned after ``mark``, in trail order."""
        return [(n, self.values[n]) for n in self.trail[mark:]]

    def num_assigned(self) -> int:
        return len(self.trail)
