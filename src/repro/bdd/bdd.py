"""A from-scratch ROBDD package (substrate for the symbolic baseline [8]).

Reduced ordered binary decision diagrams with a shared unique table and a
computed-table cache.  Nodes are integers: ``0``/``1`` are the terminals,
every other node id indexes ``(var, low, high)`` triples.  Variables are
ordered by their integer index.

Supported operations: ``apply`` (AND/OR/XOR), ``ite``, negation,
restriction, existential/universal quantification, vector composition and
satisfiability queries — everything the symbolic multi-cycle baseline and
reachability analysis need.
"""

from __future__ import annotations

from typing import Iterable, Mapping

FALSE = 0
TRUE = 1


class BddManager:
    """Shared-node ROBDD manager with memoised operations."""

    #: variable index of the terminal nodes — larger than any real variable,
    #: which makes "topmost variable" computations uniform.
    _TERMINAL_VAR = 1 << 60

    def __init__(self) -> None:
        # Node storage; indices 0 and 1 are the terminals.
        self._var: list[int] = [self._TERMINAL_VAR, self._TERMINAL_VAR]
        self._low: list[int] = [-1, -1]
        self._high: list[int] = [-1, -1]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._cache: dict[tuple, int] = {}
        self.num_vars = 0

    # ------------------------------------------------------------------
    # Node construction.
    # ------------------------------------------------------------------
    def var(self, index: int) -> int:
        """BDD for the literal ``x_index``."""
        self.num_vars = max(self.num_vars, index + 1)
        return self._mk(index, FALSE, TRUE)

    def nvar(self, index: int) -> int:
        """BDD for the negated literal ``!x_index``."""
        self.num_vars = max(self.num_vars, index + 1)
        return self._mk(index, TRUE, FALSE)

    def _mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    @property
    def num_nodes(self) -> int:
        return len(self._var)

    # ------------------------------------------------------------------
    # Core operations.
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f ? g : h``."""
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = ("ite", f, g, h)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        fv, gv, hv = self._var[f], self._var[g], self._var[h]
        top = min(fv, gv, hv)

        def cofactor(node: int, node_var: int, value: int) -> int:
            if node_var != top:
                return node
            return self._high[node] if value else self._low[node]

        low = self.ite(
            cofactor(f, fv, 0), cofactor(g, gv, 0), cofactor(h, hv, 0)
        )
        high = self.ite(
            cofactor(f, fv, 1), cofactor(g, gv, 1), cofactor(h, hv, 1)
        )
        result = self._mk(top, low, high)
        self._cache[key] = result
        return result

    def apply_and(self, f: int, g: int) -> int:
        return self.ite(f, g, FALSE)

    def apply_or(self, f: int, g: int) -> int:
        return self.ite(f, TRUE, g)

    def apply_xor(self, f: int, g: int) -> int:
        return self.ite(f, self.apply_not(g), g)

    def apply_not(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def and_all(self, nodes: Iterable[int]) -> int:
        result = TRUE
        for node in nodes:
            result = self.apply_and(result, node)
            if result == FALSE:
                return FALSE
        return result

    def or_all(self, nodes: Iterable[int]) -> int:
        result = FALSE
        for node in nodes:
            result = self.apply_or(result, node)
            if result == TRUE:
                return TRUE
        return result

    def xnor(self, f: int, g: int) -> int:
        return self.apply_not(self.apply_xor(f, g))

    # ------------------------------------------------------------------
    # Restriction, quantification, composition.
    # ------------------------------------------------------------------
    def restrict(self, f: int, var: int, value: int) -> int:
        """Cofactor of ``f`` with ``x_var := value``."""
        if f <= 1:
            return f
        key = ("restrict", f, var, value)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        fv = self._var[f]
        if fv > var:
            result = f
        elif fv == var:
            result = self._high[f] if value else self._low[f]
        else:
            result = self._mk(
                fv,
                self.restrict(self._low[f], var, value),
                self.restrict(self._high[f], var, value),
            )
        self._cache[key] = result
        return result

    def exists(self, f: int, variables: Iterable[int]) -> int:
        """Existential quantification over ``variables``."""
        result = f
        for var in sorted(variables, reverse=True):
            result = self.apply_or(
                self.restrict(result, var, 0), self.restrict(result, var, 1)
            )
        return result

    def forall(self, f: int, variables: Iterable[int]) -> int:
        """Universal quantification over ``variables``."""
        result = f
        for var in sorted(variables, reverse=True):
            result = self.apply_and(
                self.restrict(result, var, 0), self.restrict(result, var, 1)
            )
        return result

    def compose(self, f: int, substitution: Mapping[int, int]) -> int:
        """Simultaneously substitute ``x_var := g`` for each mapping entry."""
        if f <= 1:
            return f
        key = ("compose", f, tuple(sorted(substitution.items())))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        fv = self._var[f]
        low = self.compose(self._low[f], substitution)
        high = self.compose(self._high[f], substitution)
        replacement = substitution.get(fv)
        if replacement is None:
            replacement = self.var(fv)
        result = self.ite(replacement, high, low)
        self._cache[key] = result
        return result

    def rename(self, f: int, mapping: Mapping[int, int]) -> int:
        """Substitute variables by variables (must preserve the order)."""
        return self.compose(f, {v: self.var(w) for v, w in mapping.items()})

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def is_false(self, f: int) -> bool:
        return f == FALSE

    def is_true(self, f: int) -> bool:
        return f == TRUE

    def satisfy_one(self, f: int) -> dict[int, int] | None:
        """One satisfying assignment ``{var: 0/1}`` or ``None``."""
        if f == FALSE:
            return None
        assignment: dict[int, int] = {}
        node = f
        while node != TRUE:
            var = self._var[node]
            if self._low[node] != FALSE:
                assignment[var] = 0
                node = self._low[node]
            else:
                assignment[var] = 1
                node = self._high[node]
        return assignment

    def count_solutions(self, f: int, num_vars: int | None = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables."""
        total_vars = self.num_vars if num_vars is None else num_vars
        cache: dict[int, int] = {}

        def weight(node: int) -> tuple[int, int]:
            """Return (solutions below node, var index of node or total)."""
            if node == FALSE:
                return 0, total_vars
            if node == TRUE:
                return 1, total_vars
            if node in cache:
                return cache[node], self._var[node]
            low_count, low_var = weight(self._low[node])
            high_count, high_var = weight(self._high[node])
            var = self._var[node]
            count = low_count * (1 << (low_var - var - 1)) + high_count * (
                1 << (high_var - var - 1)
            )
            cache[node] = count
            return count, var

        count, top = weight(f)
        return count * (1 << top)

    def evaluate(self, f: int, assignment: Mapping[int, int]) -> int:
        """Evaluate ``f`` under a full variable assignment."""
        node = f
        while node > 1:
            var = self._var[node]
            node = self._high[node] if assignment.get(var, 0) else self._low[node]
        return node

    def size(self, f: int) -> int:
        """Number of distinct internal nodes reachable from ``f``."""
        seen: set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= 1 or node in seen:
                continue
            seen.add(node)
            stack.append(self._low[node])
            stack.append(self._high[node])
        return len(seen)
