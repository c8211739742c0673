"""Flat gate-level netlist model for synchronous sequential circuits.

A :class:`Circuit` stores nodes in dense integer-indexed arrays, which the
simulators and the implication engine rely on for speed.  Nodes are created
through :class:`~repro.circuit.builder.CircuitBuilder` or the ``.bench``
reader (:mod:`repro.circuit.bench`); the class itself only offers structural
queries.

Terminology used across the library:

* *source nodes* — primary inputs, flip-flop outputs, constants (level 0 of
  the combinational part),
* *next-state node* of a flip-flop — the node driving its D input,
* *combinational part* — everything except INPUT/DFF/CONST nodes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from repro.circuit.gates import (
    COMBINATIONAL_TYPES,
    GateType,
    fanin_arity_ok,
)


class CircuitError(ValueError):
    """Raised for structurally invalid netlists or malformed queries."""


_T = TypeVar("_T")

# ----------------------------------------------------------------------
# Derived-structure cache.
#
# Several layers build expensive read-only structures from a circuit (the
# compiled simulation plan, time-frame expansions, ...).  The cache below
# is keyed by circuit identity, invalidated through the structural
# ``version`` counter and kept *outside* the instance so that pickling a
# circuit (e.g. shipping it to a worker process) never drags derived
# blobs along.  Entries die with the circuit (weakref finalizer).
# ----------------------------------------------------------------------
_DERIVED_CACHE: dict[int, tuple[int, dict[str, object]]] = {}

#: :meth:`Circuit.derived` cache keys of the levelization and of
#: :func:`check`'s violation list.
_LEVELS_KEY = "levels"
_CHECK_KEY = "check"


def clear_derived_caches() -> None:
    """Drop every cached derived structure (mainly for tests)."""
    _DERIVED_CACHE.clear()


@dataclass(frozen=True)
class Node:
    """Read-only view of one netlist node."""

    id: int
    name: str
    type: GateType
    fanins: tuple[int, ...]


@dataclass
class Circuit:
    """A synchronous sequential circuit over a single clock.

    Attributes
    ----------
    name:
        Circuit name (used in reports and ``.bench`` output).
    types / fanins / names:
        Per-node arrays indexed by node id.
    """

    name: str = "circuit"
    types: list[GateType] = field(default_factory=list)
    fanins: list[tuple[int, ...]] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    _name_to_id: dict[str, int] = field(default_factory=dict)
    _fanouts: list[list[int]] | None = None
    #: structural revision counter; bumped on every mutation of the node
    #: arrays (``add_node`` / ``set_fanins``) so derived caches (e.g. the
    #: time-frame expansion cache) can detect staleness.  Metadata-only
    #: edits (:meth:`rename_node`) do *not* bump it — they bump
    #: :attr:`_meta_version` instead, so structure-only artifacts stay
    #: alive across renames.
    _version: int = field(default=0, repr=False, compare=False)
    #: metadata revision counter; bumped by name-only edits.  Derived
    #: entries registered with ``scope="names"`` key on both counters.
    _meta_version: int = field(default=0, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction primitives (used by the builder and parsers).
    # ------------------------------------------------------------------
    def add_node(
        self, gate_type: GateType, fanins: Sequence[int] = (), name: str | None = None
    ) -> int:
        """Append a node and return its id.

        Fanin ids may be forward references only when added through the
        builder, which patches them before validation; direct users must pass
        already-existing ids.
        """
        node_id = len(self.types)
        if name is None:
            name = f"n{node_id}"
        if name in self._name_to_id:
            raise CircuitError(f"duplicate node name: {name!r}")
        self.types.append(gate_type)
        self.fanins.append(tuple(fanins))
        self.names.append(name)
        self._name_to_id[name] = node_id
        self._fanouts = None
        self._version += 1
        return node_id

    def set_fanins(self, node_id: int, fanins: Sequence[int]) -> None:
        """Replace the fanins of ``node_id`` (used to close DFF feedback)."""
        self.fanins[node_id] = tuple(fanins)
        self._fanouts = None
        self._version += 1

    def rename_node(self, node_id: int, new_name: str) -> None:
        """Rename one node — a metadata-only edit.

        The structural version is untouched, so structure-only derived
        artifacts (compiled simulation plans, reach matrices, the
        implication DB) stay cached; only name-scoped entries (lint and
        sweep reports, expansions, structural hashes) are invalidated.
        """
        old_name = self.names[node_id]
        if new_name == old_name:
            return
        if new_name in self._name_to_id:
            raise CircuitError(f"duplicate node name: {new_name!r}")
        del self._name_to_id[old_name]
        self.names[node_id] = new_name
        self._name_to_id[new_name] = node_id
        self._meta_version += 1
        # Purge stale name-scoped derived entries eagerly (they are keyed
        # by meta version, so they would otherwise linger until the next
        # structural mutation).
        entry = _DERIVED_CACHE.get(id(self))
        if entry is not None and entry[0] == self._version:
            for key in [k for k in entry[1] if isinstance(k, tuple)]:
                del entry[1][key]

    # ------------------------------------------------------------------
    # Basic queries.
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.types)

    @property
    def version(self) -> int:
        """Structural revision; changes when the node arrays are mutated.

        Metadata-only edits (:meth:`rename_node`) do not change it — see
        :attr:`meta_version` for the name-table revision.
        """
        return self._version

    @property
    def meta_version(self) -> int:
        """Metadata revision; changes on name-only edits."""
        return self._meta_version

    def node(self, node_id: int) -> Node:
        return Node(node_id, self.names[node_id], self.types[node_id], self.fanins[node_id])

    def id_of(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise CircuitError(f"no node named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._name_to_id

    def nodes(self) -> Iterator[Node]:
        for node_id in range(self.num_nodes):
            yield self.node(node_id)

    def ids_of_type(self, gate_type: GateType) -> list[int]:
        return [i for i, t in enumerate(self.types) if t == gate_type]

    @property
    def inputs(self) -> list[int]:
        """Primary input node ids in creation order."""
        return self.ids_of_type(GateType.INPUT)

    @property
    def outputs(self) -> list[int]:
        """Primary output node ids in creation order."""
        return self.ids_of_type(GateType.OUTPUT)

    @property
    def dffs(self) -> list[int]:
        """Flip-flop node ids in creation order."""
        return self.ids_of_type(GateType.DFF)

    @property
    def num_gates(self) -> int:
        """Number of combinational gates (excludes PI/PO/DFF/constants)."""
        excluded = {GateType.INPUT, GateType.OUTPUT, GateType.DFF,
                    GateType.CONST0, GateType.CONST1}
        return sum(1 for t in self.types if t not in excluded)

    def fanouts(self, node_id: int) -> list[int]:
        """Node ids that take ``node_id`` as a fanin (computed lazily)."""
        if self._fanouts is None:
            fanouts: list[list[int]] = [[] for _ in range(self.num_nodes)]
            for sink, fins in enumerate(self.fanins):
                for src in fins:
                    fanouts[src].append(sink)
            self._fanouts = fanouts
        return self._fanouts[node_id]

    def derived(
        self,
        key: str,
        build: Callable[["Circuit"], _T],
        scope: str = "structure",
        persist: str | None = None,
    ) -> _T:
        """Version-checked cache for derived read-only structures.

        ``build(self)`` runs at most once per ``(circuit, key)`` until the
        netlist is mutated, after which the whole entry is rebuilt.  The
        returned object must be treated as immutable by every caller —
        the same instance is shared.

        ``scope`` selects the invalidation rule: ``"structure"`` entries
        survive metadata-only edits (renames), ``"names"`` entries are
        additionally keyed by :attr:`meta_version` because the built
        object embeds node names.

        ``persist`` names an artifact kind in the process-shared on-disk
        :class:`~repro.store.ArtifactStore`: when a store is active
        (see :mod:`repro.store.runtime`), an in-memory miss first tries
        the store — addressed by the circuit's :meth:`content_key` — and
        a fresh build is written back.  The object must have a codec in
        :mod:`repro.store.codecs` and must not reference the circuit.
        """
        if scope not in ("structure", "names"):
            raise ValueError(f"unknown derived scope {scope!r}")
        ident = id(self)
        entry = _DERIVED_CACHE.get(ident)
        if entry is None or entry[0] != self._version:
            entry = (self._version, {})
            _DERIVED_CACHE[ident] = entry
            weakref.finalize(self, _DERIVED_CACHE.pop, ident, None)
        cache = entry[1]
        cache_key: str | tuple[str, int] = (
            key if scope == "structure" else (key, self._meta_version)
        )
        if cache_key not in cache:
            obj: object | None = None
            if persist is not None:
                from repro.store.runtime import active_store

                store = active_store()
                if store is not None:
                    address = store.address(
                        persist,
                        self.content_key(include_names=(scope == "names")),
                    )
                    obj = store.load(persist, address)
                    if obj is None:
                        obj = build(self)
                        store.save(persist, address, obj)
            if obj is None:
                obj = build(self)
            cache[cache_key] = obj
        return cache[cache_key]  # type: ignore[return-value]

    def adopt_derived(
        self, key: str, obj: object, scope: str = "structure"
    ) -> None:
        """Install an externally-built derived structure under ``key``.

        The zero-copy adoption path: a worker that attached shared
        buffers (the store's mmap or the decision pool's shared-memory
        backplane, see :mod:`repro.store.backplane`) registers the
        decoded structure under the same key :meth:`derived` builds it
        for, so every later ``derived(key, ...)`` call returns the
        shared views instead of rebuilding a private copy.  The adopted
        object must satisfy the same contract as a built one: read-only,
        and consistent with the circuit's *current* version — adoption
        is invalidated by mutation exactly like a built entry.
        """
        if scope not in ("structure", "names"):
            raise ValueError(f"unknown derived scope {scope!r}")
        ident = id(self)
        entry = _DERIVED_CACHE.get(ident)
        if entry is None or entry[0] != self._version:
            entry = (self._version, {})
            _DERIVED_CACHE[ident] = entry
            weakref.finalize(self, _DERIVED_CACHE.pop, ident, None)
        cache_key: str | tuple[str, int] = (
            key if scope == "structure" else (key, self._meta_version)
        )
        entry[1][cache_key] = obj

    def structural_hash(self) -> str:
        """Order-invariant digest of the netlist structure and interface.

        See :func:`repro.circuit.structhash.structural_hash` — invariant
        under node reordering and internal-gate renames, sensitive to
        gate/fanin/DFF edits and interface renames.  Cached.
        """
        from repro.circuit.structhash import structural_hash

        return structural_hash(self)

    def content_key(self, include_names: bool = False) -> str:
        """Id-order-sensitive digest of the raw node arrays (cached).

        The on-disk artifact-store address for derived structures that
        reference nodes by id; ``include_names`` folds the name table in
        for artifacts that embed names.
        """
        from repro.circuit.structhash import content_key

        return content_key(self, include_names=include_names)

    def next_state_node(self, dff_id: int) -> int:
        """The node driving the D input of flip-flop ``dff_id``."""
        if self.types[dff_id] != GateType.DFF:
            raise CircuitError(f"node {dff_id} is not a DFF")
        return self.fanins[dff_id][0]

    # ------------------------------------------------------------------
    # Structural traversals.
    # ------------------------------------------------------------------
    def topo_order(self) -> list[int]:
        """Combinational topological order of all nodes.

        Source nodes (PI, DFF outputs, constants) come first; every
        combinational node appears after its fanins.  DFF *D-input edges*
        are not followed, which is what breaks the sequential loops.
        Raises :class:`CircuitError` on a combinational cycle.
        """
        order: list[int] = []
        state = bytearray(self.num_nodes)  # 0 unvisited / 1 on stack / 2 done
        for root in range(self.num_nodes):
            if state[root]:
                continue
            stack: list[tuple[int, int]] = [(root, 0)]
            state[root] = 1
            while stack:
                node_id, fanin_pos = stack[-1]
                follows = (
                    self.fanins[node_id]
                    if self.types[node_id] in COMBINATIONAL_TYPES
                    else ()
                )
                if fanin_pos < len(follows):
                    stack[-1] = (node_id, fanin_pos + 1)
                    child = follows[fanin_pos]
                    if state[child] == 1:
                        raise CircuitError(
                            f"combinational cycle through {self.names[child]!r}"
                        )
                    if state[child] == 0:
                        state[child] = 1
                        stack.append((child, 0))
                else:
                    state[node_id] = 2
                    order.append(node_id)
                    stack.pop()
        return order

    def levels(self) -> tuple[int, ...]:
        """Combinational level per node (sources at level 0; cached)."""
        return self.derived(_LEVELS_KEY, _levelize)

    def transitive_fanin(self, roots: Iterable[int]) -> set[int]:
        """All nodes reaching ``roots`` through combinational edges.

        The cone stops at source nodes (they are included, their sequential
        fanin is not followed).
        """
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            if self.types[node_id] in COMBINATIONAL_TYPES:
                stack.extend(self.fanins[node_id])
        return seen

    def transitive_fanout(self, roots: Iterable[int]) -> set[int]:
        """All nodes reachable from ``roots`` through combinational edges.

        DFF and OUTPUT nodes terminate the traversal (they are included)."""
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            if self.types[node_id] in (GateType.DFF, GateType.OUTPUT):
                continue
            stack.extend(self.fanouts(node_id))
        return seen

    def copy(self, name: str | None = None) -> "Circuit":
        """Deep copy (fanout cache not shared)."""
        duplicate = Circuit(name or self.name)
        duplicate.types = list(self.types)
        duplicate.fanins = list(self.fanins)
        duplicate.names = list(self.names)
        duplicate._name_to_id = dict(self._name_to_id)
        return duplicate

    def stats(self) -> dict[str, int]:
        """Summary statistics used by reports."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "dffs": len(self.dffs),
            "gates": self.num_gates,
            "nodes": self.num_nodes,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"Circuit({self.name!r}, in={s['inputs']}, out={s['outputs']}, "
            f"ff={s['dffs']}, gates={s['gates']})"
        )


def _levelize(circuit: Circuit) -> tuple[int, ...]:
    level = [0] * circuit.num_nodes
    for node_id in circuit.topo_order():
        if circuit.types[node_id] in COMBINATIONAL_TYPES and circuit.fanins[node_id]:
            level[node_id] = 1 + max(level[f] for f in circuit.fanins[node_id])
    return tuple(level)


@dataclass(frozen=True)
class Violation:
    """One structural well-formedness violation found by :func:`check`.

    ``code`` is a stable machine-readable tag (``"arity"``,
    ``"multi-driven"``, ``"missing-fanin"``, ``"output-fanin"``,
    ``"comb-cycle"``); ``nodes`` names the offending node(s) by id — for
    ``"comb-cycle"`` it is the full cycle path, first node repeated last.
    """

    code: str
    message: str
    nodes: tuple[int, ...] = ()

    def __str__(self) -> str:
        return self.message


def _comb_cycles(circuit: Circuit) -> list[tuple[int, ...]]:
    """Every combinational cycle, one representative path per SCC.

    Runs an iterative Tarjan SCC pass over the combinational fanin edges
    (DFF D-input edges are not followed, out-of-range fanins skipped); each
    non-trivial SCC — and each self-loop — yields one concrete cycle path
    ``(n0, n1, ..., n0)``.
    """
    num_nodes = circuit.num_nodes

    def comb_fanins(node: int) -> tuple[int, ...]:
        if circuit.types[node] not in COMBINATIONAL_TYPES:
            return ()
        return tuple(
            f for f in circuit.fanins[node] if 0 <= f < num_nodes
        )

    index = [0] * num_nodes
    low = [0] * num_nodes
    on_stack = bytearray(num_nodes)
    visited = bytearray(num_nodes)
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 1

    for root in range(num_nodes):
        if visited[root]:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, pos = work[-1]
            if pos == 0:
                visited[node] = 1
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = 1
            fanins = comb_fanins(node)
            advanced = False
            while pos < len(fanins):
                child = fanins[pos]
                pos += 1
                if not visited[child]:
                    work[-1] = (node, pos)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child]:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = 0
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in comb_fanins(node):
                    sccs.append(component)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    cycles: list[tuple[int, ...]] = []
    for component in sccs:
        members = set(component)
        start = min(members)
        # Walk fanin edges inside the SCC until a node repeats; strong
        # connectivity guarantees every member has such an edge.
        path = [start]
        seen_at = {start: 0}
        while True:
            here = path[-1]
            nxt = next(f for f in comb_fanins(here) if f in members)
            if nxt in seen_at:
                cycle = path[seen_at[nxt]:] + [nxt]
                cycles.append(tuple(cycle))
                break
            seen_at[nxt] = len(path)
            path.append(nxt)
    cycles.sort(key=lambda c: min(c))
    return cycles


def check(circuit: Circuit) -> list[Violation]:
    """Collect *every* structural violation of ``circuit``.

    Unlike :func:`validate` this never raises: it returns one
    :class:`Violation` per problem — fanin-arity errors (multi-driven
    OUTPUT/DFF nodes reported under their own code), dangling fanin ids,
    OUTPUT nodes used as fanins, and every combinational cycle with its
    full path.  An empty list means the netlist is well formed.  The
    list is cached per netlist version (name-scoped: messages carry
    names), so validating a netlist a reader has validated is free.
    """
    return list(circuit.derived(_CHECK_KEY, _violations, scope="names"))


def _violations(circuit: Circuit) -> tuple[Violation, ...]:
    violations: list[Violation] = []
    for node_id in range(circuit.num_nodes):
        gate_type = circuit.types[node_id]
        fanins = circuit.fanins[node_id]
        if not fanin_arity_ok(gate_type, len(fanins)):
            if gate_type in (GateType.OUTPUT, GateType.DFF) and len(fanins) > 1:
                violations.append(Violation(
                    "multi-driven",
                    f"node {circuit.names[node_id]!r} ({gate_type.name}) has "
                    f"{len(fanins)} fanins (multiple drivers)",
                    (node_id,),
                ))
            else:
                violations.append(Violation(
                    "arity",
                    f"node {circuit.names[node_id]!r} ({gate_type.name}) has "
                    f"{len(fanins)} fanins",
                    (node_id,),
                ))
        for fanin in fanins:
            if not 0 <= fanin < circuit.num_nodes:
                violations.append(Violation(
                    "missing-fanin",
                    f"node {circuit.names[node_id]!r} references missing id {fanin}",
                    (node_id,),
                ))
            elif circuit.types[fanin] == GateType.OUTPUT:
                violations.append(Violation(
                    "output-fanin",
                    f"OUTPUT node {circuit.names[fanin]!r} used as a fanin",
                    (node_id, fanin),
                ))
    for cycle in _comb_cycles(circuit):
        path = " -> ".join(circuit.names[n] for n in cycle)
        violations.append(Violation(
            "comb-cycle",
            f"combinational cycle through {path}",
            cycle,
        ))
    return tuple(violations)


def validate(circuit: Circuit) -> None:
    """Check structural well-formedness; raise :class:`CircuitError` if bad.

    Verifies fanin arities, fanin id ranges, the absence of combinational
    cycles and that every OUTPUT/DFF has its single driver.  Raising
    wrapper around :func:`check`, which collects *all* violations instead
    of stopping at the first — the diagnostic lint pass
    (:mod:`repro.analysis.lint`) builds on that.
    """
    violations = check(circuit)
    if violations:
        raise CircuitError(str(violations[0]))
