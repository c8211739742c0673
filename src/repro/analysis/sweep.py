"""Sweep pass: constant propagation, dead logic and duplicate gates.

The pass runs three classic netlist reductions over the combinational part
of a circuit and reports them without touching the netlist (annotate):

* **constant propagation** — three-valued evaluation from the CONST0/CONST1
  sources through the combinational gates (DFF outputs stay ``X``: no
  assumption is made about reachable states),
* **structural hashing** — gates of the same type over the same (mapped)
  fanins compute the same function; each later duplicate is recorded
  against its earliest topological representative,
* **dead logic** — combinational gates whose output can reach no primary
  output and no flip-flop D input.

:func:`sweep` only *annotates* — it returns a cached
:class:`SweepReport` and never rewrites the circuit, so every verdict
downstream of a plain report is unaffected.  :func:`simplified` is the
explicit opt-in rewrite: it builds a fresh circuit with constants folded,
duplicates merged and dead gates dropped, preserving the PI/PO/DFF
interface by name — the differential tests prove the result is
simulation-equivalent on :class:`~repro.logic.bitsim.BitSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.gates import COMBINATIONAL_TYPES, GateType
from repro.circuit.netlist import Circuit, validate
from repro.circuit.structhash import COMMUTATIVE as _COMMUTATIVE
from repro.logic.simulator import evaluate_gate
from repro.logic.values import BINARY, ONE, X, ZERO

#: :meth:`Circuit.derived` cache key for the sweep report.
_DERIVED_KEY = "sweep-report"

#: Types the sweep may fold or drop.  OUTPUT nodes are combinational but
#: part of the circuit interface, so they are annotated only.
_SWEEPABLE = COMBINATIONAL_TYPES - {GateType.OUTPUT}


@dataclass(frozen=True)
class SweepReport:
    """What the sweep pass would remove from one circuit.

    All three sets name nodes of the *original* circuit; they may overlap
    (a constant gate that nothing reads is both constant and dead).
    """

    name: str
    #: combinational gate name -> proven constant value (0/1).  OUTPUT
    #: nodes with a constant driver are included for reporting.
    constants: dict[str, int]
    #: duplicate gate name -> name of its structural representative.
    equivalences: dict[str, str]
    #: combinational gates reaching no OUTPUT and no DFF D input.
    dead: tuple[str, ...]
    #: distinct internal gates :func:`simplified` can eliminate (the three
    #: sets above may overlap, and OUTPUT nodes are never removed).
    num_removable: int

    def format(self) -> str:
        """Multi-line human-readable rendering, header included."""
        lines = [
            f"{self.name}: {len(self.constants)} constant, "
            f"{len(self.equivalences)} duplicate, {len(self.dead)} dead"
        ]
        lines.extend(
            f"  constant {name} = {value}"
            for name, value in self.constants.items()
        )
        lines.extend(
            f"  duplicate {name} == {rep}"
            for name, rep in self.equivalences.items()
        )
        lines.extend(f"  dead {name}" for name in self.dead)
        return "\n".join(lines)


def _const_values(circuit: Circuit) -> list[int]:
    """Three-valued fixpoint from the constant sources (DFF/PI are X)."""
    values = [X] * circuit.num_nodes
    for node_id in circuit.ids_of_type(GateType.CONST0):
        values[node_id] = ZERO
    for node_id in circuit.ids_of_type(GateType.CONST1):
        values[node_id] = ONE
    for node_id in circuit.topo_order():
        if circuit.types[node_id] in COMBINATIONAL_TYPES:
            values[node_id] = evaluate_gate(
                circuit.types[node_id],
                [values[f] for f in circuit.fanins[node_id]],
            )
    return values


def _analyze(circuit: Circuit) -> tuple[list[int], dict[int, int], set[int]]:
    """Core sweep analysis over node ids.

    Returns ``(values, rep, live)``: the constant-propagation values, the
    duplicate -> representative map, and the set of live node ids.
    """
    values = _const_values(circuit)

    # Structural hashing.  A fanin is keyed by its representative, or by a
    # negative sentinel (-1/-2) once it is a proven constant, so chains of
    # duplicates and constant-fed duplicates still collide.
    def fanin_key(fanin: int) -> int:
        if values[fanin] in BINARY and circuit.types[fanin] != GateType.DFF:
            return -1 - values[fanin]
        return rep.get(fanin, fanin)

    rep: dict[int, int] = {}
    seen: dict[tuple[GateType, tuple[int, ...]], int] = {}
    for node_id in circuit.topo_order():
        gate_type = circuit.types[node_id]
        if gate_type not in _SWEEPABLE or values[node_id] in BINARY:
            continue
        mapped = tuple(fanin_key(f) for f in circuit.fanins[node_id])
        if gate_type in _COMMUTATIVE:
            mapped = tuple(sorted(mapped))
        key = (gate_type, mapped)
        if key in seen:
            rep[node_id] = seen[key]
        else:
            seen[key] = node_id

    # transitive_fanin stops at DFFs (they are sources), so the D-input
    # cones must be rooted explicitly.
    roots = list(circuit.outputs) + [
        circuit.fanins[d][0] for d in circuit.dffs if circuit.fanins[d]
    ]
    live = circuit.transitive_fanin(roots)
    return values, rep, live


def _build(circuit: Circuit) -> SweepReport:
    values, rep, live = _analyze(circuit)
    names = circuit.names
    constants = {
        names[n]: values[n]
        for n in range(circuit.num_nodes)
        if values[n] in BINARY and circuit.types[n] in COMBINATIONAL_TYPES
    }
    equivalences = {names[dup]: names[r] for dup, r in rep.items()}
    dead = tuple(
        names[n]
        for n in range(circuit.num_nodes)
        if n not in live and circuit.types[n] in _SWEEPABLE
    )
    removable = {
        n for n in range(circuit.num_nodes)
        if circuit.types[n] in _SWEEPABLE
        and (values[n] in BINARY or n in rep or n not in live)
    }
    return SweepReport(
        circuit.name, constants, equivalences, dead, len(removable)
    )


def sweep(circuit: Circuit) -> SweepReport:
    """The circuit's sweep report (cached in memory).

    The report embeds node names, so the cache entry is name-scoped.
    """
    return circuit.derived(_DERIVED_KEY, _build, scope="names")


def _fresh_name(circuit: Circuit, base: str) -> str:
    name = base
    while name in circuit:
        name += "_"
    return name


def simplified(circuit: Circuit, name: str | None = None) -> Circuit:
    """Build the swept circuit: fold constants, merge duplicates, drop dead.

    The PI/PO/DFF interface is preserved exactly (same names, same creation
    order), so the result is simulation-equivalent to the input for every
    initial state and input sequence; only unreachable/duplicate internal
    gates disappear.  The input circuit is never modified.
    """
    values, rep, _live = _analyze(circuit)

    def resolve(node_id: int) -> int | tuple[str, int]:
        # -> surviving old node id, or ("const", value) for folded gates.
        while True:
            if (values[node_id] in BINARY
                    and circuit.types[node_id] in _SWEEPABLE):
                return ("const", values[node_id])
            if circuit.types[node_id] in (GateType.CONST0, GateType.CONST1):
                return ("const", ZERO if circuit.types[node_id] == GateType.CONST0 else ONE)
            if node_id in rep:
                node_id = rep[node_id]
                continue
            return node_id

    # Mark every old node the interface transitively needs, walking the
    # *resolved* fanin graph so dropped gates pull nothing in.
    needed: set[int] = set()
    need_const = [False, False]
    stack: list[int] = (
        list(circuit.inputs) + list(circuit.dffs) + list(circuit.outputs)
    )
    while stack:
        node_id = stack.pop()
        if node_id in needed:
            continue
        needed.add(node_id)
        for fanin in circuit.fanins[node_id]:
            target = resolve(fanin)
            if isinstance(target, tuple):
                need_const[target[1]] = True
            elif target not in needed:
                stack.append(target)

    result = Circuit(name or circuit.name)
    new_id: dict[int, int] = {}
    const_ids: list[int | None] = [None, None]
    for value in (ZERO, ONE):
        if need_const[value]:
            gate_type = GateType.CONST0 if value == ZERO else GateType.CONST1
            const_name = _fresh_name(result, f"sweep_const{value}")
            const_ids[value] = result.add_node(gate_type, (), const_name)

    def mapped(old_fanin: int) -> int:
        target = resolve(old_fanin)
        if isinstance(target, tuple):
            const_id = const_ids[target[1]]
            assert const_id is not None
            return const_id
        return new_id[target]

    # DFFs may feed gates above them in id order, so create every needed
    # node first and wire fanins in a second pass (mirrors the reader).
    order = [n for n in range(circuit.num_nodes) if n in needed]
    for node_id in order:
        new_id[node_id] = result.add_node(
            circuit.types[node_id], (), circuit.names[node_id]
        )
    for node_id in order:
        result.set_fanins(
            new_id[node_id],
            tuple(mapped(f) for f in circuit.fanins[node_id]),
        )
    validate(result)
    return result
