"""Cycle-accurate three-valued simulator for sequential circuits.

Used to validate ATPG witnesses (a claimed single-cycle pattern must really
toggle the sink flip-flop), to cross-check the bit-parallel simulator, and
by the examples.  Evaluation is full-circuit in topological order — simple
and adequate, since the performance-critical random filtering uses
:mod:`repro.logic.bitsim` instead.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.logic.values import (
    ONE,
    X,
    ZERO,
    v_and,
    v_mux,
    v_not,
    v_or,
    v_xor,
)


def evaluate_gate(gate_type: GateType, values: Sequence[int]) -> int:
    """Evaluate one combinational gate over three-valued inputs."""
    if gate_type in (GateType.BUF, GateType.OUTPUT):
        return values[0]
    if gate_type == GateType.NOT:
        return v_not(values[0])
    if gate_type == GateType.AND:
        result = ONE
        for value in values:
            result = v_and(result, value)
        return result
    if gate_type == GateType.NAND:
        result = ONE
        for value in values:
            result = v_and(result, value)
        return v_not(result)
    if gate_type == GateType.OR:
        result = ZERO
        for value in values:
            result = v_or(result, value)
        return result
    if gate_type == GateType.NOR:
        result = ZERO
        for value in values:
            result = v_or(result, value)
        return v_not(result)
    if gate_type == GateType.XOR:
        result = ZERO
        for value in values:
            result = v_xor(result, value)
        return result
    if gate_type == GateType.XNOR:
        result = ZERO
        for value in values:
            result = v_xor(result, value)
        return v_not(result)
    if gate_type == GateType.MUX:
        return v_mux(values[0], values[1], values[2])
    raise ValueError(f"not a combinational gate: {gate_type}")


def ternary_eval(circuit: Circuit, values: dict[int, int]) -> dict[int, int]:
    """Three-valued full evaluation of a combinational circuit.

    ``values`` seeds the INPUT nodes (missing ones default to X); every
    other node is computed with the ternary gate algebra.
    """
    result = dict(values)
    for node in circuit.topo_order():
        gate_type = circuit.types[node]
        if gate_type == GateType.INPUT:
            result.setdefault(node, X)
        elif gate_type == GateType.CONST0:
            result[node] = ZERO
        elif gate_type == GateType.CONST1:
            result[node] = ONE
        else:
            result[node] = evaluate_gate(
                gate_type, [result[f] for f in circuit.fanins[node]]
            )
    return result


class Simulator:
    """Three-valued simulator with explicit state and clocking.

    Typical use::

        sim = Simulator(circuit)
        sim.set_state({"FF1": 0, "FF2": 0})
        sim.set_inputs({"IN": 1})
        sim.comb_eval()
        sim.clock()          # advances every DFF to its D value
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self._order = circuit.topo_order()
        self.values: list[int] = [X] * circuit.num_nodes
        for node_id in circuit.ids_of_type(GateType.CONST0):
            self.values[node_id] = ZERO
        for node_id in circuit.ids_of_type(GateType.CONST1):
            self.values[node_id] = ONE
        self._dirty = True

    # ------------------------------------------------------------------
    # Stimulus.
    # ------------------------------------------------------------------
    def _resolve(self, key: int | str) -> int:
        return key if isinstance(key, int) else self.circuit.id_of(key)

    def set_inputs(self, assignment: Mapping[int | str, int]) -> None:
        """Set primary-input values (node ids or names)."""
        for key, value in assignment.items():
            node_id = self._resolve(key)
            if self.circuit.types[node_id] != GateType.INPUT:
                raise ValueError(f"{self.circuit.names[node_id]!r} is not an input")
            self.values[node_id] = value
        self._dirty = True

    def set_state(self, assignment: Mapping[int | str, int]) -> None:
        """Force flip-flop outputs to given values (initialisation)."""
        for key, value in assignment.items():
            node_id = self._resolve(key)
            if self.circuit.types[node_id] != GateType.DFF:
                raise ValueError(f"{self.circuit.names[node_id]!r} is not a DFF")
            self.values[node_id] = value
        self._dirty = True

    def set_all_inputs(self, values: Sequence[int]) -> None:
        """Set every primary input, in creation order."""
        self.set_inputs(dict(zip(self.circuit.inputs, values, strict=True)))

    def set_all_state(self, values: Sequence[int]) -> None:
        """Set every flip-flop, in creation order."""
        self.set_state(dict(zip(self.circuit.dffs, values, strict=True)))

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------
    def comb_eval(self) -> None:
        """Propagate current inputs/state through the combinational logic."""
        values = self.values
        types = self.circuit.types
        fanins = self.circuit.fanins
        for node_id in self._order:
            gate_type = types[node_id]
            if gate_type in (GateType.INPUT, GateType.DFF, GateType.CONST0,
                             GateType.CONST1):
                continue
            values[node_id] = evaluate_gate(
                gate_type, [values[f] for f in fanins[node_id]]
            )
        self._dirty = False

    def clock(self) -> None:
        """Advance one clock cycle: every DFF captures its D-input value."""
        if self._dirty:
            self.comb_eval()
        captured = {
            dff: self.values[self.circuit.next_state_node(dff)]
            for dff in self.circuit.dffs
        }
        for dff, value in captured.items():
            self.values[dff] = value
        self.comb_eval()

    # ------------------------------------------------------------------
    # Observation.
    # ------------------------------------------------------------------
    def value(self, key: int | str) -> int:
        """Current value of a node (evaluating combinationally if stale)."""
        if self._dirty:
            self.comb_eval()
        return self.values[self._resolve(key)]

    def state(self) -> dict[str, int]:
        """Current flip-flop values keyed by name."""
        if self._dirty:
            self.comb_eval()
        return {self.circuit.names[d]: self.values[d] for d in self.circuit.dffs}

    def output_values(self) -> dict[str, int]:
        """Current primary-output values keyed by name."""
        if self._dirty:
            self.comb_eval()
        return {self.circuit.names[o]: self.values[o] for o in self.circuit.outputs}

    def run(
        self,
        cycles: int,
        inputs_per_cycle: Sequence[Mapping[int | str, int]] | None = None,
    ) -> list[dict[str, int]]:
        """Clock ``cycles`` times, optionally applying per-cycle inputs.

        Returns the flip-flop state *after* each clock edge.
        """
        trace = []
        for cycle in range(cycles):
            if inputs_per_cycle is not None:
                self.set_inputs(inputs_per_cycle[cycle])
            self.clock()
            trace.append(self.state())
        return trace
