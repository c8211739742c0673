"""Per-node reference evaluation: the oracle of the compiled SimPlan.

:class:`PythonBitSimulator` is a :class:`~repro.logic.bitsim.BitSimulator`
whose :meth:`comb_eval` walks the combinational nodes one at a time in
topological order, the evaluation loop the compiled plan replaced.  The
property tests hold the plan bit-identical to it, and the pipeline
benchmark times the plan against it (``sim_speedup``).
"""

from __future__ import annotations

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.logic.bitsim import BitSimulator

_SOURCES = (GateType.INPUT, GateType.DFF, GateType.CONST0, GateType.CONST1)


class PythonBitSimulator(BitSimulator):
    """A bit simulator evaluated by the per-node python loop."""

    def __init__(self, circuit: Circuit, words: int = 4) -> None:
        super().__init__(circuit, words)
        self._order = [
            node
            for node in circuit.topo_order()
            if circuit.types[node] not in _SOURCES
        ]

    def comb_eval(self) -> None:
        values = self.values
        types = self.circuit.types
        fanins = self.circuit.fanins
        for node_id in self._order:
            gate_type = types[node_id]
            fins = fanins[node_id]
            if gate_type in (GateType.BUF, GateType.OUTPUT):
                values[node_id] = values[fins[0]]
            elif gate_type == GateType.NOT:
                values[node_id] = ~values[fins[0]]
            elif gate_type == GateType.AND or gate_type == GateType.NAND:
                acc = values[fins[0]].copy()
                for fanin in fins[1:]:
                    acc &= values[fanin]
                values[node_id] = ~acc if gate_type == GateType.NAND else acc
            elif gate_type == GateType.OR or gate_type == GateType.NOR:
                acc = values[fins[0]].copy()
                for fanin in fins[1:]:
                    acc |= values[fanin]
                values[node_id] = ~acc if gate_type == GateType.NOR else acc
            elif gate_type == GateType.XOR or gate_type == GateType.XNOR:
                acc = values[fins[0]].copy()
                for fanin in fins[1:]:
                    acc ^= values[fanin]
                values[node_id] = ~acc if gate_type == GateType.XNOR else acc
            elif gate_type == GateType.MUX:
                select = values[fins[0]]
                values[node_id] = (~select & values[fins[1]]) | (select & values[fins[2]])
            else:  # pragma: no cover - defensive
                raise ValueError(f"unexpected gate type {gate_type}")
