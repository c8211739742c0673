"""Per-sink set BFS: the reference form of the connected FF-pair relation.

:mod:`repro.circuit.topology` holds the relation only as the packed
sink-reach matrix.  This walk computes it independently, one transitive
fanin cone per sink, so the property tests and the bench's topology
probe can hold the packed pass to it.
"""

from __future__ import annotations

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuit.topology import FFPair


def source_ffs_of_sink_bfs(circuit: Circuit, sink_dff: int) -> set[int]:
    """Flip-flops in the transitive fanin cone of ``sink_dff``'s D input."""
    cone = circuit.transitive_fanin([circuit.next_state_node(sink_dff)])
    return {n for n in cone if circuit.types[n] == GateType.DFF}


def connected_ff_pairs_bfs(
    circuit: Circuit, include_self_loops: bool = True
) -> list[FFPair]:
    """Every connected pair, sorted by ``(source, sink)``."""
    pairs: list[FFPair] = []
    for sink in circuit.dffs:
        for source in source_ffs_of_sink_bfs(circuit, sink):
            if source == sink and not include_self_loops:
                continue
            pairs.append(FFPair(source, sink))
    pairs.sort(key=lambda p: (p.source, p.sink))
    return pairs
