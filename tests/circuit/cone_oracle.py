"""The scalar cone-hash walk: the oracle of the packed cone pass.

One ``transitive_fanin`` walk per cone over the time-frame expansion,
renumbered by ascending expanded id and digested as text: gate type
names, INPUT names, comma-joined cone-local fanin ids and the roots'
local ids.  :func:`repro.circuit.structhash.cone_digests` digests the
same information from array slices, so the two tables must induce the
same equality relation over ``(circuit, FF, launch|capture)`` keys.
"""

from __future__ import annotations

import hashlib

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import expand_cached

_SEP = b"\x1f"


def cone_hash(comb: Circuit, roots: list[int]) -> str:
    """Digest of the expanded cone feeding ``roots``, layout included."""
    cone = sorted(comb.transitive_fanin(roots))
    local = {node_id: k for k, node_id in enumerate(cone)}
    h = hashlib.sha256()
    for node_id in cone:
        gate_type = comb.types[node_id]
        h.update(gate_type.name.encode())
        h.update(_SEP)
        if gate_type == GateType.INPUT:
            h.update(comb.names[node_id].encode())
        else:
            h.update(
                ",".join(str(local[f]) for f in comb.fanins[node_id]).encode()
            )
        h.update(_SEP)
    h.update(b"roots")
    for root in roots:
        h.update(_SEP)
        h.update(str(local[root]).encode())
    return h.hexdigest()


def oracle_cone_hashes(
    circuit: Circuit, frames: int = 2
) -> tuple[dict[int, str], dict[int, str]]:
    """``(launch, capture)`` digests by DFF node id, one walk per cone."""
    expansion = expand_cached(circuit, frames)
    comb = expansion.comb
    launch: dict[int, str] = {}
    capture: dict[int, str] = {}
    for k, dff in enumerate(circuit.dffs):
        launch[dff] = cone_hash(comb, [expansion.ff_at[1][k]])
        capture[dff] = cone_hash(
            comb, [expansion.ff_at[f][k] for f in range(1, frames + 1)]
        )
    return launch, capture
