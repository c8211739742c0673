"""Flat CSR adjacency arrays shared by the decision-side engines.

The implication engine used to rebuild per-instance fanin/fanout/level
lists from the :class:`~repro.circuit.netlist.Circuit` on every
construction — O(nodes + edges) of allocation per engine, paid again in
every worker process and for every analyzer.  This module lowers a
circuit once into compressed-sparse-row form:

* ``types`` — per-node gate-type codes as ``bytes`` (a
  :class:`~repro.circuit.gates.GateType` is an ``IntEnum``, so the raw
  codes interoperate with every enum-keyed table),
* ``fanin_offsets``/``fanin_flat`` and ``fanout_offsets``/``fanout_flat``
  — the adjacency in CSR layout (``array('i')``),
* ``fanins``/``fanouts`` — immutable per-node row views of the same
  data, which is what CPython iterates fastest in the hot loop,
* ``levels`` — combinational level per node,
* ``const0``/``const1`` — constant nodes the engine presets,
* ``inputs`` — free INPUT nodes (witness extraction reads exactly
  these instead of type-scanning every node per SAT case),
* ``*_np`` — zero-copy read-only numpy views of the same buffers, for
  consumers that slice the adjacency with array arithmetic (the packed
  bitset reachability pass in :mod:`repro.circuit.topology`) rather than
  iterating rows.

The structure is read-only and cached on the circuit through
:meth:`~repro.circuit.netlist.Circuit.derived` (like the compiled
simulation plan), so every engine over the same netlist version shares
one copy and construction after the first is O(1).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit

#: :meth:`Circuit.derived` cache key for the CSR arrays.
_DERIVED_KEY = "csr-arrays"


@dataclass(frozen=True)
class CsrArrays:
    """Read-only CSR view of one circuit (see module docstring)."""

    num_nodes: int
    types: bytes
    fanin_offsets: array
    fanin_flat: array
    fanout_offsets: array
    fanout_flat: array
    fanins: tuple[tuple[int, ...], ...]
    fanouts: tuple[tuple[int, ...], ...]
    levels: tuple[int, ...]
    const0: tuple[int, ...]
    const1: tuple[int, ...]
    inputs: tuple[int, ...]
    # Read-only numpy views: types/levels are copies of the scalar data,
    # the offset/flat views alias the ``array('i')`` buffers zero-copy.
    types_np: np.ndarray
    levels_np: np.ndarray
    fanin_offsets_np: np.ndarray
    fanin_flat_np: np.ndarray
    fanout_offsets_np: np.ndarray
    fanout_flat_np: np.ndarray


def _np_view(data: array) -> np.ndarray:
    view = np.frombuffer(data, dtype=np.int32) if len(data) else np.empty(
        0, dtype=np.int32
    )
    view.flags.writeable = False
    return view


def _csr(rows: list[tuple[int, ...]] | list[list[int]]) -> tuple[array, array]:
    offsets = array("i", [0] * (len(rows) + 1))
    total = 0
    for index, row in enumerate(rows):
        total += len(row)
        offsets[index + 1] = total
    flat = array("i", [0] * total)
    position = 0
    for row in rows:
        for entry in row:
            flat[position] = entry
            position += 1
    return offsets, flat


def _build(circuit: Circuit) -> CsrArrays:
    num_nodes = circuit.num_nodes
    fanins = tuple(tuple(row) for row in circuit.fanins)
    fanouts = tuple(
        tuple(circuit.fanouts(node)) for node in range(num_nodes)
    )
    fanin_offsets, fanin_flat = _csr(circuit.fanins)
    fanout_offsets, fanout_flat = _csr(list(fanouts))
    types = bytes(int(t) for t in circuit.types)
    levels = circuit.levels()
    types_np = np.frombuffer(types, dtype=np.uint8) if types else np.empty(
        0, dtype=np.uint8
    )
    types_np.flags.writeable = False
    levels_np = np.asarray(levels, dtype=np.int32)
    levels_np.flags.writeable = False
    return CsrArrays(
        num_nodes=num_nodes,
        types=types,
        fanin_offsets=fanin_offsets,
        fanin_flat=fanin_flat,
        fanout_offsets=fanout_offsets,
        fanout_flat=fanout_flat,
        fanins=fanins,
        fanouts=fanouts,
        levels=levels,
        const0=tuple(circuit.ids_of_type(GateType.CONST0)),
        const1=tuple(circuit.ids_of_type(GateType.CONST1)),
        inputs=tuple(circuit.ids_of_type(GateType.INPUT)),
        types_np=types_np,
        levels_np=levels_np,
        fanin_offsets_np=_np_view(fanin_offsets),
        fanin_flat_np=_np_view(fanin_flat),
        fanout_offsets_np=_np_view(fanout_offsets),
        fanout_flat_np=_np_view(fanout_flat),
    )


def gather_rows(
    offsets: np.ndarray, flat: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, entries)``: the CSR rows of ``ids``, concatenated in
    order, in one gather."""
    starts = offsets[ids]
    counts = offsets[ids + 1] - starts
    excl = np.cumsum(counts) - counts
    return counts, flat[
        np.repeat(starts - excl, counts) + np.arange(int(counts.sum()))
    ]


def csr_arrays(circuit: Circuit) -> CsrArrays:
    """The circuit's shared :class:`CsrArrays` (built once per version)."""
    return circuit.derived(_DERIVED_KEY, _build, persist="csr-arrays")
