"""Compiled levelized simulation plans for the bit-parallel simulator.

The per-node evaluation loop of :class:`~repro.logic.bitsim.BitSimulator`
costs one Python dispatch plus several small numpy calls *per gate per
round*, so stage 1 of the paper's flow scales with interpreter overhead
rather than with the hardware.  A :class:`SimPlan` lowers a circuit once
into level-ordered, gate-type-batched index arrays; evaluating a round is
then a handful of whole-array ``np.bitwise_*.reduce`` kernels per level —
no per-gate Python at all.

Plan layout
-----------
* Nodes are grouped by combinational level (sources at level 0 are never
  evaluated), and within each level by gate type.
* Each batch carries an ``outputs`` vector of node ids and a ``fanins``
  gather matrix of shape ``(len(outputs), max_arity)``.  Rows shorter
  than ``max_arity`` are padded with the index of an *identity row*:
  AND/NAND rows pad with an all-ones row, OR/NOR/XOR/XNOR rows pad with
  an all-zeros row, so the padded reduce is exact.
* The two identity rows live at indices ``num_nodes`` (zeros) and
  ``num_nodes + 1`` (ones) of the simulator's extended value buffer —
  see :attr:`SimPlan.buffer_rows`.

Evaluation of a batch gathers ``buf[fanins]`` (shape ``(n, arity,
words)``), reduces over the arity axis with the batch's bitwise ufunc,
optionally complements (NAND/NOR/XNOR/NOT), and scatters into
``buf[outputs]``.  Because equal-level gates never depend on each other,
batches within a level may run in any order.

Ternary mode
------------
:meth:`SimPlan.run_ternary` evaluates the same batches over *two* bit
planes encoding {0, 1, X} per lane: a ``care`` plane (bit set ⇔ the lane
carries a known binary value) and a ``value`` plane (the binary value
where known, canonically 0 where X, so ``value ⊆ care`` always holds).
Under that canonical encoding the three-valued gate algebra of
:mod:`repro.logic.values` lowers to the same padded reduces::

    AND:  known1 = AND.reduce(value)          # all inputs known-1
          known0 = OR.reduce(care ^ value)    # some input known-0
          value' = known1, care' = known0 | known1   (NAND swaps planes)
    OR :  the dual (swap the reduces)
    XOR:  care' = AND.reduce(care), value' = XOR.reduce(value) & care'

and the identity rows extend naturally: both padding rows are fully
*known* (``care`` all ones), with the value plane zero / all-ones as in
binary mode — so the very same ``fanins`` gather matrices stay exact.
An optional pin set re-asserts caller-forced rows after every level,
which is how a caller holds mid-circuit state nodes at X.

Plans are pure functions of the netlist; :func:`compiled_plan` caches
them on the circuit through :meth:`Circuit.derived`, so every simulator,
filter round and worker process sharing a circuit shares one plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: gate types evaluated by a padded bitwise reduce: type -> (ufunc, invert,
#: pads-with-ones).  AND-like gates pad with the identity of AND (all ones);
#: OR/XOR-like gates pad with zeros.
_REDUCE_OPS = {
    GateType.AND: (np.bitwise_and, False, True),
    GateType.NAND: (np.bitwise_and, True, True),
    GateType.OR: (np.bitwise_or, False, False),
    GateType.NOR: (np.bitwise_or, True, False),
    GateType.XOR: (np.bitwise_xor, False, False),
    GateType.XNOR: (np.bitwise_xor, True, False),
}

#: single-fanin copy/complement types: type -> inverts.
_UNARY_OPS = {
    GateType.BUF: False,
    GateType.OUTPUT: False,
    GateType.NOT: True,
}


@dataclass(frozen=True)
class _ReduceBatch:
    """All same-type multi-input gates of one level, padded to one arity."""

    gate_type: GateType
    outputs: np.ndarray  # (n,) node ids
    fanins: np.ndarray  # (n, max_arity) gather matrix with identity padding


@dataclass(frozen=True)
class _UnaryBatch:
    """All BUF/OUTPUT (copy) or NOT (complement) gates of one level."""

    invert: bool
    outputs: np.ndarray  # (n,)
    sources: np.ndarray  # (n,)


@dataclass(frozen=True)
class _MuxBatch:
    """All MUX gates of one level: out = select ? d1 : d0."""

    outputs: np.ndarray  # (n,)
    selects: np.ndarray  # (n,)
    d0: np.ndarray  # (n,)
    d1: np.ndarray  # (n,)


class SimPlan:
    """A circuit lowered into levelized, type-batched evaluation kernels."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit_version = circuit.version
        self.num_nodes = circuit.num_nodes
        #: rows the value buffer must have: every node plus the two
        #: identity rows (zeros at ``num_nodes``, ones at ``num_nodes+1``).
        self.buffer_rows = circuit.num_nodes + 2
        self.pad_zeros = circuit.num_nodes
        self.pad_ones = circuit.num_nodes + 1
        self.levels: list[list[object]] = []
        self.num_batches = 0
        self._build(circuit)

    # ------------------------------------------------------------------
    # Lowering.
    # ------------------------------------------------------------------
    def _build(self, circuit: Circuit) -> None:
        level_of = circuit.levels()
        types = circuit.types
        fanins = circuit.fanins
        by_level: dict[int, dict[GateType, list[int]]] = {}
        for node_id, level in enumerate(level_of):
            gate_type = types[node_id]
            if gate_type in _REDUCE_OPS or gate_type in _UNARY_OPS \
                    or gate_type == GateType.MUX:
                by_level.setdefault(level, {}).setdefault(gate_type, []).append(
                    node_id
                )

        for level in sorted(by_level):
            batches: list[object] = []
            groups = by_level[level]
            # Deterministic batch order: fixed GateType enumeration order.
            for gate_type in GateType:
                nodes = groups.get(gate_type)
                if not nodes:
                    continue
                if gate_type in _UNARY_OPS:
                    batches.append(
                        _UnaryBatch(
                            invert=_UNARY_OPS[gate_type],
                            outputs=np.asarray(nodes, dtype=np.intp),
                            sources=np.asarray(
                                [fanins[n][0] for n in nodes], dtype=np.intp
                            ),
                        )
                    )
                elif gate_type == GateType.MUX:
                    batches.append(
                        _MuxBatch(
                            outputs=np.asarray(nodes, dtype=np.intp),
                            selects=np.asarray(
                                [fanins[n][0] for n in nodes], dtype=np.intp
                            ),
                            d0=np.asarray(
                                [fanins[n][1] for n in nodes], dtype=np.intp
                            ),
                            d1=np.asarray(
                                [fanins[n][2] for n in nodes], dtype=np.intp
                            ),
                        )
                    )
                else:
                    pad = (
                        self.pad_ones
                        if _REDUCE_OPS[gate_type][2]
                        else self.pad_zeros
                    )
                    arity = max(len(fanins[n]) for n in nodes)
                    matrix = np.full((len(nodes), arity), pad, dtype=np.intp)
                    for row, node_id in enumerate(nodes):
                        fins = fanins[node_id]
                        matrix[row, : len(fins)] = fins
                    batches.append(
                        _ReduceBatch(
                            gate_type=gate_type,
                            outputs=np.asarray(nodes, dtype=np.intp),
                            fanins=matrix,
                        )
                    )
            self.levels.append(batches)
            self.num_batches += len(batches)

    # ------------------------------------------------------------------
    # Evaluation.
    # ------------------------------------------------------------------
    def run(self, buf: np.ndarray) -> None:
        """Evaluate every combinational node into ``buf`` (extended buffer).

        ``buf`` must have :attr:`buffer_rows` rows; source rows (PIs, DFF
        outputs, constants) and the two identity rows are read, all
        combinational rows are overwritten level by level.
        """
        for batches in self.levels:
            for batch in batches:
                if isinstance(batch, _ReduceBatch):
                    ufunc, invert, _pad_ones = _REDUCE_OPS[batch.gate_type]
                    acc = ufunc.reduce(buf[batch.fanins], axis=1)
                    if invert:
                        np.invert(acc, out=acc)
                    buf[batch.outputs] = acc
                elif isinstance(batch, _UnaryBatch):
                    if batch.invert:
                        buf[batch.outputs] = ~buf[batch.sources]
                    else:
                        buf[batch.outputs] = buf[batch.sources]
                else:  # _MuxBatch
                    select = buf[batch.selects]
                    buf[batch.outputs] = (~select & buf[batch.d0]) | (
                        select & buf[batch.d1]
                    )

    # ------------------------------------------------------------------
    # Ternary (two-plane) evaluation.
    # ------------------------------------------------------------------
    def install_ternary_identity_rows(
        self, value: np.ndarray, care: np.ndarray
    ) -> None:
        """Write the padding rows of a two-plane buffer pair.

        Both identity rows are fully *known* (``care`` all ones); the
        value plane carries the same zeros/ones identities as in binary
        mode, so the shared ``fanins`` gather matrices pad exactly.
        """
        value[self.pad_zeros] = 0
        value[self.pad_ones] = _ALL_ONES
        care[self.pad_zeros] = _ALL_ONES
        care[self.pad_ones] = _ALL_ONES

    def run_ternary(
        self,
        value: np.ndarray,
        care: np.ndarray,
        pin_nodes: np.ndarray | None = None,
        pin_value: np.ndarray | None = None,
        pin_care: np.ndarray | None = None,
        pin_mask: np.ndarray | None = None,
    ) -> None:
        """Evaluate every combinational node three-valued, bit-parallel.

        ``value``/``care`` are two :attr:`buffer_rows`-row planes encoding
        one {0, 1, X} lane per bit (canonical: ``value & ~care == 0``;
        source rows must respect this).  ``pin_nodes`` optionally forces
        rows to ``pin_value``/``pin_care`` — the pins are re-asserted
        after every level, so a pinned *internal* node feeds its forced
        value to every higher level even though its own batch computes it
        (equal-level gates never read each other, so re-pinning at level
        granularity is exact).  ``pin_mask`` restricts the pin to a
        subset of lanes per row (set bits are forced, clear bits keep
        the computed planes); ``None`` pins every lane.
        """
        pinned = pin_nodes is not None and len(pin_nodes) > 0

        def assert_pins() -> None:
            if pin_mask is None:
                value[pin_nodes] = pin_value
                care[pin_nodes] = pin_care
            else:
                value[pin_nodes] = (
                    (value[pin_nodes] & ~pin_mask) | (pin_value & pin_mask)
                )
                care[pin_nodes] = (
                    (care[pin_nodes] & ~pin_mask) | (pin_care & pin_mask)
                )

        if pinned:
            assert_pins()
        for batches in self.levels:
            for batch in batches:
                if isinstance(batch, _ReduceBatch):
                    self._reduce_ternary(batch, value, care)
                elif isinstance(batch, _UnaryBatch):
                    src_v = value[batch.sources]
                    src_c = care[batch.sources]
                    if batch.invert:
                        value[batch.outputs] = src_c ^ src_v
                    else:
                        value[batch.outputs] = src_v
                    care[batch.outputs] = src_c
                else:  # _MuxBatch
                    self._mux_ternary(batch, value, care)
            if pinned:
                assert_pins()

    @staticmethod
    def _reduce_ternary(
        batch: _ReduceBatch, value: np.ndarray, care: np.ndarray
    ) -> None:
        gate_type = batch.gate_type
        v = value[batch.fanins]
        c = care[batch.fanins]
        if gate_type in (GateType.AND, GateType.NAND):
            known1 = np.bitwise_and.reduce(v, axis=1)
            known0 = np.bitwise_or.reduce(c ^ v, axis=1)
        elif gate_type in (GateType.OR, GateType.NOR):
            known1 = np.bitwise_or.reduce(v, axis=1)
            known0 = np.bitwise_and.reduce(c ^ v, axis=1)
        else:  # XOR / XNOR: known exactly when every input is known
            known = np.bitwise_and.reduce(c, axis=1)
            parity = np.bitwise_xor.reduce(v, axis=1)
            if gate_type == GateType.XNOR:
                np.invert(parity, out=parity)
            value[batch.outputs] = parity & known
            care[batch.outputs] = known
            return
        if gate_type in (GateType.NAND, GateType.NOR):
            known0, known1 = known1, known0
        value[batch.outputs] = known1
        care[batch.outputs] = known0 | known1

    @staticmethod
    def _mux_ternary(
        batch: _MuxBatch, value: np.ndarray, care: np.ndarray
    ) -> None:
        vs = value[batch.selects]
        cs = care[batch.selects]
        v0, c0 = value[batch.d0], care[batch.d0]
        v1, c1 = value[batch.d1], care[batch.d1]
        sel1 = vs  # canonical: select known-1 lanes
        sel0 = cs ^ vs  # select known-0 lanes
        sel_x = ~cs
        agree1 = v0 & v1  # both data known-1
        agree0 = (c0 ^ v0) & (c1 ^ v1)  # both data known-0
        value[batch.outputs] = (sel0 & v0) | (sel1 & v1) | (sel_x & agree1)
        care[batch.outputs] = (
            (sel0 & c0) | (sel1 & c1) | (sel_x & (agree0 | agree1))
        )


def compiled_plan(circuit: Circuit) -> SimPlan:
    """The circuit's compiled simulation plan (cached per netlist version).

    Cached through :meth:`Circuit.derived`, so repeated simulator
    construction, filter rounds and pipeline stages all share one plan;
    mutating the circuit invalidates it automatically.  When an on-disk
    :class:`~repro.store.ArtifactStore` is active, the plan (pure numpy
    index arrays, no circuit reference) round-trips through it — warm
    runs skip the lowering entirely.
    """
    return circuit.derived("simplan", SimPlan, persist="simplan")
