"""Bit-parallel implication closure: 64 assumption cases per uint64 word.

The decide stage settles each surviving FF pair by running the scalar
:class:`~repro.atpg.implication.ImplicationEngine` once per ``(a, b)``
case — four closures per pair, each a Python-level worklist loop.  On
the synthetic ladder that stage now dominates the whole pipeline.  The
cases are *independent*: each one seeds the same 2-frame expansion with
three literals (``FFi@t = a``, ``FFi@t+1 = 1-a``, ``FFj@t+1 = b``) and
asks what the closure forces at ``FFj@t+2``.  Independence is exactly
the precondition for lane packing (PR 4 proved the recipe for hazard
validation): this module runs ONE closure whose state is the two-plane
{0, 1, X} ternary encoding of :mod:`~repro.logic.simplan` — a ``care``
plane (bit set ⇔ lane holds a known binary value) and a ``value`` plane
(canonical ``value ⊆ care``) — with 64 lanes per uint64 word, up to
:data:`MAX_LANES` per closure.

Lowering and kernel
-------------------
:class:`PackedPlan` lowers the circuit through the compiled SimPlan:
its levelized, identity-padded gate batches become per-gate records
(kind, controlling value, inversion, real fanin rows), a node → consumer
map, and the preset rows (identity pads and constants) extracted from
``install_ternary_identity_rows``.  The closure kernel is a dirty-gate
worklist over those records.  Per-node lane words are held as Python
integers — at decide-stage lane counts (up to 32 uint64 limbs) CPython
bigint bitwise ops cost tens of nanoseconds, far below numpy's per-call
dispatch on the same data, and the cost of a closure scales with the
*activity cone* of the seeds rather than with circuit size (the same
property that lets the scalar engine stream 100k-gate circuits).  The
lanes of one closure share its gate visits, so the more cases one
closure holds, the fewer visits each case costs.  Array-shaped seed
matrices are staged in a ``(seed nodes, words)`` array sized by the
distinct seed nodes, never by the circuit, before they become per-node
lane words.

Exactness contract
------------------
The engine computes, per lane, the *same* fixpoint the scalar engine
reaches, including its deliberate quirks:

* Constants are preset (``care`` set, ``posted`` clear), never
  enqueued: a cone driven only by constants stays X.  A gate is
  *const-tainted* when some fanin is a CONST0/CONST1 node; only tainted
  gates AND an activity mask (``posted`` at the gate or any fanin) into
  their forward forces.  Untainted gates need no mask — every known bit
  on their fanins is posted, so any derivation is activity-covered by
  construction.  Backward rules never need the mask: they fire only on
  a known *gate output*, and gate outputs become known only by posting.
* A gate is (re-)examined exactly when itself or a fanin changed:
  posting a node marks its consumer gates dirty, and its driver gate
  too when the post came from a backward rule, a seed, or a learned
  consequence.  A gate's own *forward* post never re-marks it (its
  backward rules run against the post-forward output state in the same
  visit, mirroring the scalar engine, whose one visit of a gate runs its
  forward and then its backward rule);
  its *backward* posts do, because forcing one gate's fanin can unlock
  a derivation on a sibling gate reading the same node.
* Learned implications (launch-prefix static learning, the global
  implication DB) are applied to every *posted* literal, recursively,
  via the same two-argument ``learned.get((node, value), ())`` protocol
  the scalar engine uses.
* Conflicts are recorded per lane in a ``conflict`` mask.  A conflicted
  lane is frozen — it derives nothing further, its state is never read
  back, and only the flag is observable, exactly like the scalar
  engine's failed ``assume``.

The scalar engine remains the oracle: any lane the packed closure
leaves open (target still X after the stability probe, or known with
the non-implied polarity so a search is required) falls back to the
per-case :class:`~repro.core.session.DecisionSession` walk, and the
differential tests assert byte-identical case records against a
session that packs nothing (``tests/core/pair_analysis.py``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.circuit.csr import csr_arrays
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.logic.simplan import (
    SimPlan,
    _MuxBatch,
    _ReduceBatch,
    _UnaryBatch,
    compiled_plan,
)

#: lane capacity of one closure: 32 uint64 words of 64 cases.
MAX_LANE_WORDS = 32
MAX_LANES = 64 * MAX_LANE_WORDS

_KIND_CGATE = 0  # AND / NAND / OR / NOR
_KIND_PARITY = 1  # XOR / XNOR
_KIND_UNARY = 2  # BUF / OUTPUT / NOT
_KIND_MUX = 3

#: controlling input value / output inversion per controlled gate type.
_CGATE_SHAPE = {
    GateType.AND: (0, 0),
    GateType.NAND: (0, 1),
    GateType.OR: (1, 0),
    GateType.NOR: (1, 1),
}


class PackedPlan:
    """Per-gate lowering of the compiled SimPlan for packed implication.

    Pure function of the netlist — cached via :func:`packed_plan` /
    :meth:`Circuit.derived` so sessions, workers and benches sharing a
    circuit share one plan.

    Attributes:
        gates: per-gate ``(kind, ctrl, out_inv, tainted, fanins, out)``
            records in level order; ``fanins`` holds only real node
            rows (identity pads are dropped — they are preset known).
        consumers: per-node tuple of gate indices reading that node.
        driver: per-node index of the gate driving it (-1 for none).
        preset1: rows preset to known-1 (CONST1 and value-1 pad rows).
        preset0: rows preset to known-0 (CONST0 and value-0 pad rows).
    """

    def __init__(self, circuit: Circuit) -> None:
        sim = compiled_plan(circuit)
        csr = csr_arrays(circuit)
        self.circuit_version = circuit.version
        self.num_nodes = sim.num_nodes
        self.buffer_rows = sim.buffer_rows
        # Only read during lowering; absent (None) on plans decoded from
        # the flat-buffer layout, which carry the lowered records only.
        self.sim: SimPlan | None = sim
        num_nodes = sim.num_nodes
        is_const = bytearray(sim.buffer_rows)
        for row in csr.const0 + csr.const1:
            is_const[row] = 1

        gates: list[tuple[int, int, int, int, tuple[int, ...], int]] = []
        for level in sim.levels:
            for batch in level:
                if isinstance(batch, _ReduceBatch):
                    shape = _CGATE_SHAPE.get(batch.gate_type)
                    if shape:
                        kind, (ctrl, inv) = _KIND_CGATE, shape
                    else:
                        kind, ctrl = _KIND_PARITY, 0
                        inv = int(batch.gate_type == GateType.XNOR)
                    rows = batch.fanins.tolist()
                elif isinstance(batch, _UnaryBatch):
                    kind, ctrl, inv = _KIND_UNARY, 0, int(batch.invert)
                    rows = [[src] for src in batch.sources.tolist()]
                else:  # _MuxBatch
                    kind, ctrl, inv = _KIND_MUX, 0, 0
                    rows = [
                        list(fi)
                        for fi in zip(
                            batch.selects.tolist(),
                            batch.d0.tolist(),
                            batch.d1.tolist(),
                        )
                    ]
                for out, fanin_row in zip(batch.outputs.tolist(), rows):
                    if kind == _KIND_MUX:
                        fanins = tuple(fanin_row)  # positional: sel, d0, d1
                    else:
                        fanins = tuple(
                            fi for fi in fanin_row if fi < num_nodes
                        )
                    tainted = int(any(is_const[fi] for fi in fanins))
                    gates.append((kind, ctrl, inv, tainted, fanins, out))
        self.gates = tuple(gates)

        consumer_lists: list[list[int]] = [[] for _ in range(sim.buffer_rows)]
        driver = [-1] * sim.buffer_rows
        for gi, (_, _, _, _, fanins, out) in enumerate(gates):
            driver[out] = gi
            for fi in set(fanins):
                if fi < num_nodes and not is_const[fi]:
                    consumer_lists[fi].append(gi)
        self.consumers = tuple(tuple(lst) for lst in consumer_lists)
        self.driver = tuple(driver)

        # Identity pad rows and their values, via the SimPlan installer.
        probe = np.zeros((2, sim.buffer_rows, 1), dtype=np.uint64)
        sim.install_ternary_identity_rows(probe[0], probe[1])
        pad_rows = np.flatnonzero(probe[1][:, 0]).tolist()
        pad1 = {row for row in pad_rows if probe[0][row, 0]}
        self.preset1 = tuple(sorted(pad1) + sorted(csr.const1))
        self.preset0 = tuple(
            sorted(set(pad_rows) - pad1) + sorted(csr.const0)
        )


def packed_plan(circuit: Circuit) -> PackedPlan:
    """The circuit's packed implication plan (cached per netlist version)."""
    return circuit.derived(
        "packed-implication", PackedPlan, persist="packed-implication"
    )


class PackedImplicationEngine:
    """Fixpoint implication closure over up to :data:`MAX_LANES` lanes.

    One engine per (circuit, learned table); :meth:`close` runs a fresh
    closure over per-lane seed literals, :meth:`extend` continues the
    converged closure with extra literals (the stability probe of the
    decide stage).  Per-node state is reset incrementally — only rows
    the previous closure touched are cleared — so repeated closes cost
    activity, not circuit size.
    """

    def __init__(
        self,
        circuit: Circuit,
        learned: Mapping | None = None,
    ) -> None:
        self.circuit = circuit
        self.plan = packed_plan(circuit)
        self.learned = learned if learned else None
        rows = self.plan.buffer_rows
        self._value = [0] * rows
        self._care = [0] * rows
        self._posted = [0] * rows
        self._dirty = bytearray(len(self.plan.gates))
        self._pending: list[int] = []
        self._wave: list[int] = []
        self._sign = 0  # +1 ascending wave, -1 descending, 0 idle
        self._cursor = 0
        self._touched: list[int] = []
        self._conflict = 0
        self._full = 0
        self.lanes = 0
        self.closures = 0
        self.visits = 0
        for row in self.plan.preset1:
            self._value[row] = -1
            self._care[row] = -1
        for row in self.plan.preset0:
            self._care[row] = -1

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------
    def close(self, cases: Sequence[Iterable[tuple[int, int]]]) -> None:
        """Run the closure of per-lane seed literal lists from scratch.

        ``cases[lane]`` is an iterable of ``(node, value)`` literals.
        Conflicting seeds on one lane — including a self-loop pair
        seeding one node both ways — raise that lane's conflict bit
        exactly like the scalar engine's failing ``assume_all``.
        """
        self._reset(len(cases))
        for lane, literals in enumerate(cases):
            bit = 1 << lane
            for node, value in literals:
                if value:
                    self._post(node, bit, 0)
                else:
                    self._post(node, 0, bit)
        self._propagate()

    def close_matrix(self, nodes: np.ndarray, values: np.ndarray) -> None:
        """:meth:`close` fast path: ``(lanes, k)`` seed node/value arrays.

        Row ``lane`` seeds ``nodes[lane, j] := values[lane, j]`` for all
        ``j`` — the decide stage's fixed three-literal premises.  One
        array scatter ORs every seed bit into a ``(2, seed nodes,
        words)`` staging array (plane 1 for value 1, plane 0 for value
        0), whose rows become the per-node lane words, so there is no
        Python loop over literals and nothing scales with circuit size.
        """
        lanes, width = nodes.shape
        self._reset(lanes)
        words = (lanes + 63) >> 6
        seeds, row = np.unique(nodes.ravel(), return_inverse=True)
        lane_ids = np.arange(lanes, dtype=np.intp)
        staged = np.zeros((2, len(seeds), words), dtype=np.uint64)
        np.bitwise_or.at(
            staged,
            (
                (values.ravel() != 0).astype(np.intp),
                row,
                np.repeat(lane_ids >> 6, width),
            ),
            np.repeat(np.uint64(1) << (lane_ids & 63).astype(np.uint64), width),
        )
        stride = 8 * words
        zeros = staged[0].tobytes()
        ones = staged[1].tobytes()
        for index, node in enumerate(seeds.tolist()):
            span = slice(index * stride, (index + 1) * stride)
            self._post(
                node,
                int.from_bytes(ones[span], "little"),
                int.from_bytes(zeros[span], "little"),
            )
        self._propagate()

    def extend(self, literals: Iterable[tuple[int, int, int]]) -> None:
        """Continue the converged closure with ``(lane, node, value)`` posts.

        A literal equal to the lane's existing value is a no-op (the
        scalar ``assume`` of an agreeing value succeeds without work); a
        disagreeing one conflicts the lane.  Snapshot
        :meth:`conflict_lanes` around the call to see which lanes the
        extension newly contradicted.
        """
        for lane, node, value in literals:
            bit = 1 << lane
            if value:
                self._post(node, bit, 0)
            else:
                self._post(node, 0, bit)
        self._propagate()

    def conflict_lanes(self, lanes: np.ndarray | Sequence[int]) -> np.ndarray:
        """Boolean conflict flag per requested lane."""
        lanes = np.asarray(lanes, dtype=np.intp)
        return self._pick(self._lane_bytes([self._conflict]), 0, lanes) == 1

    def read_nodes(
        self,
        nodes: np.ndarray | Sequence[int],
        lanes: np.ndarray | Sequence[int],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per (node, lane): ``(known, value)`` uint8 vectors."""
        lanes = np.asarray(lanes, dtype=np.intp)
        unique, row = np.unique(np.asarray(nodes, np.intp), return_inverse=True)
        picked = unique.tolist()
        care = self._lane_bytes([self._care[node] for node in picked])
        value = self._lane_bytes([self._value[node] for node in picked])
        return self._pick(care, row, lanes), self._pick(value, row, lanes)

    def planes(self, nodes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """``(value, care)`` lane planes of ``nodes``, ``(len(nodes), words)``.

        uint64 words in :class:`~repro.logic.bitsim.TernarySimulator`
        lane order (lane ``l`` is bit ``l % 64`` of word ``l // 64``);
        bits past the closure's lane count are clear.  A conflicted
        lane's bits hold whatever the closure had when it froze.
        """
        value = self._lane_bytes([self._value[node] for node in nodes])
        care = self._lane_bytes([self._care[node] for node in nodes])
        return value.view("<u8"), care.view("<u8")

    def _lane_bytes(self, masks: list[int]) -> np.ndarray:
        """``(len(masks), 8 * words)`` little-endian matrix of lane masks."""
        width = 8 * ((self.lanes + 63) >> 6)
        full = self._full
        raw = b"".join((mask & full).to_bytes(width, "little") for mask in masks)
        return np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width)

    @staticmethod
    def _pick(
        table: np.ndarray, rows: np.ndarray | int, lanes: np.ndarray
    ) -> np.ndarray:
        """Bit ``lanes[i]`` of byte-matrix row ``rows[i]``, as uint8."""
        return (table[rows, lanes >> 3] >> (lanes & 7).astype(np.uint8)) & 1

    # ------------------------------------------------------------------
    # Closure state.
    # ------------------------------------------------------------------
    def _reset(self, lanes: int) -> None:
        if not 0 < lanes <= MAX_LANES:
            raise ValueError(f"lane count {lanes} outside 1..{MAX_LANES}")
        value, care, posted = self._value, self._care, self._posted
        for row in self._touched:
            value[row] = 0
            care[row] = 0
            posted[row] = 0
        self._touched = []
        self._conflict = 0
        self._full = (1 << lanes) - 1
        self.lanes = lanes
        self.closures += 1

    # ------------------------------------------------------------------
    # Posting and propagation.
    # ------------------------------------------------------------------
    def _post(self, node: int, m1: int, m0: int, from_gate: int = -1) -> None:
        """Join force masks into a node's planes; flag conflicts.

        ``from_gate`` suppresses re-marking the forcing gate itself —
        a forward post already ran its backward rules against the
        post-forward state in the same visit.
        """
        value, care = self._value, self._care
        v = value[node]
        c = care[node]
        conf = (m1 & (c ^ v)) | (m0 & v) | (m1 & m0)
        if conf:
            self._conflict |= conf
            # conflicted lanes derive nothing further — their state is
            # never read back, and freezing them stops garbage churn
        new = (m1 | m0) & ~c & ~self._conflict & self._full
        if not new:
            return
        value[node] = v | (m1 & new)
        care[node] = c | new
        self._posted[node] |= new
        self._touched.append(node)
        dirty = self._dirty
        sign = self._sign
        cursor = self._cursor
        wave = self._wave
        pending = self._pending
        for gi in self.plan.consumers[node]:
            if not dirty[gi]:
                dirty[gi] = 1
                if (gi - cursor) * sign > 0:
                    heappush(wave, sign * gi)
                else:
                    pending.append(gi)
        gi = self.plan.driver[node]
        if gi >= 0 and gi != from_gate and not dirty[gi]:
            dirty[gi] = 1
            if (gi - cursor) * sign > 0:
                heappush(wave, sign * gi)
            else:
                pending.append(gi)
        learned = self.learned
        if learned is not None:
            mask1 = m1 & new
            mask0 = new ^ mask1
            if mask1:
                for cnode, cval in learned.get((node, 1), ()):
                    if cval:
                        self._post(cnode, mask1, 0)
                    else:
                        self._post(cnode, 0, mask1)
            if mask0:
                for cnode, cval in learned.get((node, 0), ()):
                    if cval:
                        self._post(cnode, mask0, 0)
                    else:
                        self._post(cnode, 0, mask0)

    def _propagate(self) -> None:
        """Drain dirty gates in alternating directional waves.

        A wave visits its gates in level order (ascending, then the
        next wave descending, like the scalar-validated forward/reverse
        sweeps).  Marks landing ahead of the wave cursor fold into the
        running wave — later gates see earlier derivations in the same
        pass — while marks at or behind it wait for the next wave, so a
        gate collects all its pending fanin changes into one visit
        instead of re-running per change event.
        """
        dirty = self._dirty
        gates = self.plan.gates
        visits = 0
        sign = 1
        while self._pending:
            wave = [sign * gi for gi in self._pending]
            heapify(wave)
            self._wave = wave
            self._pending = []
            self._sign = sign
            while wave:
                gi = sign * heappop(wave)
                self._cursor = gi
                dirty[gi] = 0
                visits += 1
                self._visit(gi, gates[gi])
            sign = -sign
        self._sign = 0
        self.visits += visits

    # ------------------------------------------------------------------
    # Gate rules: forward + backward in one visit.
    # ------------------------------------------------------------------
    def _visit(
        self,
        gi: int,
        gate: tuple[int, int, int, int, tuple[int, ...], int],
    ) -> None:
        kind, ctrl, inv, tainted, fanins, out = gate
        value, care = self._value, self._care
        full = self._full
        if kind == _KIND_CGATE:
            if ctrl:
                has_ctrl = 0
                all_nc = full
                for fi in fanins:
                    v = value[fi]
                    has_ctrl |= v
                    all_nc &= care[fi] ^ v
            else:
                has_ctrl = 0
                all_nc = full
                for fi in fanins:
                    v = value[fi]
                    has_ctrl |= care[fi] ^ v
                    all_nc &= v
            if ctrl ^ inv:
                f1, f0 = has_ctrl, all_nc
            else:
                f1, f0 = all_nc, has_ctrl
            if tainted:
                act = self._posted[out]
                for fi in fanins:
                    act |= self._posted[fi]
                f1 &= act
                f0 &= act
            self._post(out, f1, f0, from_gate=gi)
            vo = value[out]
            co = care[out]
            if not co:
                return
            # Backward: output noncontrolled → every X input forced
            # noncontrolling; output controlled with no known
            # controlling input and exactly one X input → that input
            # forced controlling.
            if ctrl ^ inv:
                out_nc, out_ctl = co ^ vo, vo
            else:
                out_nc, out_ctl = vo, co ^ vo
            mask_b = out_ctl & ~has_ctrl
            if mask_b:
                seen = 0
                multi = 0
                for fi in fanins:
                    x = ~care[fi] & full
                    multi |= seen & x
                    seen |= x
                mask_b &= seen & ~multi
            if not (out_nc | mask_b):
                return
            if ctrl:
                b1, b0 = mask_b, out_nc
            else:
                b1, b0 = out_nc, mask_b
            for fi in fanins:
                x = ~care[fi] & full
                if x:
                    self._post(fi, b1 & x, b0 & x)
            return
        if kind == _KIND_UNARY:
            src = fanins[0]
            sv = value[src]
            sc = care[src]
            f1 = sc ^ sv if inv else sv
            f0 = sc ^ f1
            if tainted:
                act = self._posted[out] | self._posted[src]
                f1 &= act
                f0 &= act
            self._post(out, f1, f0, from_gate=gi)
            vo = value[out]
            co = care[out]
            mask = co & ~sc
            if mask:  # known output, X source: copy through the inversion
                m1 = mask & ((co ^ vo) if inv else vo)
                self._post(src, m1, mask ^ m1)
            return
        if kind == _KIND_PARITY:
            known = full
            par = 0
            for fi in fanins:
                known &= care[fi]
                par ^= value[fi]
            if inv:
                par = ~par & full
            f1 = known & par
            f0 = known ^ f1
            if tainted:
                act = self._posted[out]
                for fi in fanins:
                    act |= self._posted[fi]
                f1 &= act
                f0 &= act
            self._post(out, f1, f0, from_gate=gi)
            vo = value[out]
            co = care[out]
            if not co:
                return
            # Backward: known output with exactly one X input → that
            # input is the parity of the output and the known inputs (X
            # fanins contribute 0 to ``par``, so ``par ^ vo`` is exact).
            seen = 0
            multi = 0
            for fi in fanins:
                x = ~care[fi] & full
                multi |= seen & x
                seen |= x
            mask = co & seen & ~multi
            if not mask:
                return
            forced = par ^ vo
            for fi in fanins:
                m = mask & ~care[fi]
                if m:
                    self._post(fi, m & forced, m & ~forced & full)
            return
        # MUX: fanins are positional (select, d0, d1).
        sel, da, db = fanins
        vs = value[sel]
        cs = care[sel]
        v0 = value[da]
        c0 = care[da]
        v1 = value[db]
        c1 = care[db]
        sel1 = vs
        sel0 = cs ^ vs
        sel_x = ~cs & full
        agree1 = v0 & v1
        agree0 = (c0 ^ v0) & (c1 ^ v1)
        f1 = (sel0 & v0) | (sel1 & v1) | (sel_x & agree1)
        dcare = (sel0 & c0) | (sel1 & c1) | (sel_x & (agree0 | agree1))
        f0 = dcare ^ f1
        if tainted:
            act = (
                self._posted[out]
                | self._posted[sel]
                | self._posted[da]
                | self._posted[db]
            )
            f1 &= act
            f0 &= act
        self._post(out, f1, f0, from_gate=gi)
        vo = value[out]
        co = care[out]
        if not co:
            return
        # Backward: known select copies the output onto the chosen data
        # leg (a disagreeing known leg conflicts, as the scalar forward
        # post would); X select with a known data leg disagreeing with
        # the known output forces the select to the other leg.
        kn0 = co ^ vo
        m1 = sel1 & co
        if m1:
            self._post(db, m1 & vo, m1 & kn0)
        m0 = sel0 & co
        if m0:
            self._post(da, m0 & vo, m0 & kn0)
        sel_pick = sel_x & co
        if sel_pick:
            m_sel1 = sel_pick & c0 & (v0 ^ vo)
            if m_sel1:
                self._post(sel, m_sel1, 0)
            m_sel0 = sel_pick & c1 & (v1 ^ vo)
            if m_sel0:
                self._post(sel, 0, m_sel0)
