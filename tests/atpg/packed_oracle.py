"""Oracles of :mod:`repro.atpg.packed_implication`: the method kernel
and the SimPlan lowering it replaced.

:class:`MethodPackedEngine` is the packed engine with its closure run
the way it was first written: one ``_post`` call per post (learned
consequents recursively), one ``_visit`` call per gate visit, and the
wave state on the instance.  The shipping engine's flat loop must match
it lane for lane and visit for visit: same conflict lanes, same value
and care planes, same ``visits`` and ``closures``.

:func:`simplan_packed_plan` lowers a circuit through its compiled
:class:`~repro.logic.simplan.SimPlan` (level/type batches, identity pad
rows read back from ``install_ternary_identity_rows``), the lowering
the shipping :class:`~repro.atpg.packed_implication.PackedPlan` now
takes straight from the CSR arrays; the two must give equal records.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Sequence

import numpy as np

from repro.atpg.packed_implication import (
    _KIND_CGATE,
    _KIND_MUX,
    _KIND_PARITY,
    _KIND_UNARY,
    PackedImplicationEngine,
    PackedPlan,
)
from repro.circuit.csr import csr_arrays
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.logic.simplan import _ReduceBatch, _UnaryBatch, compiled_plan

#: controlling input value / output inversion per controlled gate type.
_CGATE_SHAPE = {
    GateType.AND: (0, 0),
    GateType.NAND: (0, 1),
    GateType.OR: (1, 0),
    GateType.NOR: (1, 1),
}


def simplan_packed_plan(circuit: Circuit) -> PackedPlan:
    """A :class:`PackedPlan` lowered through the circuit's SimPlan."""
    sim = compiled_plan(circuit)
    csr = csr_arrays(circuit)
    plan = PackedPlan.__new__(PackedPlan)
    plan.circuit_version = circuit.version
    plan.num_nodes = sim.num_nodes
    plan.buffer_rows = sim.buffer_rows
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
                    fanins = tuple(fi for fi in fanin_row if fi < num_nodes)
                tainted = int(any(is_const[fi] for fi in fanins))
                gates.append((kind, ctrl, inv, tainted, fanins, out))
    plan.gates = tuple(gates)

    consumer_lists: list[list[int]] = [[] for _ in range(sim.buffer_rows)]
    driver = [-1] * sim.buffer_rows
    for gi, (_, _, _, _, fanins, out) in enumerate(gates):
        driver[out] = gi
        for fi in set(fanins):
            if fi < num_nodes and not is_const[fi]:
                consumer_lists[fi].append(gi)
    plan.consumers = tuple(tuple(lst) for lst in consumer_lists)
    plan.driver = tuple(driver)

    # Identity pad rows and their values, via the SimPlan installer.
    probe = np.zeros((2, sim.buffer_rows, 1), dtype=np.uint64)
    sim.install_ternary_identity_rows(probe[0], probe[1])
    pad_rows = np.flatnonzero(probe[1][:, 0]).tolist()
    pad1 = {row for row in pad_rows if probe[0][row, 0]}
    plan.preset1 = tuple(sorted(pad1) + sorted(csr.const1))
    plan.preset0 = tuple(sorted(set(pad_rows) - pad1) + sorted(csr.const0))
    return plan


class MethodPackedEngine(PackedImplicationEngine):
    """The packed engine with the method-per-post/per-visit kernel."""

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

    def _propagate(self, seeds: Sequence[tuple[int, int, int]]) -> None:
        """Post the seeds one by one, then drain dirty gates in
        alternating directional waves.

        A wave visits its gates in level order (ascending, then the
        next wave descending, like the scalar-validated forward/reverse
        sweeps).  Marks landing ahead of the wave cursor fold into the
        running wave — later gates see earlier derivations in the same
        pass — while marks at or behind it wait for the next wave, so a
        gate collects all its pending fanin changes into one visit
        instead of re-running per change event.
        """
        self._pending = []
        self._wave = []
        self._sign = 0
        self._cursor = -1
        for node, m1, m0 in seeds:
            self._post(node, m1, m0)
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
