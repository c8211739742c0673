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
:class:`PackedPlan` lowers the circuit straight from its CSR arrays
(:func:`~repro.circuit.csr.csr_arrays`): every combinational gate, in
(level, gate type, node id) order, becomes a record (kind, controlling
value, inversion, constant taint, CSR fanin row, output), next to a
node → consumer map and the preset rows — the zeros and ones pad rows
of the SimPlan buffer layout, and the constants.  The closure kernel
(:meth:`PackedImplicationEngine._propagate`) is one flat loop over
those records: a dirty-gate worklist whose gate rules and posts run
inline, with every table bound to a local and no call per visit or per
post.  A gate's forward force is posted where its rule ends; every
other post (seeds, backward forces, learned consequents) goes through
one last-in first-out queue, so a post's learned consequents run
depth-first before the posts queued behind it.  Per-node lane words are
held as Python integers — at decide-stage lane counts (up to 32 uint64
limbs) CPython bigint bitwise ops cost tens of nanoseconds, far below
numpy's per-call dispatch on the same data, and the cost of a closure
scales with the *activity cone* of the seeds rather than with circuit
size (the same property that lets the scalar engine stream 100k-gate
circuits).  The lanes of one closure share its gate visits, so the more
cases one closure holds, the fewer visits each case costs.  Array-shaped
seed matrices are staged in a ``(seed nodes, words)`` array sized by
the distinct seed nodes, never by the circuit, before they become
per-node lane words.

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
session that packs nothing (``tests/core/pair_analysis.py``).  The
method-per-visit kernel and the SimPlan-based lowering this module
replaced are kept as test oracles (``tests/atpg/packed_oracle.py``):
the flat loop matches them visit for visit.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.circuit.csr import csr_arrays
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit

#: lane capacity of one closure: 32 uint64 words of 64 cases.
MAX_LANE_WORDS = 32
MAX_LANES = 64 * MAX_LANE_WORDS

_KIND_CGATE = 0  # AND / NAND / OR / NOR
_KIND_PARITY = 1  # XOR / XNOR
_KIND_UNARY = 2  # BUF / OUTPUT / NOT
_KIND_MUX = 3

#: ``(kind, controlling input value, output inversion)`` per gate type
#: the closure evaluates; sources (inputs, flip-flops, constants) have
#: no record.
_GATE_SHAPE = {
    GateType.AND: (_KIND_CGATE, 0, 0),
    GateType.NAND: (_KIND_CGATE, 0, 1),
    GateType.OR: (_KIND_CGATE, 1, 0),
    GateType.NOR: (_KIND_CGATE, 1, 1),
    GateType.XOR: (_KIND_PARITY, 0, 0),
    GateType.XNOR: (_KIND_PARITY, 0, 1),
    GateType.BUF: (_KIND_UNARY, 0, 0),
    GateType.OUTPUT: (_KIND_UNARY, 0, 0),
    GateType.NOT: (_KIND_UNARY, 0, 1),
    GateType.MUX: (_KIND_MUX, 0, 0),
}


class PackedPlan:
    """Per-gate lowering of a circuit's CSR arrays for packed implication.

    Pure function of the netlist — cached via :func:`packed_plan` /
    :meth:`Circuit.derived` so sessions, workers and benches sharing a
    circuit share one plan.

    Attributes:
        gates: per-gate ``(kind, ctrl, out_inv, tainted, fanins, out)``
            records sorted by (level, gate type code, node id), the
            order of the SimPlan's level/type batches; ``fanins`` is the
            gate's CSR fanin row (MUX: positional select, d0, d1).
        consumers: per-row tuple of gate indices reading that node
            (constants have none: they are preset, never posted).
        driver: per-row index of the gate driving it (-1 for none).
        preset1: rows preset to known-1 (the ones pad row and CONST1).
        preset0: rows preset to known-0 (the zeros pad row and CONST0).
    """

    def __init__(self, circuit: Circuit) -> None:
        csr = csr_arrays(circuit)
        num_nodes = csr.num_nodes
        self.circuit_version = circuit.version
        self.num_nodes = num_nodes
        # The SimPlan buffer layout: the zeros pad row and the ones pad
        # row follow the nodes, both preset known.
        self.buffer_rows = num_nodes + 2
        shapes = [_GATE_SHAPE.get(GateType(code)) for code in range(len(GateType))]
        evaluated = np.array([shape is not None for shape in shapes])
        types = csr.types_np
        ids = np.flatnonzero(evaluated[types])
        # lexsort: last key first, ties keep ascending node ids.
        order = ids[np.lexsort((types[ids], csr.levels_np[ids]))].tolist()

        consts = set(csr.const0 + csr.const1)
        type_codes = csr.types
        fanin_rows = csr.fanins
        gates: list[tuple[int, int, int, int, tuple[int, ...], int]] = []
        consumer_lists: list[list[int]] = [[] for _ in range(self.buffer_rows)]
        driver = [-1] * self.buffer_rows
        for gi, out in enumerate(order):
            kind, ctrl, inv = shapes[type_codes[out]]
            fanins = fanin_rows[out]
            if kind == _KIND_UNARY:
                fanins = fanins[:1]
            elif kind == _KIND_MUX:
                fanins = fanins[:3]
            tainted = int(bool(consts) and not consts.isdisjoint(fanins))
            gates.append((kind, ctrl, inv, tainted, fanins, out))
            driver[out] = gi
            for fi in set(fanins):
                if fi not in consts:
                    consumer_lists[fi].append(gi)
        self.gates = tuple(gates)
        self.consumers = tuple(tuple(lst) for lst in consumer_lists)
        self.driver = tuple(driver)
        self.preset1 = (num_nodes + 1, *sorted(csr.const1))
        self.preset0 = (num_nodes, *sorted(csr.const0))


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
        #: rows posted since the last reset, each once (a row's care
        #: plane is empty until its first post).
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
        seeds = []
        for lane, literals in enumerate(cases):
            bit = 1 << lane
            for node, value in literals:
                seeds.append((node, bit, 0) if value else (node, 0, bit))
        self._propagate(seeds)

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
        self._propagate([
            (
                node,
                int.from_bytes(ones[index * stride:(index + 1) * stride], "little"),
                int.from_bytes(zeros[index * stride:(index + 1) * stride], "little"),
            )
            for index, node in enumerate(seeds.tolist())
        ])

    def extend(self, literals: Iterable[tuple[int, int, int]]) -> None:
        """Continue the converged closure with ``(lane, node, value)`` posts.

        A literal equal to the lane's existing value is a no-op (the
        scalar ``assume`` of an agreeing value succeeds without work); a
        disagreeing one conflicts the lane.  Snapshot
        :meth:`conflict_lanes` around the call to see which lanes the
        extension newly contradicted.
        """
        self._propagate([
            (node, 1 << lane, 0) if value else (node, 0, 1 << lane)
            for lane, node, value in literals
        ])

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
    # The closure kernel.
    # ------------------------------------------------------------------
    def _propagate(self, seeds: Sequence[tuple[int, int, int]]) -> None:
        """Post ``(node, m1, m0)`` seed forces, then run to the fixpoint.

        A post joins force masks (``m1`` lanes to 1, ``m0`` lanes to 0)
        into a node's planes, flags the lanes it contradicts, and marks
        the gates that must look again.  Dirty gates drain in
        alternating directional waves: a wave visits its gates in level
        order (ascending, then the next wave descending, like the
        scalar-validated forward/reverse sweeps).  Marks landing ahead
        of the wave cursor fold into the running wave — later gates see
        earlier derivations in the same pass — while marks at or behind
        it wait for the next wave, so a gate collects all its pending
        fanin changes into one visit instead of re-running per change
        event.  One visit runs the gate's forward rule, posts the force,
        then runs its backward rule against the post-forward state.
        """
        plan = self.plan
        gates = plan.gates
        consumers = plan.consumers
        driver = plan.driver
        value = self._value
        care = self._care
        posted = self._posted
        touched = self._touched
        dirty = self._dirty
        learned = self.learned
        full = self._full
        conflict = self._conflict
        live = full & ~conflict
        # Posts still to run, last in first out: (node, m1, m0, masked).
        # A masked (backward) post forces only the lanes where its node
        # is still X when it runs.
        todo = [(node, m1, m0, 0) for node, m1, m0 in reversed(seeds)]
        pending: list[int] = []
        wave: list[int] = []
        sign = 0  # +1 ascending wave, -1 descending, 0 while seeding
        gi = -1  # the gate being visited: the wave cursor
        backward = False  # the visited gate's backward rule is due
        visits = 0
        while True:
            if todo:
                node, m1, m0, masked = todo.pop()
                c = care[node]
                if masked:
                    m1 &= ~c
                    m0 &= ~c
                v = value[node]
                conf = (m1 & (c ^ v)) | (m0 & v) | (m1 & m0)
                if conf:
                    # conflicted lanes derive nothing further — their
                    # state is never read back, and freezing them stops
                    # garbage churn
                    conflict |= conf
                    live = full & ~conflict
                new = (m1 | m0) & ~c & live
                if not new:
                    continue
                value[node] = v | (m1 & new)
                care[node] = c | new
                posted[node] |= new
                if not c:  # the row's first post of this closure
                    touched.append(node)
                for g in consumers[node]:
                    if not dirty[g]:
                        dirty[g] = 1
                        if (g - gi) * sign > 0:
                            heappush(wave, sign * g)
                        else:
                            pending.append(g)
                # Only the visited gate's own forward post gets here with
                # its output: any later post to that output during the
                # visit forces lanes the output already holds.  So
                # sparing the visited gate spares exactly that post.
                g = driver[node]
                if g >= 0 and g != gi and not dirty[g]:
                    dirty[g] = 1
                    if (g - gi) * sign > 0:
                        heappush(wave, sign * g)
                    else:
                        pending.append(g)
                if learned is not None:
                    follow = []
                    mask1 = m1 & new
                    for mask, literal in ((mask1, 1), (new ^ mask1, 0)):
                        if mask:
                            for cnode, cval in learned.get((node, literal), ()):
                                follow.append(
                                    (cnode, mask, 0, 0) if cval else (cnode, 0, mask, 0)
                                )
                    todo.extend(reversed(follow))
                continue

            if not backward:
                if not wave:
                    if not pending:
                        break
                    sign = -1 if sign > 0 else 1
                    wave = [sign * g for g in pending]
                    heapify(wave)
                    pending = []
                gi = sign * heappop(wave)
                dirty[gi] = 0
                visits += 1
                kind, ctrl, inv, tainted, fanins, out = gates[gi]
                # Forward rule: the output force (f1, f0) from the fanins.
                if kind == _KIND_CGATE:
                    has_ctrl = 0
                    all_nc = full
                    if ctrl:
                        for fi in fanins:
                            v = value[fi]
                            has_ctrl |= v
                            all_nc &= care[fi] ^ v
                    else:
                        for fi in fanins:
                            v = value[fi]
                            has_ctrl |= care[fi] ^ v
                            all_nc &= v
                    if ctrl ^ inv:
                        f1, f0 = has_ctrl, all_nc
                    else:
                        f1, f0 = all_nc, has_ctrl
                elif kind == _KIND_UNARY:
                    sv = value[fanins[0]]
                    sc = care[fanins[0]]
                    f1 = sc ^ sv if inv else sv
                    f0 = sc ^ f1
                elif kind == _KIND_PARITY:
                    known = full
                    par = 0
                    for fi in fanins:
                        known &= care[fi]
                        par ^= value[fi]
                    if inv:
                        par = ~par & full
                    f1 = known & par
                    f0 = known ^ f1
                else:  # MUX: fanins are positional (select, d0, d1).
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
                    f0 = f1 ^ (
                        (sel0 & c0) | (sel1 & c1) | (sel_x & (agree0 | agree1))
                    )
                if tainted:
                    act = posted[out]
                    for fi in fanins:
                        act |= posted[fi]
                    f1 &= act
                    f0 &= act
                if learned is not None:
                    # Post through the queue: the consequents must run
                    # before the backward rule reads the output.
                    todo.append((out, f1, f0, 0))
                    backward = True
                    continue
                # A forward force never holds both values on a lane, so
                # f1 & f0 adds nothing to the conflict; no force, no post.
                force = f1 | f0
                if force:
                    v = value[out]
                    c = care[out]
                    conf = (f1 & (c ^ v)) | (f0 & v)
                    if conf:
                        conflict |= conf
                        live = full & ~conflict
                    new = force & ~c & live
                    if new:
                        value[out] = v | (f1 & new)
                        care[out] = c | new
                        posted[out] |= new
                        if not c:
                            touched.append(out)
                        for g in consumers[out]:
                            if not dirty[g]:
                                dirty[g] = 1
                                if (g - gi) * sign > 0:
                                    heappush(wave, sign * g)
                                else:
                                    pending.append(g)

            # Backward rule: forces on the fanins from the known output,
            # queued to run in fanin order.  A fanin with no X lane under
            # the force is left out: lanes only ever become known.
            backward = False
            vo = value[out]
            co = care[out]
            if not co:
                continue
            if kind == _KIND_CGATE:
                # Output noncontrolled → every X input forced
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
                    continue
                b1, b0 = (mask_b, out_nc) if ctrl else (out_nc, mask_b)
                mask = out_nc | mask_b
                for fi in reversed(fanins):
                    if mask & ~care[fi]:
                        todo.append((fi, b1, b0, 1))
            elif kind == _KIND_UNARY:
                # Known output, X source: copy through the inversion.
                if co & ~care[fanins[0]]:
                    b1 = (co ^ vo) if inv else vo
                    todo.append((fanins[0], b1, co ^ b1, 1))
            elif kind == _KIND_PARITY:
                # Known output with exactly one X input → that input is
                # the parity of the output and the known inputs (X
                # fanins contribute 0 to ``par``, so ``par ^ vo`` is
                # exact).
                seen = 0
                multi = 0
                for fi in fanins:
                    x = ~care[fi] & full
                    multi |= seen & x
                    seen |= x
                mask = co & seen & ~multi
                if not mask:
                    continue
                b1 = mask & (par ^ vo)
                for fi in reversed(fanins):
                    if mask & ~care[fi]:
                        todo.append((fi, b1, mask ^ b1, 1))
            else:
                # Known select copies the output onto the chosen data
                # leg (a disagreeing known leg conflicts, as the scalar
                # forward post would); X select with a known data leg
                # disagreeing with the known output forces the select
                # to the other leg.  Queued in reverse of the order they
                # run: d1, d0, then the select.
                kn0 = co ^ vo
                pick = sel_x & co
                to_d0 = pick & c1 & (v1 ^ vo)
                if to_d0:
                    todo.append((sel, 0, to_d0, 0))
                to_d1 = pick & c0 & (v0 ^ vo)
                if to_d1:
                    todo.append((sel, to_d1, 0, 0))
                leg = sel0 & co
                if leg:
                    todo.append((da, leg & vo, leg & kn0, 0))
                leg = sel1 & co
                if leg:
                    todo.append((db, leg & vo, leg & kn0, 0))
        self._conflict = conflict
        self.visits += visits
