"""Bit-parallel (64 patterns per word) logic simulation on numpy arrays.

Implements the machinery behind Section 4.3 of the paper: random patterns
are packed into ``uint64`` words, one word batch simulates 64 independent
patterns at once, and the MC-condition check per FF pair becomes three
bitwise operations.  With a word-batch width ``W`` the simulator evaluates
``64 * W`` patterns per pass over the netlist.

Evaluation runs the levelized, gate-type-batched
:class:`~repro.logic.simplan.SimPlan`: a few whole-array kernels per
level, no per-gate Python.  Plans are cached on the circuit, so every
simulator of the same netlist shares one.  (The original per-node loop
survives as the test oracle ``tests/logic/python_sim.py``.)  Simulators
are designed to be *reused*: :func:`simulate_frames` accepts a
caller-held simulator and refreshes its sources in place instead of
reallocating buffers per round.

:class:`TernarySimulator` extends the same compiled plan to three-valued
lanes — two bit planes (value/care) encode {0, 1, X} per bit, and the
plan's ternary kernels settle all lanes at once, so one sweep answers
one X-propagation question per lane.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit
from repro.logic.simplan import SimPlan, compiled_plan

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class BitSimulator:
    """Evaluate the combinational part over packed 64-bit pattern words.

    ``values`` has shape ``(num_nodes, words)``; bit ``b`` of word ``w``
    of row ``n`` is node ``n``'s value in pattern ``64*w + b``.  It is a
    view into a slightly larger internal buffer whose two extra rows hold
    the compiled plan's padding identities; assigning to ``values``
    copies into the buffer, so plan evaluation keeps working after
    wholesale replacement.  ``plan=None`` uses the circuit's cached
    compiled plan.
    """

    def __init__(
        self,
        circuit: Circuit,
        words: int = 4,
        plan: SimPlan | None = None,
    ) -> None:
        if words < 1:
            raise ValueError("words must be >= 1")
        self.circuit = circuit
        self.words = words
        self.plan = compiled_plan(circuit) if plan is None else plan
        if self.plan.num_nodes != circuit.num_nodes:
            raise ValueError("plan was compiled for a different circuit")
        self._buf = np.zeros((circuit.num_nodes + 2, words), dtype=np.uint64)
        self._buf[circuit.num_nodes + 1] = _ALL_ONES
        for node_id in circuit.ids_of_type(GateType.CONST1):
            self._buf[node_id] = _ALL_ONES

    @property
    def values(self) -> np.ndarray:
        """Per-node pattern words, shape ``(num_nodes, words)`` (a view)."""
        return self._buf[: self.circuit.num_nodes]

    @values.setter
    def values(self, matrix: np.ndarray) -> None:
        expected = (self.circuit.num_nodes, self.words)
        if tuple(matrix.shape) != expected:
            raise ValueError(
                f"values must have shape {expected}, got {tuple(matrix.shape)}"
            )
        self._buf[: self.circuit.num_nodes] = matrix

    def randomize_sources(self, rng: np.random.Generator) -> None:
        """Fill every PI and DFF output with fresh random pattern words."""
        source_ids = self.circuit.inputs + self.circuit.dffs
        if source_ids:
            random_words = rng.integers(
                0, 1 << 64, size=(len(source_ids), self.words), dtype=np.uint64
            )
            self.values[source_ids] = random_words

    def set_word(self, node_id: int, word: np.ndarray) -> None:
        """Set one node's pattern words (shape ``(words,)``)."""
        self.values[node_id] = word

    def comb_eval(self) -> None:
        """Evaluate all combinational nodes in topological order."""
        self.plan.run(self._buf)

    def clock(self) -> None:
        """Capture every DFF's D value (call after :meth:`comb_eval`)."""
        dffs = self.circuit.dffs
        next_nodes = [self.circuit.next_state_node(d) for d in dffs]
        captured = self.values[next_nodes].copy()
        self.values[dffs] = captured

    def state_matrix(self) -> np.ndarray:
        """Current DFF pattern words, shape ``(num_dffs, words)``."""
        return self.values[self.circuit.dffs].copy()


class TernarySimulator:
    """Two-plane {0, 1, X} bit-parallel evaluation on the compiled plan.

    Each bit position is one independent three-valued *lane*: the
    ``care`` plane marks lanes with a known binary value and the
    ``value`` plane carries that value (canonically 0 on X lanes, so
    ``value & ~care == 0`` everywhere).  One :meth:`comb_eval` settles
    all combinational nodes of all ``64 * words`` lanes with the same
    handful of whole-array kernels per level that binary mode uses,
    instead of one :func:`~repro.logic.simulator.ternary_eval` dict walk
    per lane.

    Constant nodes are preset known; INPUT and DFF rows are sources the
    caller seeds (:meth:`set_source_planes` or direct plane writes —
    unseeded sources default to X).
    """

    def __init__(self, circuit: Circuit, words: int = 4) -> None:
        if words < 1:
            raise ValueError("words must be >= 1")
        self.circuit = circuit
        self.words = words
        self.plan = compiled_plan(circuit)
        rows = self.plan.buffer_rows
        self._value = np.zeros((rows, words), dtype=np.uint64)
        self._care = np.zeros((rows, words), dtype=np.uint64)
        self.plan.install_ternary_identity_rows(self._value, self._care)
        self._reset_constants()

    def _reset_constants(self) -> None:
        for node_id in self.circuit.ids_of_type(GateType.CONST0):
            self._value[node_id] = 0
            self._care[node_id] = _ALL_ONES
        for node_id in self.circuit.ids_of_type(GateType.CONST1):
            self._value[node_id] = _ALL_ONES
            self._care[node_id] = _ALL_ONES

    @property
    def value(self) -> np.ndarray:
        """Value plane, shape ``(num_nodes, words)`` (a view)."""
        return self._value[: self.circuit.num_nodes]

    @property
    def care(self) -> np.ndarray:
        """Care plane, shape ``(num_nodes, words)`` (a view)."""
        return self._care[: self.circuit.num_nodes]

    def clear_sources(self) -> None:
        """Reset every source lane to X (constants stay known)."""
        self.value[:] = 0
        self.care[:] = 0
        self._reset_constants()

    def set_source_planes(
        self, nodes, value: np.ndarray, care: np.ndarray
    ) -> None:
        """Seed source rows from packed planes (canonicalised on write)."""
        value = np.asarray(value, dtype=np.uint64)
        care = np.asarray(care, dtype=np.uint64)
        self.value[nodes] = value & care
        self.care[nodes] = care

    def comb_eval(
        self,
        pin_nodes: np.ndarray | None = None,
        pin_value: np.ndarray | None = None,
        pin_care: np.ndarray | None = None,
        pin_mask: np.ndarray | None = None,
    ) -> None:
        """Settle all combinational nodes; optional pins override rows.

        Pinned rows (see :meth:`SimPlan.run_ternary
        <repro.logic.simplan.SimPlan.run_ternary>`) keep their forced
        value/care planes even when the plan would compute them — how a
        caller holds the frame-1 state nodes of an expansion fixed.
        ``pin_mask`` limits the pin to a subset of lanes per row; clear
        lanes keep their computed planes.
        """
        self.plan.run_ternary(
            self._value, self._care, pin_nodes, pin_value, pin_care, pin_mask
        )

    def lane_value(self, node_id: int, lane: int) -> int:
        """The {0, 1, X} value of one node in one lane (scalar readback)."""
        from repro.logic.values import X

        word, bit = divmod(lane, 64)
        if not (int(self._care[node_id, word]) >> bit) & 1:
            return X
        return (int(self._value[node_id, word]) >> bit) & 1


def pack_lane_matrix(matrix: np.ndarray, words: int) -> np.ndarray:
    """Pack a ``(rows, lanes)`` 0/1 matrix into ``(rows, words)`` uint64.

    Lane ``l`` lands in bit ``l % 64`` of word ``l // 64`` (little-endian
    bit order), matching :class:`TernarySimulator` lane indexing.
    ``lanes`` may be anything up to ``64 * words``; missing lanes pack
    as 0.
    """
    rows, lanes = matrix.shape
    if lanes > 64 * words:
        raise ValueError(f"{lanes} lanes do not fit in {words} words")
    packed = np.zeros((rows, words * 8), dtype=np.uint8)
    bits = np.packbits(matrix.astype(np.uint8), axis=1, bitorder="little")
    packed[:, : bits.shape[1]] = bits
    return packed.view(np.uint64)


def simulate_frames(
    circuit: Circuit,
    rng: np.random.Generator,
    frames: int,
    words: int = 4,
    sim: BitSimulator | None = None,
) -> list[np.ndarray]:
    """Simulate ``frames`` clock cycles from random state/input patterns.

    Returns the DFF pattern matrices at times ``t`` through ``t+frames``
    (``frames + 1`` matrices).  Fresh random primary inputs are applied in
    every cycle.  Passing a caller-held ``sim`` (of the same circuit and
    word width) reuses its buffers: sources are refreshed in place and no
    arrays are reallocated, which is what lets the random filter run
    thousands of rounds without rebuilding the simulator.  The RNG stream
    consumed is identical either way, so results do not depend on reuse.
    """
    if sim is None:
        sim = BitSimulator(circuit, words)
    elif sim.circuit is not circuit or sim.words != words:
        raise ValueError("sim was built for a different circuit or word width")
    sim.randomize_sources(rng)
    states = [sim.state_matrix()]
    pis = circuit.inputs
    for frame in range(frames):
        if frame > 0 and pis:
            sim.values[pis] = rng.integers(
                0, 1 << 64, size=(len(pis), words), dtype=np.uint64
            )
        sim.comb_eval()
        sim.clock()
        states.append(sim.state_matrix())
    return states


def simulate_three_frames(
    circuit: Circuit,
    rng: np.random.Generator,
    words: int = 4,
    sim: BitSimulator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate two clock cycles from random state/input patterns.

    Returns ``(S0, S1, S2)``: the DFF pattern matrices at times ``t``,
    ``t+1`` and ``t+2``, exactly the quantities the MC-condition filter of
    Section 4.3 needs.
    """
    s0, s1, s2 = simulate_frames(circuit, rng, frames=2, words=words, sim=sim)
    return s0, s1, s2
