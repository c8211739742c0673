"""The implication procedure at the core of the paper's method.

"As you can see, the MC condition is nothing but [an] implication relation.
Thus our method utilizes [the] implication procedure as much as possible"
(Section 4).  Given a partial assignment over a combinational circuit, the
procedure derives every *mandatory* value a gate-local analysis can find:

* forward — a controlling input fixes a gate's output; fully assigned
  inputs fix it too;
* backward — a non-controlled output forces all inputs non-controlling; a
  controlled output with a single unassigned input and no controlling input
  yet forces that input controlling; parity gates with one unknown input
  are solved; multiplexer select/data relations are propagated both ways.

A derived value clashing with an existing one is a *contradiction*, which
proves the assumed combination impossible — that single fact settles most
multi-cycle FF pairs (Table 2: more than 80 % of them fall to implication).

The engine additionally applies *learned* global implications
(:mod:`repro.atpg.learning`) whenever a node is assigned, and maintains the
set of *unjustified* gates that the backtrack search of
:mod:`repro.atpg.justify` branches on.

State layout
------------
All structural data (gate-type codes, fanin/fanout adjacency, levels)
comes from the circuit's shared :class:`~repro.circuit.csr.CsrArrays`, so
constructing an engine after the first over the same netlist is O(1).
Values live in a flat ``bytearray`` behind :class:`Assignment`'s undo
trail; unjustified-set changes are recorded on a second trail of signed
ops (``gate`` = added, ``~gate`` = removed).  A :meth:`checkpoint` is
therefore two integers and :meth:`backtrack` is O(changes undone) — the
property the shared-launch decision sessions
(:mod:`repro.core.session`) lean on when thousands of case analyses share
one engine.

Reasons
-------
Every assignment also records its trail :attr:`~ImplicationEngine.position`
and its :attr:`~ImplicationEngine.reason`: the gate whose local rule
implied it (its antecedents are that gate's pins assigned earlier), the
source literal of a learned-table entry (encoded ``-2 - node``), or
:data:`ASSUMED`.  When :meth:`~ImplicationEngine.assume` fails,
:meth:`~ImplicationEngine.conflict_seeds` names the nodes whose values
clash.  Both are plain list stores on the hot path; the justification
search (:mod:`repro.atpg.justify`) walks them only when it backjumps.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.circuit.csr import csr_arrays
from repro.circuit.gates import CONTROLLING, GateType
from repro.circuit.netlist import Circuit
from repro.logic.values import ONE, X, ZERO
from repro.atpg.assignment import Assignment

#: Learned-implication table type: ``(node, value) -> ((node, value), ...)``.
LearnedTable = Mapping[tuple[int, int], Sequence[tuple[int, int]]]

#: ``(trail length, justification-trail length)`` — see :meth:`checkpoint`.
Mark = tuple[int, int]

#: :attr:`ImplicationEngine.reason` of an assumed (not implied) value.
ASSUMED = -1

# Gate-type codes as plain ints: the hot loop dispatches on these instead
# of enum identities (GateType is an IntEnum, so the codes are the values).
_OUTPUT = int(GateType.OUTPUT)
_BUF = int(GateType.BUF)
_NOT = int(GateType.NOT)
_XOR = int(GateType.XOR)
_XNOR = int(GateType.XNOR)
_MUX = int(GateType.MUX)

#: per-type controlling value (255 = the type has none) and inversion flag.
_CTRL_VAL = [255] * (max(GateType) + 1)
_CTRL_INV = [0] * (max(GateType) + 1)
for _gt, (_cv, _inv) in CONTROLLING.items():
    _CTRL_VAL[_gt] = _cv
    _CTRL_INV[_gt] = int(_inv)


class ImplicationEngine:
    """Mandatory-assignment propagation over one combinational circuit.

    The engine is created once per expanded circuit and reused across all
    FF pairs; :meth:`checkpoint`/:meth:`backtrack` bracket each analysis.
    """

    def __init__(self, circuit: Circuit, learned: LearnedTable | None = None) -> None:
        self.circuit = circuit
        graph = csr_arrays(circuit)
        self.graph = graph
        #: shared, immutable structural views (also the public API other
        #: layers — justify, podem, learning — navigate the circuit by).
        self.types = graph.types
        self.fanins = graph.fanins
        self.fanouts = graph.fanouts
        self.levels = graph.levels
        self.assignment = Assignment(circuit.num_nodes)
        # ``learned`` is either a plain dict table (copied, the legacy
        # static-learning path) or any read-only object implementing
        # ``.get((node, value), default)`` + truthiness — in particular
        # the compiled :class:`~repro.analysis.implication_db.ImplicationDB`.
        if learned is None:
            self.learned: LearnedTable = {}
        elif isinstance(learned, dict):
            self.learned = dict(learned)
        else:
            self.learned = learned
        #: gates whose assigned output is not yet justified by their inputs
        self.unjustified: set[int] = set()
        #: undo log for :attr:`unjustified`: ``gate`` added, ``~gate`` removed.
        self._jtrail: list[int] = []
        self._queue: list[int] = []
        #: trail index of each assigned node (stale once it is undone).
        self.position = [0] * circuit.num_nodes
        #: why each assigned node holds its value: the implying gate, a
        #: learned entry's source literal as ``-2 - node``, or ASSUMED.
        self.reason = [ASSUMED] * circuit.num_nodes
        #: reason context of the rule being applied (read by ``_post``).
        self._why = ASSUMED
        #: the node whose posted value clashed, after a failed ``assume``.
        self._clash = -1
        #: total assignments posted (assumed + implied) over the lifetime.
        self.implications = 0
        for node in graph.const0:
            self.assignment.set(node, ZERO)
        for node in graph.const1:
            self.assignment.set(node, ONE)
        for index, node in enumerate(self.assignment.trail):
            self.position[node] = index
        self._base_mark: Mark = (self.assignment.checkpoint(), 0)

    # ------------------------------------------------------------------
    # Public interface.
    # ------------------------------------------------------------------
    def value(self, node: int) -> int:
        return self.assignment.values[node]

    def checkpoint(self) -> Mark:
        """O(1) snapshot for :meth:`backtrack` (two trail lengths)."""
        return (len(self.assignment.trail), len(self._jtrail))

    def backtrack(self, mark: Mark) -> None:
        trail_mark, jtrail_mark = mark
        self.assignment.backtrack(trail_mark)
        jtrail = self._jtrail
        unjustified = self.unjustified
        while len(jtrail) > jtrail_mark:
            op = jtrail.pop()
            if op >= 0:
                unjustified.discard(op)
            else:
                unjustified.add(~op)
        self._queue.clear()

    def assume(self, node: int, value: int) -> bool:
        """Assign ``node := value`` and run implications to a fixpoint.

        Returns ``False`` when the assumption contradicts the current
        assignment (directly or through implication); the caller is then
        expected to backtrack to its checkpoint.
        """
        self._why = ASSUMED
        if not self._post(node, value):
            return False
        return self._propagate()

    def assume_all(self, assignments: Iterable[tuple[int, int]]) -> bool:
        """Assume several assignments; stops at the first contradiction."""
        for node, value in assignments:
            self._why = ASSUMED
            if not self._post(node, value):
                return False
        return self._propagate()

    def conflict_seeds(self) -> list[int]:
        """Assigned nodes whose values clashed in the last failed assume.

        A gate rule's clash involves the gate's pins, a learned entry's
        the source literal and the clashing node, an assumption's the
        node it contradicted.  Valid until the caller backtracks.
        """
        why = self._why
        if why >= 0:
            values = self.assignment.values
            return [p for p in (*self.fanins[why], why) if values[p] != X]
        if why == ASSUMED:
            return [self._clash]
        return [-2 - why, self._clash]

    def reset(self) -> None:
        """Drop everything assumed since construction."""
        self.backtrack(self._base_mark)

    # ------------------------------------------------------------------
    # Assignment + propagation internals.
    # ------------------------------------------------------------------
    def _post(self, node: int, value: int) -> bool:
        """Record an assignment (with its reason) and schedule affected gates.

        On a clash the reason context (``_why``) is left as it was, so
        :meth:`conflict_seeds` can read it.
        """
        values = self.assignment.values
        current = values[node]
        if current != X:
            if current != value:
                self._clash = node
                return False
            return True
        values[node] = value
        trail = self.assignment.trail
        self.position[node] = len(trail)
        self.reason[node] = self._why
        trail.append(node)
        self.implications += 1
        queue = self._queue
        queue.append(node)
        queue.extend(self.fanouts[node])
        if self.learned:
            consequents = self.learned.get((node, value), ())
            if consequents:
                why = self._why
                self._why = -2 - node
                for other, other_value in consequents:
                    if not self._post(other, other_value):
                        return False
                self._why = why
        return True

    def _propagate(self) -> bool:
        """Run gate-local implications until fixpoint or contradiction."""
        queue = self._queue
        while queue:
            gate = queue.pop()
            self._why = gate
            if not self._imply_gate(gate):
                queue.clear()
                return False
        return True

    def _imply_gate(self, gate: int) -> bool:
        """(Re-)derive mandatory values around ``gate``; update J-status."""
        gate_type = self.types[gate]

        controlling = _CTRL_VAL[gate_type]
        if controlling != 255:
            return self._imply_cgate(
                gate, controlling, _CTRL_INV[gate_type], self.fanins[gate]
            )

        if gate_type == _BUF or gate_type == _OUTPUT or gate_type == _NOT:
            values = self.assignment.values
            invert = 1 if gate_type == _NOT else 0
            source = self.fanins[gate][0]
            in_value = values[source]
            out_value = values[gate]
            ok = True
            if in_value != X:
                ok = self._post(gate, in_value ^ invert)
            elif out_value != X:
                ok = self._post(source, out_value ^ invert)
            self._update_justified(gate, justified=values[source] != X or values[gate] == X)
            return ok

        if gate_type == _XOR or gate_type == _XNOR:
            return self._imply_parity(gate, gate_type == _XNOR, self.fanins[gate])

        if gate_type == _MUX:
            return self._imply_mux(gate, self.fanins[gate])

        # INPUT / DFF / CONST nodes carry no gate-local rule.
        return True

    def _imply_cgate(
        self, gate: int, controlling: int, inverted: int, fanins: tuple[int, ...]
    ) -> bool:
        """AND/NAND/OR/NOR implications via controlling-value reasoning."""
        controlled_out = controlling ^ inverted
        noncontrolled_out = (1 - controlling) ^ inverted
        values = self.assignment.values

        num_x = 0
        has_controlling = False
        unknown = -1
        for fanin in fanins:
            value = values[fanin]
            if value == X:
                num_x += 1
                unknown = fanin
            elif value == controlling:
                has_controlling = True

        # Forward.
        if has_controlling:
            if not self._post(gate, controlled_out):
                return False
        elif num_x == 0:
            if not self._post(gate, noncontrolled_out):
                return False

        # Backward.
        out_value = values[gate]
        if out_value == noncontrolled_out:
            if has_controlling:
                return False
            for fanin in fanins:
                if values[fanin] == X and not self._post(fanin, 1 - controlling):
                    return False
            self._update_justified(gate, justified=True)
        elif out_value == controlled_out:
            if has_controlling:
                self._update_justified(gate, justified=True)
            elif num_x == 0:
                return False
            elif num_x == 1:
                if not self._post(unknown, controlling):
                    return False
                self._update_justified(gate, justified=True)
            else:
                self._update_justified(gate, justified=False)
        else:  # output still X
            self._update_justified(gate, justified=True)
        return True

    def _imply_parity(self, gate: int, inverted: bool, fanins: tuple[int, ...]) -> bool:
        """XOR/XNOR implications: solvable whenever at most one pin is X."""
        values = self.assignment.values
        parity = 1 if inverted else 0
        num_x = 0
        unknown = -1
        for fanin in fanins:
            value = values[fanin]
            if value == X:
                num_x += 1
                unknown = fanin
            else:
                parity ^= value

        if num_x == 0:
            self._update_justified(gate, justified=True)
            return self._post(gate, parity)

        out_value = values[gate]
        if out_value != X and num_x == 1:
            if not self._post(unknown, parity ^ out_value):
                return False
            self._update_justified(gate, justified=True)
        else:
            self._update_justified(gate, justified=out_value == X)
        return True

    def _imply_mux(self, gate: int, fanins: tuple[int, ...]) -> bool:
        """2:1 multiplexer implications (select, d0, d1)."""
        values = self.assignment.values
        select, d0, d1 = fanins

        sel_value = values[select]
        if sel_value != X:
            chosen = d1 if sel_value == ONE else d0
            chosen_value = values[chosen]
            out_value = values[gate]
            ok = True
            if chosen_value != X:
                ok = self._post(gate, chosen_value)
            elif out_value != X:
                ok = self._post(chosen, out_value)
            self._update_justified(
                gate, justified=values[chosen] != X or values[gate] == X
            )
            return ok

        d0_value = values[d0]
        d1_value = values[d1]
        if d0_value != X and d0_value == d1_value:
            if not self._post(gate, d0_value):
                return False
            self._update_justified(gate, justified=True)
            return True

        out_value = values[gate]
        if out_value != X:
            if d0_value != X and d0_value != out_value:
                if not self._post(select, ONE):
                    return False
                return self._imply_mux(gate, fanins)
            if d1_value != X and d1_value != out_value:
                if not self._post(select, ZERO):
                    return False
                return self._imply_mux(gate, fanins)
            self._update_justified(gate, justified=False)
        else:
            self._update_justified(gate, justified=True)
        return True

    def _update_justified(self, gate: int, justified: bool) -> None:
        unjustified = self.unjustified
        if justified:
            if gate in unjustified:
                unjustified.discard(gate)
                self._jtrail.append(~gate)
        elif gate not in unjustified:
            unjustified.add(gate)
            self._jtrail.append(gate)

    # ------------------------------------------------------------------
    # Introspection helpers (tests, examples, the Fig. 2 walkthrough).
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, int]:
        """Current non-X values keyed by node name."""
        return {
            self.circuit.names[n]: v
            for n, v in enumerate(self.assignment.values)
            if v != X
        }
