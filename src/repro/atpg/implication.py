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
therefore two integers and :meth:`backtrack` is O(changes undone): it
truncates both trails by slice, undoing the frontier ops newest first —
the property the shared-launch decision sessions
(:mod:`repro.core.session`) lean on when thousands of case analyses share
one engine.

Propagation
-----------
One loop runs every gate-local rule inline (AND/NAND/OR/NOR, XOR/XNOR,
MUX, BUF/NOT/OUTPUT), with the engine's arrays bound to locals: a gate
visit makes no method call.  The queue pops LIFO and every post appends
the node, then its fanouts, duplicates included, so the visit order —
and with it every reason, conflict and search count downstream — is
fixed by the assumptions alone.  ``tests/atpg/rule_oracle.py`` keeps the
per-rule dispatch this loop replaced as its step-for-step oracle.

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
        """Undo every assignment and frontier change made after ``mark``."""
        trail_mark, jtrail_mark = mark
        self.assignment.backtrack(trail_mark)
        jtrail = self._jtrail
        if len(jtrail) > jtrail_mark:
            unjustified = self.unjustified
            # Newest first: a gate added then removed in the window ends
            # as it was at the mark.
            for op in reversed(jtrail[jtrail_mark:]):
                if op >= 0:
                    unjustified.discard(op)
                else:
                    unjustified.add(~op)
            del jtrail[jtrail_mark:]
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
            return self._post_learned(node, value)
        return True

    def _post_learned(self, node: int, value: int) -> bool:
        """Post the learned consequents of ``node := value``.

        Their reason is the source literal (``-2 - node``); on a clash
        ``_why`` keeps it.
        """
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
        """Run the gate-local rules until fixpoint or contradiction.

        One loop, every rule inline.  It pops the queue LIFO; each post
        sets the value, ``position`` and ``reason`` (the gate), appends
        the node to the trail and to the queue, then its fanouts, and
        (with a learned table) posts the node's consequents before the
        rule goes on.  A gate whose assigned output its inputs do not
        yet justify joins :attr:`unjustified`; a ``_jtrail`` op records
        each change.  Most rules end in one post, at the bottom of the
        loop; the MUX select and the all-pins rule of a non-controlled
        output post into pins just read as X, so they skip its clash
        check.
        """
        queue = self._queue
        if not queue:
            return True
        values = self.assignment.values
        trail = self.assignment.trail
        position = self.position
        reason = self.reason
        types = self.types
        fanins = self.fanins
        fanouts = self.fanouts
        unjustified = self.unjustified
        jtrail = self._jtrail
        learned = bool(self.learned)
        pop = queue.pop
        push = queue.append
        extend = queue.extend
        posted = 0
        ctrl_val = _CTRL_VAL
        ctrl_inv = _CTRL_INV
        while queue:
            gate = pop()
            gate_type = types[gate]
            pins = fanins[gate]
            if gate_type == _MUX:
                select, d0, d1 = pins
                sel_value = values[select]
                if sel_value == X:
                    value = values[d0]
                    d1_value = values[d1]
                    if value != X and value == d1_value:
                        node = gate
                    else:
                        out_value = values[gate]
                        if out_value == X:
                            if gate in unjustified:
                                unjustified.remove(gate)
                                jtrail.append(~gate)
                            continue
                        if value != X and value != out_value:
                            sel_value = ONE
                        elif d1_value != X and d1_value != out_value:
                            sel_value = ZERO
                        else:
                            if gate not in unjustified:
                                unjustified.add(gate)
                                jtrail.append(gate)
                            continue
                        values[select] = sel_value
                        position[select] = len(trail)
                        reason[select] = gate
                        trail.append(select)
                        posted += 1
                        push(select)
                        extend(fanouts[select])
                        if learned and not self._post_learned(select, sel_value):
                            break
                if sel_value != X:
                    # Known select: the chosen data pin and the output
                    # follow each other; the gate ends justified.
                    if gate in unjustified:
                        unjustified.remove(gate)
                        jtrail.append(~gate)
                    node = d1 if sel_value == ONE else d0
                    value = values[node]
                    if value != X:
                        node = gate
                    else:
                        value = values[gate]
                        if value == X:
                            continue
            elif (controlling := ctrl_val[gate_type]) != 255:  # AND/NAND/OR/NOR
                num_x = 0
                has_controlling = False
                unknown = -1
                for pin in pins:
                    value = values[pin]
                    if value == X:
                        num_x += 1
                        unknown = pin
                    elif value == controlling:
                        has_controlling = True
                if has_controlling:
                    node = gate
                    value = controlling ^ ctrl_inv[gate_type]
                elif num_x == 0:
                    node = gate
                    value = 1 - controlling ^ ctrl_inv[gate_type]
                else:
                    value = values[gate]
                    if value == X:
                        if gate in unjustified:
                            unjustified.remove(gate)
                            jtrail.append(~gate)
                        continue
                    if value == controlling ^ ctrl_inv[gate_type]:
                        if num_x > 1:
                            if gate not in unjustified:
                                unjustified.add(gate)
                                jtrail.append(gate)
                            continue
                        node = unknown
                        value = controlling
                    else:
                        # Non-controlled output: every X pin goes
                        # non-controlling (read live: a learned
                        # consequent may assign a later pin).
                        value = 1 - controlling
                        for pin in pins:
                            if values[pin] == X:
                                values[pin] = value
                                position[pin] = len(trail)
                                reason[pin] = gate
                                trail.append(pin)
                                posted += 1
                                push(pin)
                                extend(fanouts[pin])
                                if learned and not self._post_learned(pin, value):
                                    break
                        else:
                            if gate in unjustified:
                                unjustified.remove(gate)
                                jtrail.append(~gate)
                            continue
                        break
            elif gate_type == _NOT or gate_type == _BUF or gate_type == _OUTPUT:
                # Never unjustified: one known side fixes the other.
                node = pins[0]
                value = values[node]
                if value != X:
                    node = gate
                else:
                    value = values[gate]
                    if value == X:
                        continue
                if gate_type == _NOT:
                    value ^= 1
            elif gate_type == _XOR or gate_type == _XNOR:
                value = 1 if gate_type == _XNOR else 0
                num_x = 0
                unknown = -1
                for pin in pins:
                    pin_value = values[pin]
                    if pin_value == X:
                        num_x += 1
                        unknown = pin
                    else:
                        value ^= pin_value
                if num_x == 0:
                    # Justified whether or not the forward post clashes.
                    if gate in unjustified:
                        unjustified.remove(gate)
                        jtrail.append(~gate)
                    node = gate
                else:
                    out_value = values[gate]
                    if out_value == X:
                        if gate in unjustified:
                            unjustified.remove(gate)
                            jtrail.append(~gate)
                        continue
                    if num_x > 1:
                        if gate not in unjustified:
                            unjustified.add(gate)
                            jtrail.append(gate)
                        continue
                    node = unknown
                    value ^= out_value
            else:  # INPUT / DFF / CONST nodes carry no gate-local rule.
                continue

            # The rule's one post, ``node := value``.
            current = values[node]
            if current == X:
                values[node] = value
                position[node] = len(trail)
                reason[node] = gate
                trail.append(node)
                posted += 1
                push(node)
                extend(fanouts[node])
                if learned and not self._post_learned(node, value):
                    break
            elif current != value:
                self._why = gate
                self._clash = node
                break
            if gate in unjustified:
                unjustified.remove(gate)
                jtrail.append(~gate)
        else:
            self._why = gate
            self.implications += posted
            return True
        self.implications += posted
        queue.clear()
        return False

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
