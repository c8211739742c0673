"""The per-rule dispatch the scalar implication engine used to run.

:class:`RuleOracleEngine` is an
:class:`~repro.atpg.implication.ImplicationEngine` whose ``_propagate``
pops a gate, sets the reason context and calls one method per gate
family (``_imply_cgate``, ``_imply_parity``, ``_imply_mux`` and the
BUF/NOT/OUTPUT rule of ``_imply_gate``).  Each rule posts through the
engine's ``_post`` and records the gate's justification status through
``_update_justified``; ``backtrack`` pops both trails one entry at a
time.  The engine in ``src/`` runs the same rules inline in one loop and
undoes by slice; ``test_rule_oracle.py`` checks the two step for step.
"""

from __future__ import annotations

from repro.atpg.implication import (
    _BUF,
    _CTRL_INV,
    _CTRL_VAL,
    _MUX,
    _NOT,
    _OUTPUT,
    _XNOR,
    _XOR,
    ImplicationEngine,
    Mark,
)
from repro.logic.values import ONE, X, ZERO


class RuleOracleEngine(ImplicationEngine):
    """The scalar engine with one method call per rule and per status."""

    def backtrack(self, mark: Mark) -> None:
        trail_mark, jtrail_mark = mark
        values = self.assignment.values
        trail = self.assignment.trail
        while len(trail) > trail_mark:
            values[trail.pop()] = X
        jtrail = self._jtrail
        unjustified = self.unjustified
        while len(jtrail) > jtrail_mark:
            op = jtrail.pop()
            if op >= 0:
                unjustified.discard(op)
            else:
                unjustified.add(~op)
        self._queue.clear()

    def _propagate(self) -> bool:
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
