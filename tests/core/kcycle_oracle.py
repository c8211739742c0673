"""Reference k-cycle walk: the oracle of the session's k-frame case tail.

The k-cycle analysis used to run its own engine walk beside
:class:`~repro.core.session.DecisionSession`; it now decides through a
session built with ``k``.  The old walk is kept here, unchanged, as the
oracle the session's verdicts are compared with.

Per launch run and launch polarity ``a`` it assumes ``FF_i(t) = a,
FF_i(t+1) = 1-a`` once, then per pair and capture value ``b`` assumes
``FF_j(t+1) = b`` and proves stability frame by frame: given the sink
held ``b`` through ``t+m``, no pattern may set ``FF_j(t+m+1) = 1-b``.
It has no packed pre-pass and keeps no case records: it yields one
classification per pair.
"""

from __future__ import annotations

from typing import Sequence

from repro.circuit.timeframe import TimeFrameExpansion
from repro.circuit.topology import FFPair
from repro.logic.values import BINARY
from repro.atpg.implication import ImplicationEngine
from repro.atpg.justify import SearchStatus, justify
from repro.core.result import Classification
from repro.core.session import launch_runs


class KCycleWalk:
    """Classifies pairs against the k-cycle condition on one engine."""

    def __init__(
        self, expansion: TimeFrameExpansion, k: int, backtrack_limit: int = 50
    ) -> None:
        if expansion.frames < k:
            raise ValueError(f"k-cycle analysis needs a {k}-frame expansion")
        self.expansion = expansion
        self.k = k
        self.backtrack_limit = backtrack_limit
        self.engine = ImplicationEngine(expansion.comb)

    def classify(self, pairs: Sequence[FFPair]) -> list[Classification]:
        """One classification per pair, in input order."""
        out: list[Classification] = []
        for start, end in launch_runs(pairs):
            out.extend(self._run(pairs[start:end]))
        return out

    def _run(self, pairs: Sequence[FFPair]) -> list[Classification]:
        """Classify a run of same-source pairs, sharing the launch prefix."""
        expansion = self.expansion
        engine = self.engine
        source = expansion.ff_index(pairs[0].source)
        ffi_t = expansion.ff_at[0][source]
        ffi_t1 = expansion.ff_at[1][source]
        sink_rows = []
        for pair in pairs:
            sink = expansion.ff_index(pair.sink)
            sink_rows.append(
                [expansion.ff_at[f][sink] for f in range(1, self.k + 1)]
            )

        verdicts: list[Classification | None] = [None] * len(pairs)
        for a in BINARY:
            prefix_mark = None
            prefix_ok = True
            for index, sink_nodes in enumerate(sink_rows):
                if verdicts[index] is not None:
                    continue
                if prefix_mark is None:
                    prefix_mark = engine.checkpoint()
                    prefix_ok = engine.assume_all(
                        [(ffi_t, a), (ffi_t1, 1 - a)]
                    )
                if prefix_ok:
                    verdicts[index] = self._capture_cases(sink_nodes)
                # prefix contradiction: every b case is vacuous for the
                # whole run under this launch polarity.
            if prefix_mark is not None:
                engine.backtrack(prefix_mark)
        return [verdict or Classification.MULTI_CYCLE for verdict in verdicts]

    def _capture_cases(self, sink_nodes: list[int]) -> Classification | None:
        """Run both capture cases on top of an already-assumed launch.

        Returns a settling verdict, or ``None`` when neither case decides
        the pair under the current launch polarity."""
        engine = self.engine
        for b in BINARY:
            mark = engine.checkpoint()
            if not engine.assume(sink_nodes[0], b):
                engine.backtrack(mark)
                continue
            violated = False
            undecided = False
            for successor in sink_nodes[1:]:
                value = engine.value(successor)
                if value == b:
                    continue
                sub_mark = engine.checkpoint()
                can_flip = engine.assume(successor, 1 - b)
                if can_flip:
                    result = justify(engine, self.backtrack_limit)
                    if result.status is SearchStatus.SAT:
                        violated = True
                    elif result.status is SearchStatus.ABORTED:
                        undecided = True
                        violated = True  # conservative: stop this case
                engine.backtrack(sub_mark)
                if violated:
                    break
                # No justifiable flip exists.  Assume stability and move
                # on; if even that contradicts, the whole premise is
                # unsatisfiable and the case holds vacuously.
                if not engine.assume(successor, b):
                    break
            engine.backtrack(mark)
            if undecided:
                return Classification.UNDECIDED
            if violated:
                return Classification.SINGLE_CYCLE
        return None
