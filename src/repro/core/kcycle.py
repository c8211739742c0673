"""k-cycle FF pair detection (the extension noted at the end of §4.1).

"Though this algorithm is to detect multi-cycle FF pairs, it can be easily
extended to detect k-cycle FF pairs (k = 3, 4, ...) by increasing the
number of time frames in Step 3."

A pair ``(FF_i, FF_j)`` is a *k-cycle pair* when a transition at the source
guarantees the sink stays stable for the next ``k`` clock edges::

    FF_i(t) != FF_i(t+1)  ==>  FF_j(t+1) = FF_j(t+2) = ... = FF_j(t+k)

so the paths may legally take up to ``k`` cycles.  ``k = 2`` coincides with
the MC condition.  The analysis expands ``k`` frames and checks the
violation ``∃ m: FF_j(t+m) != FF_j(t+m+1)`` case by case; in the paper's
Fig. 1 the pair (FF1, FF2) is a 3-cycle pair (its Gray counter needs three
clocks between the decoded launch and capture states) but not a 4-cycle
pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.circuit.netlist import Circuit, validate
from repro.circuit.timeframe import expand_cached
from repro.circuit.topology import FFPair
from repro.logic.values import BINARY
from repro.atpg.implication import ImplicationEngine
from repro.atpg.justify import SearchStatus, justify
from repro.core.pipeline import AnalysisContext, DetectorOptions
from repro.core.result import Classification, PairResult, Stage
from repro.core.session import launch_runs
from repro.core.trace import ProgressFn, Tracer


@dataclass
class KCycleResult:
    pair: FFPair
    k: int
    classification: Classification


class KCycleAnalyzer:
    """Decides the k-cycle property on a shared k-frame expansion."""

    def __init__(
        self,
        circuit: Circuit,
        k: int,
        backtrack_limit: int = 50,
        expansion=None,
    ) -> None:
        if k < 2:
            raise ValueError("k must be >= 2")
        validate(circuit)
        if expansion is not None and expansion.frames < k:
            raise ValueError(f"k-cycle analysis needs a {k}-frame expansion")
        self.circuit = circuit
        self.k = k
        self.backtrack_limit = backtrack_limit
        self.expansion = (
            expansion if expansion is not None else expand_cached(circuit, frames=k)
        )
        self.engine = ImplicationEngine(self.expansion.comb)

    def analyze(self, pair: FFPair) -> KCycleResult:
        """Classify ``pair`` against the k-cycle condition."""
        return self.analyze_run([pair])[0][0]

    def analyze_run(
        self,
        pairs: Sequence[FFPair],
        clock: Callable[[], float] = time.perf_counter,
    ) -> list[tuple[KCycleResult, float]]:
        """Classify a run of same-source pairs, sharing the launch prefix.

        All ``pairs`` must share one launch FF.  The launch assumptions
        ``FF_i(t) = a, FF_i(t+1) = 1-a`` are propagated once per ``a``
        and reused by every pair's capture cases — the same confluence
        argument as :class:`~repro.core.session.DecisionSession`, so
        classifications match the one-pair-at-a-time flow exactly.
        Returns ``(result, seconds)`` with per-pair wall time (prefix
        propagation is billed to the pair that triggered it).
        """
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
        seconds = [0.0] * len(pairs)
        for a in BINARY:
            prefix_mark = None
            prefix_ok = True
            for index, sink_nodes in enumerate(sink_rows):
                if verdicts[index] is not None:
                    continue
                started = clock()
                if prefix_mark is None:
                    prefix_mark = engine.checkpoint()
                    prefix_ok = engine.assume_all(
                        [(ffi_t, a), (ffi_t1, 1 - a)]
                    )
                if prefix_ok:
                    verdicts[index] = self._capture_cases(sink_nodes)
                # prefix contradiction: every b case is vacuous for the
                # whole run under this launch polarity.
                seconds[index] += clock() - started
            if prefix_mark is not None:
                engine.backtrack(prefix_mark)
        return [
            (
                KCycleResult(
                    pair, self.k, verdicts[index] or Classification.MULTI_CYCLE
                ),
                seconds[index],
            )
            for index, pair in enumerate(pairs)
        ]

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
            # Prove stability frame by frame: given the sink held ``b``
            # through t+m, no pattern may set FF_j(t+m+1) = !b.
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


def is_k_cycle_pair(
    circuit: Circuit, pair: FFPair, k: int, backtrack_limit: int = 50
) -> bool:
    """True when every path of ``pair`` may take up to ``k`` cycles."""
    result = KCycleAnalyzer(circuit, k, backtrack_limit).analyze(pair)
    return result.classification is Classification.MULTI_CYCLE


def max_cycles(
    circuit: Circuit,
    pair: FFPair,
    k_max: int = 8,
    backtrack_limit: int = 50,
) -> int:
    """Largest ``k <= k_max`` for which ``pair`` is a k-cycle pair.

    Returns 1 when the pair is not even a 2-cycle (multi-cycle) pair.  The
    k-cycle property is monotone (stability through t+k implies stability
    through t+k-1), so a linear scan upward is exact.
    """
    best = 1
    for k in range(2, k_max + 1):
        if not is_k_cycle_pair(circuit, pair, k, backtrack_limit):
            break
        best = k
    return best


@dataclass
class KCycleDetectionResult:
    """Outcome of the full k-cycle pipeline over one circuit."""

    circuit: Circuit
    k: int
    connected_pairs: int
    pair_results: list[KCycleResult]
    sim_dropped: int
    total_seconds: float

    @property
    def k_cycle_pairs(self) -> list[KCycleResult]:
        return [
            r for r in self.pair_results
            if r.classification is Classification.MULTI_CYCLE
        ]

    def k_cycle_pair_names(self) -> list[tuple[str, str]]:
        names = self.circuit.names
        return sorted(
            (names[r.pair.source], names[r.pair.sink])
            for r in self.k_cycle_pairs
        )


class KCycleDecider:
    """Pipeline decider wrapping :class:`KCycleAnalyzer`.

    Not in the global registry (it is parameterised by ``k``); the
    k-cycle detector passes an instance straight to its decision stage,
    which also makes it shardable across worker processes.  The search
    takes the run's ``options.backtrack_limit``.
    """

    def __init__(self, k: int) -> None:
        self.name = f"kcycle-{k}"
        self.k = k
        self.frames = k

    def prepare(self, ctx) -> None:
        self._analyzer = KCycleAnalyzer(
            ctx.circuit, self.k, ctx.options.backtrack_limit,
            expansion=ctx.expansion(self.frames),
        )
        self._clock = ctx.clock

    def decide(self, pair: FFPair) -> PairResult:
        result = self._analyzer.analyze(pair)
        return PairResult(pair, result.classification, Stage.DECISION)

    def decide_group(self, pairs: Sequence[FFPair]):
        """Settle a chunk, sharing launch prefixes within same-source runs."""
        decided = []
        for start, end in launch_runs(pairs):
            for result, seconds in self._analyzer.analyze_run(
                pairs[start:end], clock=self._clock
            ):
                decided.append(
                    (
                        PairResult(result.pair, result.classification,
                                   Stage.DECISION),
                        seconds,
                    )
                )
        return decided


#: ``DetectorOptions`` fields a k-cycle run never reads.
_IGNORED_OPTIONS = (
    "search_engine", "static_learning", "implication_db", "hazard_check",
    "hazard_backtrack_limit", "hazard_conflict_limit", "hazard_delays",
    "cache_dir", "cache_max_bytes",
)


class KCycleDetector:
    """Full pipeline for k-cycle pairs: structural filter, k-frame random
    simulation, then implication/ATPG on a shared k-frame expansion —
    the paper's Step-3 extension applied to the whole flow.

    Runs on the launch-group fold of :mod:`repro.core.streaming` with
    the caller's :class:`~repro.core.pipeline.DetectorOptions`, so it
    inherits the parallel executor (``workers``, ``backplane``), the
    lint gate (``lint``) and the structured trace layer.  Its decider is
    always :class:`KCycleDecider` and it runs no hazard pass, so an
    option it never reads (the engine, learning, hazard and store
    fields) set away from its default raises :class:`ValueError`."""

    def __init__(
        self,
        circuit: Circuit,
        k: int,
        options: DetectorOptions | None = None,
        tracer: Tracer | None = None,
        progress: ProgressFn | None = None,
    ) -> None:
        from repro.analysis.lint import enforce

        if k < 2:
            raise ValueError("k must be >= 2")
        options = options or DetectorOptions()
        defaults = DetectorOptions()
        for name in _IGNORED_OPTIONS:
            if getattr(options, name) != getattr(defaults, name):
                raise ValueError(f"k-cycle detection does not read {name}")
        #: full lint report when ``options.lint`` is "warn"/"strict",
        #: ``None`` in "off" mode, as on ``MultiCycleDetector``.
        self.lint_report = enforce(circuit, options.lint)
        self.circuit = circuit
        self.k = k
        self.options = options
        self.tracer = tracer
        self.progress = progress

    def run(self) -> KCycleDetectionResult:
        from repro.core.streaming import StreamingStage

        ctx = AnalysisContext(
            self.circuit, self.options, tracer=self.tracer,
            progress=self.progress,
        )
        detection = StreamingStage(KCycleDecider(self.k), frames=self.k).run(ctx)
        results = [
            KCycleResult(r.pair, self.k, r.classification)
            for r in detection.pair_results
        ]
        return KCycleDetectionResult(
            circuit=self.circuit,
            k=self.k,
            connected_pairs=detection.connected_pairs,
            pair_results=results,
            sim_dropped=detection.stats[Stage.SIMULATION].single_cycle,
            total_seconds=detection.total_seconds,
        )
