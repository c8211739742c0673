"""k-cycle FF pair detection (the extension noted at the end of §4.1).

"Though this algorithm is to detect multi-cycle FF pairs, it can be easily
extended to detect k-cycle FF pairs (k = 3, 4, ...) by increasing the
number of time frames in Step 3."

A pair ``(FF_i, FF_j)`` is a *k-cycle pair* when a transition at the source
guarantees the sink stays stable for the next ``k`` clock edges::

    FF_i(t) != FF_i(t+1)  ==>  FF_j(t+1) = FF_j(t+2) = ... = FF_j(t+k)

so the paths may legally take up to ``k`` cycles.  ``k = 2`` coincides with
the MC condition.  The analysis expands ``k`` frames and decides each pair
on a :class:`~repro.core.session.DecisionSession` built with ``k``: the
launch runs, packed pre-pass and case walk of the MC condition, with each
case checking ``FF_j(t+m) = FF_j(t+1)`` for ``m = 2..k`` one frame at a
time.  In the paper's Fig. 1 the pair (FF1, FF2) is a 3-cycle pair (its
Gray counter needs three clocks between the decoded launch and capture
states) but not a 4-cycle pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuit.netlist import Circuit, validate
from repro.circuit.timeframe import expand_cached
from repro.circuit.topology import FFPair
from repro.core.deciders import ImplicationAtpgDecider
from repro.core.pipeline import AnalysisContext, DetectorOptions
from repro.core.result import Classification, Stage
from repro.core.session import DecisionSession
from repro.core.trace import ProgressFn, Tracer


@dataclass
class KCycleResult:
    pair: FFPair
    k: int
    classification: Classification


class KCycleAnalyzer:
    """Decides the k-cycle property on a shared k-frame expansion.

    A :class:`~repro.core.session.DecisionSession` built with ``k``
    does the work, so a pair gets the packed pre-pass and the scalar
    walk of a multi-cycle run.
    """

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
        self.circuit = circuit
        self.k = k
        self.backtrack_limit = backtrack_limit
        self.expansion = (
            expansion if expansion is not None else expand_cached(circuit, frames=k)
        )
        self.session = DecisionSession(
            self.expansion, k=k, backtrack_limit=backtrack_limit
        )

    def analyze(self, pair: FFPair) -> KCycleResult:
        """Classify ``pair`` against the k-cycle condition."""
        result = self.session.decide(pair)
        return KCycleResult(pair, self.k, result.classification)


def is_k_cycle_pair(
    circuit: Circuit, pair: FFPair, k: int, backtrack_limit: int = 50
) -> bool:
    """True when every path of ``pair`` may take up to ``k`` cycles."""
    result = KCycleAnalyzer(circuit, k, backtrack_limit).analyze(pair)
    return result.classification is Classification.MULTI_CYCLE


def cycle_budgets(
    circuit: Circuit,
    pairs: Sequence[FFPair],
    k_max: int = 8,
    backtrack_limit: int = 50,
) -> list[int]:
    """:func:`max_cycles` of every pair in ``pairs``, in order.

    One analyzer per k decides, as one session group, the pairs that
    are still (k-1)-cycle pairs; the k-cycle property is monotone
    (stability through t+k implies stability through t+k-1), so a pair
    leaves the scan at its first failing k.
    """
    budgets = [1] * len(pairs)
    still = list(range(len(pairs)))
    for k in range(2, k_max + 1):
        if not still:
            break
        session = KCycleAnalyzer(circuit, k, backtrack_limit).session
        decided = session.decide_group([pairs[index] for index in still])
        still = [
            index for index, (result, _) in zip(still, decided)
            if result.is_multi_cycle
        ]
        for index in still:
            budgets[index] = k
    return budgets


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
    return cycle_budgets(circuit, [pair], k_max, backtrack_limit)[0]


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


class KCycleDecider(ImplicationAtpgDecider):
    """The ``dalg`` session decider over ``k`` frames, named ``kcycle-k``.

    Not in the global registry (it is parameterised by ``k``); the
    k-cycle detector passes an instance straight to its decision stage,
    which also makes it shardable across worker processes.  The search
    takes the run's ``options.backtrack_limit``.
    """

    def __init__(self, k: int) -> None:
        super().__init__("dalg", frames=k)
        self.name = f"kcycle-{k}"


#: ``DetectorOptions`` fields a k-cycle run never reads.
_IGNORED_OPTIONS = (
    "search_engine", "static_learning", "implication_db", "hazard_check",
    "hazard_conflict_limit", "hazard_delays", "cache_dir", "cache_max_bytes",
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
