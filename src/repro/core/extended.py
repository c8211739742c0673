"""Condition-2 extended multi-cycle analysis (paper §3.1, skipped there).

The paper's full definition of a multi-cycle FF pair has two disjuncts:
the transition (1) is not propagated to the sink — the MC condition the
detector implements — or (2) *is* propagated, but

    (a) the sink's transition is never observed at any primary output, and
    (b) for every successor FF_k, (FF_j, FF_k) is itself a multi-cycle
        pair (under the propagated-transition assumption).

"Condition 2 is difficult to check because the analysis may require
traversal of many states ... Thus we consider only Condition 1."  This
module implements a *delay-independent, one-step* approximation of
Condition 2 as an extension experiment:

a pair (FF_i, FF_j) that fails the MC condition is reclassified
**extended multi-cycle** when

* FF_j is unobservable: no input/state assignment makes its value visible
  at any primary output within the following cycle (checked exactly with
  a SAT miter, :func:`repro.sat.equivalence.ff_observable_at_outputs`), and
* every successor pair (FF_j, FF_k) was itself detected multi-cycle by
  the MC condition (a sound strengthening of 2(b): we require it for all
  transitions rather than only propagated ones).

This is deliberately conservative — exactly the kind of "timing budget
borrowing from the subsequent FF pair" the paper describes — and every
reclassification is therefore still safe to relax *jointly with* keeping
the successor pairs' multi-cycle budgets intact.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.circuit.netlist import Circuit
from repro.circuit.topology import iter_launch_groups
from repro.core.detector import DetectionResult
from repro.core.result import Classification, PairResult
from repro.core.trace import ProgressFn, Tracer
from repro.sat.equivalence import ff_observable_at_outputs


@dataclass
class ExtendedPairResult:
    """A single-cycle pair upgraded by the Condition-2 approximation."""

    pair_result: PairResult
    sink_unobservable: bool
    successors_all_multi_cycle: bool

    @property
    def upgraded(self) -> bool:
        return self.sink_unobservable and self.successors_all_multi_cycle


@dataclass
class ExtendedDetectionResult:
    """Outcome of the Condition-2 pass over one detection result."""

    base: DetectionResult
    reports: list[ExtendedPairResult]
    total_seconds: float

    @property
    def upgraded_pairs(self) -> list[PairResult]:
        return [r.pair_result for r in self.reports if r.upgraded]

    def upgraded_pair_names(self) -> list[tuple[str, str]]:
        names = self.base.circuit.names
        return sorted(
            (names[r.pair.source], names[r.pair.sink])
            for r in self.upgraded_pairs
        )

    @property
    def total_multi_cycle(self) -> int:
        """MC-condition pairs plus Condition-2 upgrades."""
        return len(self.base.multi_cycle_pairs) + len(self.upgraded_pairs)


def condition2_extension(
    circuit: Circuit,
    detection: DetectionResult,
    tracer: Tracer | None = None,
    progress: ProgressFn | None = None,
) -> ExtendedDetectionResult:
    """Apply the one-step Condition-2 approximation to ``detection``.

    Only pairs the MC condition classified single-cycle are examined; the
    upgrade never removes a multi-cycle verdict, so
    ``total_multi_cycle >= len(detection.multi_cycle_pairs)`` always holds.

    The pass runs as one pipeline stage on the trace layer: a
    ``stage_start``/``stage_end`` pair bracketing one ``pair`` event per
    examined single-cycle pair.
    """
    started = time.perf_counter()

    def emit(event: str, **fields) -> dict:
        if tracer is not None:
            return tracer.emit(event, **fields)
        return {"event": event, **fields}
    multi_cycle_keys = {
        (p.pair.source, p.pair.sink) for p in detection.multi_cycle_pairs
    }

    # Successor map: FF_j -> every FF_k whose cone contains FF_j, which
    # is exactly FF_j's launch group (its launch-matrix row), ascending.
    successors = {
        group.source: group.sinks.tolist()
        for group in iter_launch_groups(circuit)
    }

    observable_cache: dict[int, bool] = {}

    def observable(dff: int) -> bool:
        if dff not in observable_cache:
            observable_cache[dff] = ff_observable_at_outputs(circuit, dff)
        return observable_cache[dff]

    candidates = [
        p
        for p in detection.pair_results
        if p.classification is Classification.SINGLE_CYCLE
    ]
    emit("stage_start", stage="condition2", pairs_in=len(candidates))
    reports: list[ExtendedPairResult] = []
    upgraded = 0
    for pair_result in candidates:
        pair_started = time.perf_counter()
        sink = pair_result.pair.sink
        succ_ok = all(
            (sink, follower) in multi_cycle_keys
            for follower in successors.get(sink, ())
        )
        # Check observability second: the SAT miter is the expensive part.
        unobservable = not observable(sink) if succ_ok else False
        report = ExtendedPairResult(pair_result, unobservable, succ_ok)
        reports.append(report)
        upgraded += report.upgraded
        record = emit(
            "pair",
            stage="condition2",
            source=circuit.names[pair_result.pair.source],
            sink=circuit.names[sink],
            classification="extended-multi-cycle"
            if report.upgraded
            else pair_result.classification.value,
            seconds=round(time.perf_counter() - pair_started, 6),
        )
        if progress is not None:
            progress(len(reports), len(candidates), record)
    emit(
        "stage_end",
        stage="condition2",
        pairs_in=len(candidates),
        pairs_out=upgraded,
        seconds=round(time.perf_counter() - started, 6),
    )

    return ExtendedDetectionResult(
        base=detection,
        reports=reports,
        total_seconds=time.perf_counter() - started,
    )
