"""The full multi-cycle FF-pair detection pipeline (Section 4.1).

Ties the stages together exactly as the paper's overall flow:

1. keep only topologically connected FF pairs;
2. random-pattern simulation drops pairs with a simulated MC violation;
3. the logic is expanded into two time frames;
4. each remaining pair is settled by a decision engine — by default the
   paper's implication procedure with the ATPG backtrack fallback.

This module is a thin shell: the flow runs as the launch-group fold of
:mod:`repro.core.streaming` on the pipeline core of
:mod:`repro.core.pipeline`, the decision engines (implication/ATPG,
SAT, BDD, cross-check) live in :mod:`repro.core.deciders`, and the
structured trace layer in :mod:`repro.core.trace`.  Select the engine
with ``DetectorOptions(search_engine=...)``, parallelise with
``DetectorOptions(workers=N)``, and observe with a tracer or progress
callback.

Usage::

    from repro import MultiCycleDetector
    result = MultiCycleDetector(circuit).run()
    result.multi_cycle_pair_names()
"""

from __future__ import annotations

from repro.circuit.netlist import Circuit
from repro.core.pipeline import AnalysisContext, DetectorOptions
from repro.core.result import DetectionResult
from repro.core.trace import ProgressFn, Tracer

__all__ = [
    "DetectorOptions",
    "MultiCycleDetector",
    "detect_multi_cycle_pairs",
]


class MultiCycleDetector:
    """Detects all multi-cycle FF pairs of a synchronous sequential circuit."""

    def __init__(
        self,
        circuit: Circuit,
        options: DetectorOptions | None = None,
        tracer: Tracer | None = None,
        progress: ProgressFn | None = None,
    ) -> None:
        from repro.analysis.lint import enforce

        self.options = options or DetectorOptions()
        #: full lint report when ``options.lint`` is "warn"/"strict";
        #: ``None`` in "off" mode (classic first-error validation).  A
        #: rejected circuit raises :class:`~repro.analysis.LintError`
        #: (a :class:`~repro.circuit.netlist.CircuitError`) here.
        self.lint_report = enforce(circuit, self.options.lint)
        self.circuit = circuit
        self.tracer = tracer
        self.progress = progress

    def run(self) -> DetectionResult:
        """Run the launch-group fold and classify every connected FF pair.

        With ``options.cache_dir`` (or ``REPRO_CACHE_DIR``) set, the
        on-disk artifact store is active for the run: derived artifacts
        round-trip through it and the run's pair records are published
        as a bundle for later ``--incremental-from`` ECO runs.
        """
        from repro.core.streaming import StreamingStage
        from repro.store.runtime import resolve_cache_dir, store_enabled

        ctx = AnalysisContext(
            self.circuit,
            self.options,
            tracer=self.tracer,
            progress=self.progress,
        )
        cache_dir = resolve_cache_dir(self.options.cache_dir)
        with store_enabled(cache_dir, self.options.cache_max_bytes) as store:
            result = StreamingStage().run(ctx)
            if store is not None:
                from repro.core.incremental import save_result_bundle

                save_result_bundle(store, result, self.options)
        return result


def detect_multi_cycle_pairs(
    circuit: Circuit,
    options: DetectorOptions | None = None,
    tracer: Tracer | None = None,
    progress: ProgressFn | None = None,
) -> DetectionResult:
    """Convenience wrapper: ``MultiCycleDetector(circuit, options).run()``."""
    return MultiCycleDetector(circuit, options, tracer, progress).run()
