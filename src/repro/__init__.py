"""repro — implication-based multi-cycle path detection for sequential circuits.

A from-scratch reproduction of H. Higuchi, *"An Implication-based Method to
Detect Multi-Cycle Paths in Large Sequential Circuits"*, DAC 2002: the
implication/ATPG detection pipeline, the static-hazard validity checks, and
the SAT-based and BDD-based baselines it is compared against — plus every
substrate they need (netlist model, simulators, CDCL SAT solver, ROBDD
package, benchmark generator, STA).

Quick start::

    from repro import MultiCycleDetector
    from repro.circuit.library import fig1_circuit

    result = MultiCycleDetector(fig1_circuit()).run()
    print(result.multi_cycle_pair_names())

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit, CircuitError, validate
from repro.circuit.topology import FFPair, connected_ff_pairs
from repro.core.deciders import (
    PairDecider,
    available_engines,
    create_decider,
    register_decider,
)
from repro.core.detector import (
    DetectorOptions,
    MultiCycleDetector,
    detect_multi_cycle_pairs,
)
from repro.core.extended import condition2_extension
from repro.core.hazard import HazardChecker
from repro.core.kcycle import (
    KCycleAnalyzer,
    KCycleDetector,
    is_k_cycle_pair,
    max_cycles,
)
from repro.core.pipeline import AnalysisContext, Pipeline
from repro.core.streaming import StreamingStage
from repro.core.result import Classification, DetectionResult, PairResult, Stage
from repro.core.sensitization import SensitizationMode
from repro.core.trace import Tracer, open_trace, read_trace

__version__ = "1.1.0"

__all__ = [
    "AnalysisContext",
    "Circuit",
    "CircuitBuilder",
    "CircuitError",
    "Classification",
    "DetectionResult",
    "DetectorOptions",
    "FFPair",
    "HazardChecker",
    "KCycleAnalyzer",
    "KCycleDetector",
    "MultiCycleDetector",
    "PairDecider",
    "PairResult",
    "Pipeline",
    "SensitizationMode",
    "Stage",
    "StreamingStage",
    "Tracer",
    "available_engines",
    "condition2_extension",
    "connected_ff_pairs",
    "create_decider",
    "detect_multi_cycle_pairs",
    "is_k_cycle_pair",
    "max_cycles",
    "open_trace",
    "read_trace",
    "register_decider",
    "validate",
]
