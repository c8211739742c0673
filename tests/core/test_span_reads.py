"""The end-to-end span harness reads four metrics blocks off the result.

``benchmarks/e2e/spans.layer_metrics`` takes ``packed.resolved_ratio``,
``hazard_exact.*``, ``incremental.*`` and ``backplane.attached`` from
the run's :class:`~repro.core.result.DetectionResult` by attribute name
(``getattr(result, name, None) or {}``).  A renamed alias or block key
would make those metrics read 0 without failing anything, so these
tests give ``layer_metrics`` real results and recompute every
result-derived value from ``result.metrics``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.circuit.library import fig1_circuit
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.incremental import incremental_detect

from tests.core.pool_helpers import forced_pool

SPANS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("e2e_spans_reads", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _from_metrics(result) -> dict[str, float]:
    """Every result-derived harness metric, computed from ``metrics``."""
    metrics = result.metrics
    packed = metrics.get("packed_implication", {})
    exact = metrics.get("hazard_exact", {})
    incremental = metrics.get("incremental", {})
    backplane = metrics.get("backplane", {})
    return {
        "topology.pairs": float(result.connected_pairs),
        "packed.resolved_ratio": _ratio(
            packed.get("resolved", 0), packed.get("lanes", 0)),
        "hazard_exact.disagreements": float(exact.get("disagreement", 0)),
        "hazard_exact.resolution_fraction": float(
            exact.get("resolution_fraction", 0.0)),
        "incremental.re_decided": float(incremental.get("re_decided", 0)),
        "incremental.re_decide_ratio": _ratio(
            incremental.get("re_decided", 0), incremental.get("survivors", 0)),
        "backplane.attached": float(backplane.get("attached", 0)),
    }


def _hazard_exact_run():
    return MultiCycleDetector(
        fig1_circuit(), DetectorOptions(hazard_check="exact")
    ).run()


def _incremental_run():
    # No prior bundle: every survivor is re-decided, so the block's
    # counts are non-zero.
    return incremental_detect(fig1_circuit(), DetectorOptions(), None)


def _parallel_run():
    with forced_pool():
        return MultiCycleDetector(
            fig1_circuit(), DetectorOptions(workers=2)
        ).run()


@pytest.mark.parametrize(
    "run, read",
    [
        (_hazard_exact_run, ("packed.resolved_ratio",
                             "hazard_exact.disagreements",
                             "hazard_exact.resolution_fraction")),
        (_incremental_run, ("incremental.re_decided",
                            "incremental.re_decide_ratio")),
        (_parallel_run, ("backplane.attached",)),
    ],
    ids=["hazard-exact", "incremental", "parallel"],
)
def test_layer_metrics_read_the_result_metrics(run, read):
    result = run()
    expected = _from_metrics(result)
    values = spans.layer_metrics(spans.Recorder(), result, set())
    for name, value in expected.items():
        assert values[name] == value, name
    # The blocks this run produces are non-empty, so a broken read
    # (which yields 0) cannot pass.
    assert all(expected[name] > 0 for name in read), expected


def test_traced_incremental_run_wraps_the_fold():
    """``IncrementalStage.run`` is the harness's ``incremental`` layer:
    it must still be found and time the whole fold."""
    recorder = spans.Recorder()
    installation = spans.install(recorder)
    try:
        result = _incremental_run()
    finally:
        installation.restore()
    assert installation.missing == []
    values = spans.layer_metrics(recorder, result,
                                 installation.missing_layers)
    assert values["incremental.s"] > 0
    assert values["incremental.re_decided"] == (
        result.metrics["incremental"]["re_decided"]
    )
    # Topology, random simulation and the decide session run inside it.
    inside = spans.layer_totals(recorder, root="IncrementalStage.run")
    assert {"topology", "random_filter", "session"} <= set(inside)
