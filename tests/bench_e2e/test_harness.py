"""Self-tests of the end-to-end benchmark harness in ``benchmarks/e2e``.

The harness functions run here in-process on syn040-sized circuits
(``rep.run`` stands in for the fresh-interpreter child), so the whole
module takes a few seconds.
"""

from __future__ import annotations

import copy
import dataclasses
import signal
import sys
import time
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
sys.path.insert(0, str(E2E))

import compare  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402

from repro.bench_gen.suite import spec_by_name  # noqa: E402
from repro.bench_gen.synth import generate  # noqa: E402
from repro.core.detector import DetectorOptions, MultiCycleDetector  # noqa: E402
from repro.core.result import Classification, HazardVerdictKind  # noqa: E402

TINY = "syn040"


def _golden(prepared: workloads.Prepared) -> dict:
    """A reference built the way ``--write-golden`` builds it."""
    golden = rep.run({"bench": str(prepared.bench),
                      "options": prepared.options})["verdicts"]
    if prepared.edits:
        golden["edits"] = {
            edit["gate"]: {"from": edit["from"], "to": edit["to"],
                           "verdicts": rep.run({"bench": edit["bench"],
                                                "options": prepared.options})["verdicts"]}
            for edit in prepared.edits
        }
    return golden


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """Two checked repetitions and one traced one per tiny workload."""
    root = tmp_path_factory.mktemp("e2e")
    runs = {}
    for workload in workloads.WORKLOADS:
        tiny = dataclasses.replace(workload, spec=TINY)
        prepared = workloads.prepare(tiny, 0, root / tiny.name, rep.run)
        golden = _golden(prepared)
        reps = [run.run_rep(prepared, i, rep.run, golden) for i in range(2)]
        traced = run.run_rep(prepared, 2, rep.run, golden,
                             trace=str(root / f"trace-{tiny.name}.jsonl"))
        runs[tiny.name] = (reps, traced)
    return runs


def test_every_metric_name_and_unit_is_emitted(measured):
    spec = run.benchmark_spec()
    for reps, traced in measured.values():
        line = run.workload_result(spec, reps, None)
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] == sum(r["connected"] for r in reps) > 0
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            d["name"]: d["unit"] for d in spec["end_to_end"]}
        assert all(m["value"] > 0 for m in line["metrics"].values())

        line = run.workload_result(spec, reps, traced)
        assert line["correct"]
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            d["name"]: d["unit"] for d in spec["per_layer"]}
        assert line["metrics"]["bench.load_s"]["value"] > 0


def test_trace_restores_every_wrapped_function(measured):
    originals = {target: spans._resolve(target)[2]
                 for targets in spans.LAYERS.values() for target in targets}
    for target, original in originals.items():
        assert getattr(original, "__wrapped__", None) is None, target
    wrapped = set(map(id, originals.values()))
    for module in list(sys.modules.values()):
        for value in list(getattr(module, "__dict__", {}).values()):
            inner = getattr(value, "__wrapped__", None)
            assert inner is None or id(inner) not in wrapped, (module, value)
    # The traced runs did go through the wrappers.
    for _, traced in measured.values():
        assert traced["layers"]["topology.s"] > 0


def test_speed_probe_samples_and_restores_the_timer():
    handler = signal.getsignal(signal.SIGALRM)
    with rep.SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() < start + 0.3:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3
    inside = sum(e - s for s, e in probe.samples if s >= start and e <= end)
    assert probe.spent(start, end) == inside > 0
    assert probe.spent(end, end + 1) == 0
    # Without samples the speed is the reference; 2 s of steal shared by
    # 2 busy CPUs leaves 10 - 1 = 9 s.
    idle = rep.SpeedProbe()
    assert idle.scale() == 1.0
    assert rep._net_seconds(idle, (0.0, 1.0), (10.0, 3.0), busy=2) == 9.0


def _with(result, classes: dict) -> object:
    """A copy of ``result`` with some pairs reclassified, by pair."""
    changed = copy.deepcopy(result)
    for pair_result in changed.pair_results:
        if pair_result.pair in classes:
            pair_result.classification = classes[pair_result.pair]
    return changed


def test_verdicts_are_compared_on_pairs_decided_in_both():
    circuit = generate(spec_by_name(TINY))
    result = MultiCycleDetector(circuit).run()
    reference = verdicts.digest(result)
    assert verdicts.check(reference, reference) == []
    multi = next(p.pair for p in result.pair_results if p.is_multi_cycle)
    single = next(p.pair for p in result.pair_results
                  if p.classification is Classification.SINGLE_CYCLE)
    undecided = Classification.UNDECIDED

    # A decided pair that flips either way fails.
    for pair, flipped in ((multi, Classification.SINGLE_CYCLE),
                          (single, Classification.MULTI_CYCLE)):
        assert verdicts.check(reference, verdicts.digest(_with(result, {pair: flipped})))

    # A pair the reference left undecided may become either class, and a
    # decided pair may become undecided: neither is a wrong verdict.
    for pair in (multi, single):
        open_reference = verdicts.digest(_with(result, {pair: undecided}))
        assert verdicts.check(open_reference, reference) == []
        assert verdicts.check(reference, open_reference) == []
    # ... but the other pairs are still checked.
    both = verdicts.digest(_with(result, {multi: undecided,
                                          single: Classification.MULTI_CYCLE}))
    assert verdicts.check(reference, both)

    # Undecided pairs are failed operations, not wrong ones.
    rep_out = {"connected": reference["connected"], "errors": [],
               "verdicts": verdicts.digest(_with(result, {multi: undecided}))}
    assert run.ops([rep_out]) == (reference["connected"], 1)
    assert run.decided_fraction(rep_out) == 1 - 1 / reference["connected"]


def test_exact_hazard_verdicts_are_compared_when_decided():
    circuit = generate(spec_by_name(TINY))
    result = MultiCycleDetector(circuit, DetectorOptions(hazard_check="exact")).run()
    reference = verdicts.digest(result)
    assert verdicts.check(reference, reference) == []

    def flipped(kind: HazardVerdictKind) -> dict:
        changed = copy.deepcopy(result)
        verdict = next(v for v in changed.hazard_verdicts if v.verdict is not kind)
        verdict.verdict = kind
        return verdicts.digest(changed)

    # safe -> glitch-proven and glitch-proven -> safe both fail.
    for kind in (HazardVerdictKind.GLITCH_PROVEN, HazardVerdictKind.SAFE):
        assert verdicts.check(reference, flipped(kind))
    possible = flipped(HazardVerdictKind.GLITCH_POSSIBLE)
    assert verdicts.check(reference, possible) == []
    assert verdicts.check(possible, reference) == []
    assert verdicts.incomplete(possible) == 1


def test_a_timed_out_repetition_counts_all_its_pairs_failed(tmp_path):
    bench = tmp_path / "c.bench"
    bench.write_text("INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n")
    child = run.ChildRunner(timeout=0.01)
    out = child({"bench": str(bench), "options": {}})
    assert "timed out" in out["error"]
    out.update(connected=7, errors=[out["error"]])
    assert run.ops([out]) == (7, 7)


def _report(analyze: list[float], cpu_count: int = 2) -> dict:
    spec = run.benchmark_spec()
    metrics = {}
    for definition in spec["end_to_end"]:
        values = analyze if definition["name"] == "analyze_s" else [1.0, 1.0, 1.0]
        metrics[definition["name"]] = {**run.quartiles(values), "values": values}
    return {"env": {"cpu_count": cpu_count},
            "workloads": {"ladder-decide": {"metrics": metrics}}}


def _status(parent: dict, change: dict, spec: dict) -> dict[str, str]:
    return {row["metric"]: row["status"]
            for row in compare.compare(parent, change, spec)}


def test_compare_flags_an_injected_regression_and_passes_identical_runs():
    spec = run.benchmark_spec()
    runs = [10.0, 10.1, 9.9, 10.05, 9.95]
    parent = _report(runs)
    rows = compare.compare(parent, parent, spec)
    assert len(rows) == len(spec["end_to_end"])
    assert all(row["status"] == "ok" for row in rows)

    # 20 % slower against the committed bounds.
    status = _status(parent, _report([v * 1.2 for v in runs]), spec)
    assert status.pop("analyze_s") == "REGRESSED"
    assert set(status.values()) == {"ok"}

    noisy = _report([5.0, 10.0, 15.0, 6.0, 14.0])
    assert _status(noisy, noisy, spec)["analyze_s"] == "unresolved"

    with pytest.raises(ValueError, match="cpu_count"):
        compare.compare(parent, _report([10.0], cpu_count=4), spec)
