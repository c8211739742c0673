"""End-to-end integration: the full tool flow on one generated circuit.

Chains every major stage the way a user would — generate, serialise,
reload, detect, validate hazards, budget cycles, relax timing, extend,
report — asserting cross-stage consistency at each step.
"""

from repro.bench_gen.synth import CircuitSpec, generate
from repro.circuit.bench import dumps, loads
from repro.circuit.techmap import techmap
from repro.circuit.topology import connected_ff_pairs
from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs
from repro.core.extended import condition2_extension
from repro.core.kcycle import KCycleDetector
from repro.core.result import Classification
from repro.sat.equivalence import check_sequential_equivalence_1step
from repro.sat.mc_sat import sat_detect_multi_cycle_pairs
from repro.sta.constraints import relaxation_report
from repro.reporting.summary import generate_report


def test_full_flow():
    spec = CircuitSpec("flow", num_inputs=3, counter_width=3, num_banks=3,
                       bank_width=3, logic_per_bank=10, spacing=2,
                       plain_registers=2, shift_tail=2, seed=77)
    circuit = generate(spec)

    # Serialise, reload, and prove the round-trip equivalent.
    reloaded = loads(dumps(circuit), name="flow")
    assert check_sequential_equivalence_1step(circuit, reloaded).equivalent

    # Detect; the SAT baseline must agree pair-for-pair.
    detection = detect_multi_cycle_pairs(reloaded)
    sat = sat_detect_multi_cycle_pairs(reloaded)
    assert detection.multi_cycle_pair_names() == sat.multi_cycle_pair_names()
    assert detection.multi_cycle_pairs, "the generated circuit has MC pairs"

    # k = 2 pipeline equals the MC verdicts; k = 3 is a subset.
    k2 = set(KCycleDetector(reloaded, 2).run().k_cycle_pair_names())
    assert k2 == set(detection.multi_cycle_pair_names())
    k3 = set(KCycleDetector(reloaded, 3).run().k_cycle_pair_names())
    assert k3 <= k2

    # Hazard classification on the mapped circuit partitions the MC set.
    mapped = techmap(reloaded)
    mapped_detection = detect_multi_cycle_pairs(
        mapped, DetectorOptions(hazard_check="exact")
    )
    classes = {"safe": 0, "dependent": 0, "hazardous": 0}
    for verdict in mapped_detection.hazard_verdicts:
        classes[verdict.bound_class] += 1
    assert sum(classes.values()) == len(mapped_detection.multi_cycle_pairs)

    # Timing relaxation can only help, and every pair is accounted for.
    sta = relaxation_report(reloaded, detection)
    assert sta.min_period_relaxed <= sta.min_period_baseline
    assert len(sta.pair_timings) == len(connected_ff_pairs(reloaded))

    # Condition-2 extension only adds pairs.
    extended = condition2_extension(reloaded, detection)
    assert extended.total_multi_cycle >= len(detection.multi_cycle_pairs)

    # Classification totals are conserved end to end.
    totals = {c: 0 for c in Classification}
    for result in detection.pair_results:
        totals[result.classification] += 1
    assert sum(totals.values()) == detection.connected_pairs

    # And the one-shot report renders it all.
    report = generate_report([reloaded], run_sat=False, kcycle_circuits=1,
                             k_max=3)
    assert "flow" in report and "Table 1" in report
