"""The enumerative hazard oracle, and a seed sweep of the exact pass.

The oracle tries every binary input assignment of the 2-frame expansion
and re-evaluates the second frame ternarily with the source's state
entry forced to X.  ``tests/analysis/test_hazard_exact.py`` checks the
exact pass against it on a few hypothesis examples; this module also
sweeps it over a fixed seed range::

    PYTHONPATH=src python -m tests.analysis.oracle_sweep [--seeds N]

For each seed below ``N`` (default 2000) it runs the exact pass on a
parity/MUX circuit and on a random circuit, checks every verdict
against the oracle, prints each mismatch and exits 1 if there is any.
Expansions with more than :data:`MAX_INPUTS` inputs are skipped.
Tier-1 does not collect this module (its name is not ``test_*.py``).
"""

from __future__ import annotations

import argparse
import random
import sys
from itertools import product

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, validate
from repro.circuit.timeframe import TimeFrameExpansion, expand
from repro.circuit.topology import FFPair
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.hazard import HazardChecker
from repro.core.result import DetectionResult, HazardVerdictKind
from repro.logic.simulator import evaluate_gate, ternary_eval
from repro.logic.values import X
from tests.strategies import random_sequential_circuit

#: the largest expansion input count the oracle enumerates
MAX_INPUTS = 12

Case = tuple[int, int]


def phase_eval(
    circuit: Circuit,
    expansion: TimeFrameExpansion,
    full: dict[int, int],
    source_node: int,
) -> dict[int, int]:
    """Second-frame ternary values with only ``source_node`` forced to X."""
    node_map = expansion.node_at[1]
    phase = {
        node: full[node] for node in dict.fromkeys(expansion.ff_at[1])
    }
    phase[source_node] = X
    for node in expansion.pi_at[1]:
        phase.setdefault(node, full[node])
    for node in circuit.topo_order():
        gate_type = circuit.types[node]
        if gate_type in (GateType.INPUT, GateType.DFF):
            continue
        copy = node_map[node]
        if gate_type is GateType.CONST0:
            phase[copy] = 0
            continue
        if gate_type is GateType.CONST1:
            phase[copy] = 1
            continue
        phase[copy] = evaluate_gate(
            gate_type,
            [phase[node_map[f]] for f in circuit.fanins[node]],
        )
    return phase


def case_nodes(
    expansion: TimeFrameExpansion, pair: FFPair
) -> tuple[int, int, int, int]:
    """``(FF_i(t), FF_i(t+1), FF_j(t+1), FF_j(t+2))`` expansion nodes."""
    source = expansion.ff_index(pair.source)
    sink = expansion.ff_index(pair.sink)
    return (
        expansion.ff_at[0][source],
        expansion.ff_at[1][source],
        expansion.ff_at[1][sink],
        expansion.ff_at[2][sink],
    )


def replays_to_x(
    circuit: Circuit,
    expansion: TimeFrameExpansion,
    pair: FFPair,
    case: Case,
    assignment: dict[int, int],
) -> bool:
    """Does ``assignment`` satisfy the case premise and X the sink?"""
    ffi_t, source_node, ffj_t1, target = case_nodes(expansion, pair)
    a, b = case
    full = ternary_eval(
        expansion.comb,
        {node: assignment.get(node, 0) for node in expansion.comb.inputs},
    )
    if (full[ffi_t], full[source_node], full[ffj_t1], full[target]) != (
        a, 1 - a, b, b,
    ):
        return False
    return phase_eval(circuit, expansion, full, source_node)[target] == X


def glitching_cases(
    circuit: Circuit,
    expansion: TimeFrameExpansion,
    pair_cases: dict[FFPair, list[Case]],
) -> set[tuple[FFPair, Case]]:
    """The ``(pair, case)`` entries some premise-satisfying binary
    assignment drives to X at the sink, by enumeration."""
    comb = expansion.comb
    inputs = list(comb.inputs)
    todo = [
        (pair, case, case_nodes(expansion, pair))
        for pair, cases in pair_cases.items()
        for case in cases
    ]
    found: set[tuple[FFPair, Case]] = set()
    for bits in product((0, 1), repeat=len(inputs)):
        full = ternary_eval(comb, dict(zip(inputs, bits)))
        phases: dict[int, dict[int, int]] = {}
        for pair, (a, b), (ffi_t, source_node, ffj_t1, target) in todo:
            if (pair, (a, b)) in found:
                continue
            if full[ffi_t] != a or full[source_node] != 1 - a:
                continue
            if full[ffj_t1] != b or full[target] != b:
                continue
            phase = phases.get(source_node)
            if phase is None:
                phase = phase_eval(circuit, expansion, full, source_node)
                phases[source_node] = phase
            if phase[target] == X:
                found.add((pair, (a, b)))
    return found


def parity_mux_circuit(seed: int) -> Circuit:
    """XOR/MUX-biased random circuit: maximal X-propagation density."""
    rng = random.Random(seed)
    heavy = [GateType.XOR, GateType.XNOR, GateType.MUX, GateType.MUX]
    circuit = Circuit(f"parity{seed}")
    pool = [
        circuit.add_node(GateType.INPUT, (), f"pi{i}")
        for i in range(rng.randint(1, 2))
    ]
    dffs = [
        circuit.add_node(GateType.DFF, (0,), f"ff{i}")
        for i in range(rng.randint(2, 4))
    ]
    pool.extend(dffs)
    for g in range(rng.randint(2, 8)):
        gate_type = rng.choice(heavy)
        if gate_type is GateType.MUX:
            fanins = tuple(rng.choice(pool) for _ in range(3))
        else:
            fanins = tuple(rng.choice(pool) for _ in range(2))
        pool.append(circuit.add_node(gate_type, fanins, f"g{g}"))
    for dff in dffs:
        circuit.set_fanins(dff, (rng.choice(pool),))
    circuit.add_node(GateType.OUTPUT, (pool[-1],), "po0")
    validate(circuit)
    return circuit


def oracle_mismatches(
    circuit: Circuit, detection: DetectionResult
) -> list[str] | None:
    """Exact verdicts of ``detection`` the oracle disagrees with.

    ``None`` when the expansion has more than :data:`MAX_INPUTS` inputs.
    A ``glitch-possible`` verdict is a mismatch: circuits this small
    must always resolve.
    """
    expansion = expand(circuit, frames=2)
    if len(expansion.comb.inputs) > MAX_INPUTS:
        return None
    by_pair = {r.pair: r for r in detection.pair_results}
    pair_cases = {
        v.pair: HazardChecker._satisfiable_cases(by_pair[v.pair])
        for v in detection.hazard_verdicts
    }
    glitching = {pair for pair, _ in glitching_cases(
        circuit, expansion, pair_cases
    )}
    names = circuit.names
    mismatches = []
    for verdict in detection.hazard_verdicts:
        expected = verdict.pair in glitching
        got = verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
        if verdict.verdict is HazardVerdictKind.GLITCH_POSSIBLE or got != expected:
            mismatches.append(
                f"{circuit.name}: {names[verdict.pair.source]} -> "
                f"{names[verdict.pair.sink]} {verdict.verdict.value} "
                f"(by {verdict.decided_by}), oracle glitches={expected}"
            )
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=2000,
                        help="sweep seeds 0 .. N-1 (default 2000)")
    args = parser.parse_args(argv)
    options = DetectorOptions(hazard_check="exact")
    pairs = 0
    skipped = 0
    mismatches: list[str] = []
    for seed in range(args.seeds):
        for circuit in (
            parity_mux_circuit(seed),
            random_sequential_circuit(
                seed, max_inputs=3, max_dffs=4, max_gates=10
            ),
        ):
            detection = MultiCycleDetector(circuit, options).run()
            found = oracle_mismatches(circuit, detection)
            if found is None:
                skipped += 1
                continue
            pairs += len(detection.hazard_verdicts)
            mismatches.extend(found)
    for line in mismatches:
        print(line)
    print(f"oracle sweep: {2 * args.seeds} circuits ({skipped} too large), "
          f"{pairs} pairs, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
