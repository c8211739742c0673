"""Structural statistics for circuits (reports and suite comparisons).

Beyond the raw counts of :meth:`Circuit.stats`, this module computes the
distributions a benchmark paper typically tabulates: gate-type histogram,
combinational depth and level population, fanout statistics and FF-pair
connectivity density.  The CLI's ``analyze`` output and the suite docs
use :func:`format_stats`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.circuit.gates import COMBINATIONAL_TYPES, GateType
from repro.circuit.netlist import Circuit
from repro.circuit.topology import launch_group_stats


@dataclass
class CircuitStats:
    """Aggregate structural numbers for one circuit."""

    name: str
    inputs: int
    outputs: int
    dffs: int
    gates: int
    gate_histogram: dict[str, int]
    depth: int
    #: number of combinational nodes per level (level 1 upward)
    level_population: list[int]
    max_fanout: int
    mean_fanout: float
    connected_pairs: int
    #: connected pairs / all ordered FF pairs
    pair_density: float


def compute_stats(circuit: Circuit) -> CircuitStats:
    """Compute :class:`CircuitStats` for ``circuit``."""
    histogram: Counter[str] = Counter()
    for gate_type in circuit.types:
        if gate_type in COMBINATIONAL_TYPES and gate_type != GateType.OUTPUT:
            histogram[gate_type.name] += 1

    levels = circuit.levels()
    depth = max(levels) if levels else 0
    population = [0] * depth
    for node, level in enumerate(levels):
        if level >= 1:
            population[level - 1] += 1

    fanout_counts = [
        len(circuit.fanouts(n)) for n in range(circuit.num_nodes)
        if circuit.types[n] != GateType.OUTPUT
    ]
    drivers = [c for c in fanout_counts if c > 0]

    num_dffs = len(circuit.dffs)
    pairs = launch_group_stats(circuit)[1]
    density = pairs / (num_dffs * num_dffs) if num_dffs else 0.0

    base = circuit.stats()
    return CircuitStats(
        name=circuit.name,
        inputs=base["inputs"],
        outputs=base["outputs"],
        dffs=base["dffs"],
        gates=base["gates"],
        gate_histogram=dict(histogram),
        depth=depth,
        level_population=population,
        max_fanout=max(fanout_counts, default=0),
        mean_fanout=(sum(drivers) / len(drivers)) if drivers else 0.0,
        connected_pairs=pairs,
        pair_density=density,
    )


def format_stats(stats: CircuitStats) -> str:
    """Multi-line text rendering of :class:`CircuitStats`."""
    lines = [
        f"{stats.name}: {stats.inputs} PI, {stats.outputs} PO, "
        f"{stats.dffs} FF, {stats.gates} gates",
        f"  depth {stats.depth}, max fanout {stats.max_fanout}, "
        f"mean fanout {stats.mean_fanout:.2f}",
        f"  connected FF pairs {stats.connected_pairs} "
        f"(density {stats.pair_density:.2%})",
    ]
    if stats.gate_histogram:
        mix = ", ".join(
            f"{name}:{count}"
            for name, count in sorted(stats.gate_histogram.items())
        )
        lines.append(f"  gate mix: {mix}")
    return "\n".join(lines)
