"""One-shot reproduction report: every experiment, one markdown document.

``python -m repro report out.md --profile small`` runs Tables 1-3, the
figure checks, the k-cycle histogram, the STA relaxation sweep and the
Condition-2 extension, and writes a self-contained markdown report with
the same structure as EXPERIMENTS.md — useful for regenerating the
committed numbers on new hardware in one command.
"""

from __future__ import annotations

import io
import time
from typing import Sequence

from repro.circuit.netlist import Circuit
from repro.circuit.topology import connected_ff_pairs
from repro.core.detector import DetectorOptions
from repro.core.extended import condition2_extension
from repro.core.kcycle import max_cycles
from repro.core.result import DetectionResult, metric_items
from repro.reporting.tables import Table, run_table1, run_table2, run_table3
from repro.sta.constraints import relaxation_report


def _markdown_table(table: Table) -> str:
    """Render a :class:`Table` as GitHub-flavoured markdown."""
    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    out = io.StringIO()
    out.write("| " + " | ".join(table.headers) + " |\n")
    out.write("|" + "|".join("---" for _ in table.headers) + "|\n")
    for row in table.rows:
        out.write("| " + " | ".join(cell(v) for v in row) + " |\n")
    for note in table.notes:
        out.write(f"\n*{note}*\n")
    return out.getvalue()


def _metrics_table(
    name: str,
    circuits: Sequence[Circuit],
    detections: Sequence[DetectionResult],
) -> Table:
    """Block ``name`` of the detections' ``metrics``: a row per circuit
    that carries it, a column per key (:func:`metric_items`)."""
    headers: list[str] = []
    rows: list[list[object]] = []
    for circuit, detection in zip(circuits, detections):
        block = detection.metrics.get(name)
        if block is None:
            continue
        items = metric_items(block)
        headers = ["circuit", *(key for key, _ in items)]
        rows.append([circuit.name, *(value for _, value in items)])
    return Table(f"{name.replace('_', ' ')} counters", headers, rows)


def generate_report(
    circuits: Sequence[Circuit],
    options: DetectorOptions | None = None,
    sat_mode: str = "per-pair",
    run_sat: bool = True,
    kcycle_circuits: int = 3,
    k_max: int = 5,
) -> str:
    """Run the full experiment battery and return a markdown report."""
    started = time.perf_counter()
    sections: list[str] = []
    sections.append("# Reproduction report\n")
    sections.append(
        "Generated by `repro.reporting.summary.generate_report` over "
        f"{len(circuits)} circuits.\n"
    )

    table1, detections = run_table1(
        list(circuits), options, sat_mode=sat_mode, run_sat=run_sat
    )
    sections.append(f"## {table1.title}\n\n{_markdown_table(table1)}")

    table2 = run_table2(list(circuits), options, detections=detections)
    sections.append(f"## {table2.title}\n\n{_markdown_table(table2)}")

    table3 = run_table3(list(circuits), options)
    sections.append(f"## {table3.title}\n\n{_markdown_table(table3)}")

    # Exact hazard classification: the SAT-backed three-way verdict
    # that closes the gap between the sensitize/co-sensitize bounds,
    # under the run's hazard options.
    from repro.analysis.hazard_exact import ExactHazardChecker

    rows = []
    for circuit, detection in zip(circuits, detections):
        checker = ExactHazardChecker.from_options(
            circuit, options or DetectorOptions()
        )
        verdicts = checker.check_pairs(detection.multi_cycle_pairs)
        summary = checker.summary()
        kinds = {"safe": 0, "glitch-possible": 0, "glitch-proven": 0}
        for verdict in verdicts:
            kinds[verdict.verdict.value] += 1
        rows.append([
            circuit.name, len(verdicts), kinds["safe"],
            kinds["glitch-possible"], kinds["glitch-proven"],
            summary["disagreement"], summary["xreach"],
            f"{summary['resolution_fraction']:.2f}",
        ])
    exact_table = Table(
        "Exact hazard classification (SAT-backed)",
        ["circuit", "MC pairs", "safe", "glitch-possible",
         "glitch-proven", "disagreements", "X-reach", "resolution"],
        rows,
        ["pairs where the sensitization bounds disagree are settled by "
         "the X-reach sweep (X-reach column) or decided exactly by a "
         "dual-rail CNF encoding of the single-source X-propagation "
         "condition; glitch-possible counts SAT budget exhaustions only"],
    )
    sections.append(
        f"## {exact_table.title}\n\n{_markdown_table(exact_table)}"
    )

    # One table per counter block the detections carry.
    for name in dict.fromkeys(
        block for detection in detections for block in detection.metrics
    ):
        table = _metrics_table(name, circuits, detections)
        sections.append(f"## {table.title}\n\n{_markdown_table(table)}")

    # k-cycle budgets over the smallest circuits.
    histogram: dict[int, int] = {}
    for circuit in list(circuits)[:kcycle_circuits]:
        for pair in connected_ff_pairs(circuit):
            budget = max_cycles(circuit, pair, k_max=k_max)
            histogram[budget] = histogram.get(budget, 0) + 1
    ktable = Table(
        "k-cycle budget histogram",
        ["budget", "FF pairs"],
        [[f"{k}-cycle", histogram[k]] for k in sorted(histogram)],
        [f"first {kcycle_circuits} circuits, k_max={k_max}"],
    )
    sections.append(f"## {ktable.title}\n\n{_markdown_table(ktable)}")

    # STA relaxation.
    rows = []
    for circuit, detection in zip(circuits, detections):
        report = relaxation_report(circuit, detection)
        rows.append([
            circuit.name, len(report.pair_timings),
            report.min_period_baseline, report.min_period_relaxed,
            f"{report.speedup:.2f}x",
        ])
    sta_table = Table(
        "Clock-period relaxation",
        ["circuit", "paths", "T_baseline", "T_relaxed", "speedup"],
        rows,
    )
    sections.append(f"## {sta_table.title}\n\n{_markdown_table(sta_table)}")

    # Condition-2 extension.
    rows = []
    for circuit, detection in zip(circuits, detections):
        extended = condition2_extension(circuit, detection)
        rows.append([
            circuit.name, len(detection.multi_cycle_pairs),
            len(extended.upgraded_pairs), extended.total_multi_cycle,
        ])
    c2_table = Table(
        "Condition-2 extension",
        ["circuit", "MC (cond. 1)", "upgraded", "total"],
        rows,
    )
    sections.append(f"## {c2_table.title}\n\n{_markdown_table(c2_table)}")

    elapsed = time.perf_counter() - started
    sections.append(f"\n*Total report generation time: {elapsed:.1f}s.*\n")
    return "\n\n".join(sections)
