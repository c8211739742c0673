"""One full detection run in its own process, with peak-RSS accounting.

The memory claim of the launch-group fold — bounded peak RSS on
100k-gate circuits — can only be measured process-wide, so each scale
point runs here, in a fresh interpreter, and reports a single JSON
object on stdout::

    {"circuit": "syn20000", "num_nodes": 19556, "num_gates": ...,
     "num_dffs": 954, "connected_pairs": ..., "multi_cycle": ...,
     "single_cycle": ..., "undecided": ..., "groups": ...,
     "wall_seconds": ..., "peak_rss_bytes": ...,
     "packed_implication": {"lanes": ..., "resolved": ...,
                            "closures": ..., "visits": ..., ...}}

With ``--hazard-check exact`` the run includes the exact hazard pass,
and the report adds its ``hazard_exact`` summary (disagreements, pairs
X-reach settled, SAT solves, ...) and ``hazard_seconds``, the pass's
own time from the ``hazard_stage`` trace event.

``peak_rss_bytes`` is the interpreter's lifetime high-water mark
(``getrusage(RUSAGE_SELF).ru_maxrss``, kilobytes on Linux), which is
exactly the bound the fold must hold — it includes the
circuit build, the packed matrices and the final per-pair records.

``--rss-limit-mb`` arms a *hard* ceiling before the run via
``setrlimit(RLIMIT_AS, ...)``: exceeding it raises ``MemoryError``
instead of silently swapping, which is what makes the CI smoke a real
acceptance test.  (``RLIMIT_AS`` caps the address space — the only
enforceable proxy on Linux, where ``RLIMIT_RSS`` is a no-op; the
ceiling is therefore set with headroom over the expected RSS.)

Usage::

    python scale_runner.py syn20000 [--workers 1] [--hazard-check exact]
        [--rss-limit-mb 1536] [--trace FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def peak_rss_bytes() -> int:
    """Lifetime peak resident set of this process, in bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def children_peak_rss_bytes() -> int:
    """Largest peak resident set among reaped worker processes, bytes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024


def arm_rss_ceiling(limit_mb: int) -> None:
    """Make allocations beyond ``limit_mb`` fail instead of swapping."""
    limit = limit_mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("circuit", help="suite or scale-ladder spec name")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--backplane", default="auto",
                        choices=("auto", "off"),
                        help="shared-memory artifact backplane for the "
                             "worker pool (workers > 1 only)")
    parser.add_argument("--hazard-check", default="off",
                        choices=("off", "exact"),
                        help="static-hazard pass over the multi-cycle pairs")
    parser.add_argument("--rss-limit-mb", type=int, default=0,
                        help="hard address-space ceiling (0 = none)")
    parser.add_argument("--cache-dir", default=None,
                        help="content-addressed artifact store directory; "
                             "derived artifacts persist across runner "
                             "invocations (cold vs warm wall time)")
    parser.add_argument("--trace", default=None,
                        help="write the run's JSONL trace to FILE")
    args = parser.parse_args(argv)

    if args.rss_limit_mb:
        arm_rss_ceiling(args.rss_limit_mb)

    # Imports after the ceiling is armed: module loading is part of the
    # process's footprint and must fit under it too.
    from repro.bench_gen.suite import spec_by_name
    from repro.bench_gen.synth import generate
    from repro.core.detector import DetectorOptions, MultiCycleDetector
    from repro.core.result import Stage
    from repro.core.trace import Tracer

    circuit = generate(spec_by_name(args.circuit))
    options = DetectorOptions(
        workers=args.workers,
        backplane=args.backplane,
        cache_dir=args.cache_dir,
        hazard_check=args.hazard_check,
    )

    groups = 0
    queue_summary = None
    hazard_seconds = None

    def run(tracer):
        nonlocal groups, queue_summary, hazard_seconds
        started = time.perf_counter()
        result = MultiCycleDetector(circuit, options, tracer=tracer).run()
        seconds = time.perf_counter() - started
        groups = max(
            (e["groups_total"] for e in tracer.select("launch_group")),
            default=0,
        )
        hazard = tracer.select("hazard_stage")
        if hazard:
            hazard_seconds = hazard[-1]["seconds"]
        queues = tracer.select("decision_queue")
        if queues:
            queue_summary = {
                key: queues[-1][key]
                for key in ("workers", "units", "unit_pairs", "split",
                            "per_worker")
                if key in queues[-1]
            }
        return result, seconds

    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            result, seconds = run(Tracer(sink=fh, keep=True))
    else:
        result, seconds = run(Tracer())

    report = {
        "circuit": circuit.name,
        "num_nodes": circuit.num_nodes,
        "num_gates": circuit.num_gates,
        "num_dffs": len(circuit.dffs),
        "connected_pairs": result.connected_pairs,
        "multi_cycle": len(result.multi_cycle_pairs),
        "single_cycle": len(result.single_cycle_pairs),
        "undecided": len(result.undecided_pairs),
        "sim_dropped": result.stats[Stage.SIMULATION].single_cycle,
        "groups": groups,
        "workers": args.workers,
        "wall_seconds": round(seconds, 3),
        "peak_rss_bytes": peak_rss_bytes(),
        "rss_limit_mb": args.rss_limit_mb,
    }
    if args.workers > 1:
        # ru_maxrss(RUSAGE_CHILDREN) is the largest peak among reaped
        # workers; parent + workers * that bounds the aggregate fleet
        # footprint from above (shared backplane pages are counted once
        # per process that touched them, so this is conservative).
        child_peak = children_peak_rss_bytes()
        report["children_peak_rss_bytes"] = child_peak
        report["aggregate_peak_rss_bytes"] = (
            report["peak_rss_bytes"] + args.workers * child_peak
        )
    metrics = result.metrics
    # packed_implication: closures, lanes, gate visits, resolved lanes;
    # visits / lanes is the per-lane cost of the decide stage's packed
    # closure.
    for name in ("packed_implication", "hazard_exact", "backplane",
                 "cache"):
        if name in metrics:
            report[name] = metrics[name]
    if "hazard_exact" in metrics:
        report["hazard_seconds"] = hazard_seconds
    if "backplane" in metrics:
        report["worker_spawn_seconds"] = metrics["backplane"][
            "spawn_seconds_max"
        ]
    if queue_summary is not None:
        report["decision_queue"] = queue_summary
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
