"""CI scale smoke: one ~20k-gate detection under a hard memory ceiling.

Launches :mod:`scale_runner` on the ``syn20000`` scale-ladder circuit in
a fresh interpreter with ``setrlimit``-enforced address-space ceiling
(the packed decide-stage pre-pass's lane planes and plan lowering are
part of the bounded footprint) —
if the launch-group fold's memory bound regresses past the ceiling the
child dies with ``MemoryError`` and the smoke fails loudly.  On success
the child's ``peak_rss_bytes`` is additionally gated against the
committed baseline (the ``scale`` section of ``BENCH_pipeline.json``)
with a growth tolerance, so creeping regressions under the hard ceiling
are caught too.  The child's ``undecided`` count is gated against the
same entry with no tolerance: verdicts do not depend on the machine, so
a run that leaves more pairs undecided than the committed one has lost
completeness (for instance a weaker ATPG search at the same backtrack
limit).

Peak RSS is stable across same-arch machines (it is dominated by data
structure sizes, not clock speed), which is why — unlike the throughput
gates — the RSS gate applies regardless of ``cpu_count``.

A second child repeats the run with a worker pool (``--workers``,
default 2) attached to the shared-memory backplane; its *aggregate*
peak RSS — parent plus every worker, as reported by the runner — must
fit under the same ceiling, so an N-times fleet blow-up (workers
rebuilding private artifact copies instead of attaching) fails the
smoke even though each individual process would stay under its own
``RLIMIT_AS``.

Usage::

    python scale_smoke.py [--circuit syn20000] [--rss-limit-mb 1024]
        [--baseline ../BENCH_pipeline.json] [--tolerance 0.5]
        [--workers 2]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

_RUNNER = Path(__file__).parent / "scale_runner.py"
_DEFAULT_BASELINE = Path(__file__).parent.parent / "BENCH_pipeline.json"


def baseline_entry(baseline_path: Path, circuit: str) -> dict:
    """The committed ``scale`` result for ``circuit`` (empty if none)."""
    try:
        report = json.loads(baseline_path.read_text())
    except (OSError, ValueError):
        return {}
    for entry in (report.get("scale") or {}).get("results", []):
        if entry.get("circuit") == circuit:
            return entry
    return {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="syn20000")
    parser.add_argument("--rss-limit-mb", type=int, default=1024,
                        help="hard address-space ceiling for the child "
                             "(default: 1024)")
    parser.add_argument("--baseline", type=Path, default=_DEFAULT_BASELINE,
                        help="committed BENCH_pipeline.json (scale section)")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional peak-RSS growth over the "
                             "baseline (default: 0.5)")
    parser.add_argument("--workers", type=int, default=2,
                        help="worker count for the aggregate-RSS probe "
                             "(0 disables it; default: 2)")
    args = parser.parse_args(argv)

    command = [
        sys.executable, str(_RUNNER), args.circuit,
        "--rss-limit-mb", str(args.rss_limit_mb),
    ]
    print("running:", " ".join(command))
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        print(
            f"SCALE SMOKE FAILED: {args.circuit} did not complete under "
            f"the {args.rss_limit_mb} MB ceiling",
            file=sys.stderr,
        )
        return 1
    report = json.loads(proc.stdout)
    peak_mb = report["peak_rss_bytes"] / (1024 * 1024)
    print(
        f"{report['circuit']}: {report['num_gates']} gates, "
        f"{report['num_dffs']} FFs, {report['connected_pairs']} pairs, "
        f"{report['wall_seconds']}s, peak RSS {peak_mb:.1f} MB "
        f"(ceiling {args.rss_limit_mb} MB)"
    )

    baseline = baseline_entry(args.baseline, args.circuit)
    reference = baseline.get("peak_rss_bytes")
    if reference:
        limit = reference * (1.0 + args.tolerance)
        if report["peak_rss_bytes"] > limit:
            print(
                f"SCALE SMOKE FAILED: peak_rss_bytes "
                f"{report['peak_rss_bytes']:,} > allowed {limit:,.0f} "
                f"(baseline {reference:,}, tolerance {args.tolerance:.0%})",
                file=sys.stderr,
            )
            return 1
        print(
            f"peak RSS within {args.tolerance:.0%} of baseline "
            f"({reference / (1024 * 1024):.1f} MB)"
        )
    else:
        print("no scale baseline recorded; hard-ceiling check only")

    allowed_undecided = baseline.get("undecided")
    if allowed_undecided is not None:
        if report["undecided"] > allowed_undecided:
            print(
                f"SCALE SMOKE FAILED: {report['undecided']} undecided pairs "
                f"> {allowed_undecided} in the committed baseline",
                file=sys.stderr,
            )
            return 1
        print(
            f"{report['undecided']} undecided pairs (baseline "
            f"{allowed_undecided})"
        )

    if args.workers > 1:
        # Aggregate-RSS probe: same circuit with a worker pool attached
        # to the shared-memory backplane.  Parent plus every worker must
        # *together* fit under the single-process ceiling — the fleet
        # footprint staying ~1x instead of N-times is exactly what the
        # backplane buys.
        command = [
            sys.executable, str(_RUNNER), args.circuit,
            "--workers", str(args.workers), "--backplane", "auto",
            "--rss-limit-mb", str(args.rss_limit_mb),
        ]
        print("running:", " ".join(command))
        proc = subprocess.run(command, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout)
            print(proc.stderr, file=sys.stderr)
            print(
                f"SCALE SMOKE FAILED: {args.circuit} workers="
                f"{args.workers} did not complete under the "
                f"{args.rss_limit_mb} MB ceiling",
                file=sys.stderr,
            )
            return 1
        report = json.loads(proc.stdout)
        aggregate = report.get(
            "aggregate_peak_rss_bytes", report["peak_rss_bytes"]
        )
        aggregate_mb = aggregate / (1024 * 1024)
        spawn = report.get("worker_spawn_seconds")
        misses = (report.get("backplane") or {}).get("worker_store_misses")
        print(
            f"{report['circuit']} workers={args.workers}: aggregate peak "
            f"RSS {aggregate_mb:.1f} MB (parent "
            f"{report['peak_rss_bytes'] / (1024 * 1024):.1f} MB + "
            f"{args.workers} workers), worker spawn "
            f"{spawn if spawn is not None else '?'}s, "
            f"{misses if misses is not None else '?'} worker store misses"
        )
        if aggregate > args.rss_limit_mb * 1024 * 1024:
            print(
                f"SCALE SMOKE FAILED: aggregate_peak_rss_bytes "
                f"{aggregate:,} exceeds the {args.rss_limit_mb} MB "
                f"ceiling — the worker fleet no longer shares the "
                f"backplane pages",
                file=sys.stderr,
            )
            return 1
    print("scale smoke: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
