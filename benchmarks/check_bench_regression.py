"""CI gate: fail when stage-1 simulation throughput regresses.

Compares a freshly generated ``BENCH_pipeline.json`` against the
committed baseline and exits non-zero when any circuit's throughput
dropped by more than ``--tolerance`` (default 30%).

Raw throughput is only comparable on like-for-like hardware, so the
metrics are chosen per the recorded ``cpu_count``:

* same ``cpu_count`` in baseline and current → compare
  ``patterns_per_sec`` (stage-1 simulation) and
  ``decision_pairs_per_sec`` (decision stage) directly;
* different hardware → compare ``sim_speedup`` and
  ``decision_speedup`` — ratios of the shipping engines over their
  pre-optimisation counterparts, measured back-to-back on the same
  machine, hence hardware-independent.

``decide_speedup`` — the packed bit-parallel implication closure over
the scalar per-case kernel, measured back to back on the same cases —
is itself such a ratio, so it is gated in both cases.

``implication_proved_db`` — pairs the implication stage settles when fed
the compiled global implication database — is a count, not a rate, so it
is gated in both cases: the DB must keep proving at least as many pairs
as the recorded baseline.

The fixed-size ``topology_probe`` (bitset reachability vs set BFS, both
measured back to back) is gated in both cases via its speedup ratio.

``exact_resolution_fraction`` — the share of sensitization-bound
disagreements the exact SAT hazard stage settled — is a completeness
property with no timing in it, so it is gated absolutely: any suite
circuit reporting less than 1.0 fails regardless of hardware or
baseline.

The ``scale`` section (streaming-scale ladder, fresh process per rung)
gates ``peak_rss_bytes`` the other way around: peak memory is dominated
by data-structure sizes, not clock speed, so regardless of hardware the
current peak must not *grow* past the baseline by more than the
tolerance.  The gate is skipped when the current report has no scale
section (the tier is regenerated separately via ``REPRO_BENCH_SCALE``).

The ``cache`` section (artifact-store cold/warm probe) gates
``warm_speedup`` as a floor — a back-to-back same-machine ratio, so it
applies on any hardware — and ``eco_re_decide_fraction`` as a ceiling:
the incremental ECO path must not re-decide a larger share of the
decide survivors than the baseline allows.  Both gates are skipped when
the current report carries no cache section.

The ``backplane`` section (shared-memory worker-pool probe) gates
per-worker peak RSS as a growth ceiling (a worker falling back to
private rebuilds is an N-times aggregate-memory regression), worker
artifact-store misses as an exact count, and worker spawn seconds with
generous headroom; all three apply regardless of hardware and are
skipped when the current report carries no backplane section.

Usage::

    python check_bench_regression.py BASELINE.json CURRENT.json [--tolerance 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _by_circuit(report: dict) -> dict[str, dict]:
    return {entry["circuit"]: entry for entry in report.get("results", [])}


def _metrics(baseline: dict, current: dict) -> tuple[str, ...]:
    same_hardware = baseline.get("cpu_count") == current.get("cpu_count")
    if same_hardware:
        return (
            "patterns_per_sec",
            "decision_pairs_per_sec",
            "decide_speedup",
            "implication_proved_db",
        )
    # implication_proved_db (a pair count) and decide_speedup (a
    # back-to-back kernel ratio) are hardware-independent — both are
    # gated either way.
    return (
        "sim_speedup",
        "decision_speedup",
        "decide_speedup",
        "implication_proved_db",
    )


def check(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Return one failure message per regressed metric (empty = pass)."""
    metrics = _metrics(baseline, current)
    failures = []
    current_entries = _by_circuit(current)
    for name, base in _by_circuit(baseline).items():
        entry = current_entries.get(name)
        if entry is None:
            failures.append(f"{name}: missing from current report")
            continue
        for metric in metrics:
            reference = base.get(metric)
            measured = entry.get(metric)
            if not reference or measured is None:
                continue  # old-format report without the metric: no gate
            floor = reference * (1.0 - tolerance)
            if measured < floor:
                failures.append(
                    f"{name}: {metric} {measured:,.0f} < floor {floor:,.0f} "
                    f"(baseline {reference:,.0f}, tolerance {tolerance:.0%})"
                )
    base_probe = baseline.get("topology_probe") or {}
    current_probe = current.get("topology_probe") or {}
    reference = base_probe.get("topology_speedup")
    measured = current_probe.get("topology_speedup")
    if reference and measured is not None:
        floor = reference * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"topology_probe ({base_probe.get('circuit')}): "
                f"topology_speedup {measured:.2f} < floor {floor:.2f} "
                f"(baseline {reference:.2f}, tolerance {tolerance:.0%})"
            )
    failures.extend(_check_exact_hazard(current))
    failures.extend(_check_scale(baseline, current, tolerance))
    failures.extend(_check_cache(baseline, current, tolerance))
    failures.extend(_check_backplane(baseline, current, tolerance))
    return failures


def _check_exact_hazard(current: dict) -> list[str]:
    """Exact-hazard completeness gate (hardware-independent, no tolerance).

    ``exact_resolution_fraction`` is the share of bound disagreements
    the SAT stage settled to a definite verdict.  It carries no timing
    component — anything below 1.0 means the encoding or its budgets
    lost completeness on a suite circuit, so the gate is absolute and
    ignores the baseline entirely.  Reports that predate the metric
    are not gated."""
    failures = []
    for entry in current.get("results", []):
        fraction = entry.get("exact_resolution_fraction")
        if fraction is None:
            continue
        if fraction != 1.0:
            failures.append(
                f"{entry['circuit']}: exact_resolution_fraction "
                f"{fraction:.4f} != 1.0 "
                f"({entry.get('hazard_disagreement', '?')} disagreements, "
                f"{entry.get('exact_resolved', '?')} resolved — the exact "
                f"hazard stage must settle every pair the bounds disagree on)"
            )
    return failures


def _check_scale(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Peak-RSS growth gate over the streaming-scale ladder (see docstring)."""
    current_entries = {
        entry["circuit"]: entry
        for entry in (current.get("scale") or {}).get("results", [])
    }
    if not current_entries:
        return []  # scale tier not regenerated in this run: no gate
    failures = []
    for base in (baseline.get("scale") or {}).get("results", []):
        entry = current_entries.get(base["circuit"])
        if entry is None:
            continue  # partial regeneration (REPRO_BENCH_SCALE=<names>)
        reference = base.get("peak_rss_bytes")
        measured = entry.get("peak_rss_bytes")
        if not reference or measured is None:
            continue
        ceiling = reference * (1.0 + tolerance)
        if measured > ceiling:
            failures.append(
                f"{base['circuit']}: peak_rss_bytes {measured:,} > ceiling "
                f"{ceiling:,.0f} (baseline {reference:,}, tolerance "
                f"{tolerance:.0%})"
            )
    return failures


def _check_cache(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Artifact-store gates: warm speedup floor, ECO re-decide ceiling.

    ``warm_speedup`` is a back-to-back cold/warm ratio on one machine,
    so it is gated regardless of hardware.  ``eco_re_decide_fraction``
    is a pure pair count ratio and is gated the other way around: the
    incremental path must not start re-deciding a larger share of the
    survivors than the baseline allows."""
    base = baseline.get("cache") or {}
    entry = current.get("cache") or {}
    if not entry:
        return []  # cache tier not regenerated in this run: no gate
    failures = []
    reference = base.get("warm_speedup")
    measured = entry.get("warm_speedup")
    if reference and measured is not None:
        floor = reference * (1.0 - tolerance)
        if measured < floor:
            failures.append(
                f"cache ({base.get('circuit')}): warm_speedup "
                f"{measured:.2f} < floor {floor:.2f} "
                f"(baseline {reference:.2f}, tolerance {tolerance:.0%})"
            )
    reference = base.get("eco_re_decide_fraction")
    measured = entry.get("eco_re_decide_fraction")
    if reference and measured is not None:
        ceiling = reference * (1.0 + tolerance)
        if measured > ceiling:
            failures.append(
                f"cache ({base.get('circuit')}): eco_re_decide_fraction "
                f"{measured:.4f} > ceiling {ceiling:.4f} "
                f"(baseline {reference:.4f}, tolerance {tolerance:.0%})"
            )
    return failures


def _check_backplane(
    baseline: dict, current: dict, tolerance: float
) -> list[str]:
    """Shared-memory backplane gates: worker RSS, store misses, spawn.

    ``worker_rss_max_kb`` is dominated by data-structure sizes, so like
    the scale gate it is a growth ceiling regardless of hardware: a
    worker that quietly went back to rebuilding its own private copies
    would blow straight through it.  ``worker_store_misses`` is an exact
    count gated at the baseline (attach must keep replacing rebuild).
    ``worker_spawn_seconds`` is wall time in the milliseconds and
    jittery, so its ceiling gets 3x headroom on top of the tolerance —
    generous, but still catching a return to full per-worker rebuilds,
    which cost orders of magnitude more."""
    base = baseline.get("backplane") or {}
    entry = current.get("backplane") or {}
    if not entry:
        return []  # backplane probe not regenerated in this run: no gate
    failures = []
    reference = base.get("worker_rss_max_kb")
    measured = entry.get("worker_rss_max_kb")
    if reference and measured is not None:
        ceiling = reference * (1.0 + tolerance)
        if measured > ceiling:
            failures.append(
                f"backplane ({base.get('circuit')}): worker_rss_max_kb "
                f"{measured:,} > ceiling {ceiling:,.0f} (baseline "
                f"{reference:,}, tolerance {tolerance:.0%})"
            )
    reference = base.get("worker_store_misses")
    measured = entry.get("worker_store_misses")
    if reference is not None and measured is not None:
        if measured > reference:
            failures.append(
                f"backplane ({base.get('circuit')}): worker_store_misses "
                f"{measured} > baseline {reference} (workers rebuilt "
                f"artifacts the backplane should have shipped)"
            )
    reference = base.get("worker_spawn_seconds")
    measured = entry.get("worker_spawn_seconds")
    if reference and measured is not None:
        ceiling = reference * (1.0 + tolerance) * 3.0
        if measured > ceiling:
            failures.append(
                f"backplane ({base.get('circuit')}): worker_spawn_seconds "
                f"{measured:.3f} > ceiling {ceiling:.3f} (baseline "
                f"{reference:.3f}, 3x headroom over {tolerance:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed BENCH_pipeline.json")
    parser.add_argument("current", type=Path, help="freshly generated report")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop before failing (default: 0.30)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    failures = check(baseline, current, args.tolerance)
    metrics = _metrics(baseline, current)
    print(
        f"comparing {', '.join(metrics)} "
        f"(cpu_count baseline={baseline.get('cpu_count')} "
        f"current={current.get('cpu_count')}, tolerance {args.tolerance:.0%})"
    )
    for failure in failures:
        print(f"REGRESSION {failure}", file=sys.stderr)
    if not failures:
        print("benchmark smoke: no regression")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
