"""Compare two ``run.py --out`` reports against the bounds in BENCHMARK.json.

Usage::

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json

One row per workload x end-to-end metric.  A row is

* ``ok`` — the change's median is no worse than the parent's by more
  than the metric's bound;
* ``REGRESSED`` — it is worse by more than the bound;
* ``unresolved`` — the parent's own q1-q3 spread is wider than the
  bound, so the comparison cannot tell (unless every run of the change
  reads better than every run of the parent, which is ``ok``).

Exit status: 0 when no row regressed, 1 when one did, 2 when the two
reports were measured on different ``cpu_count`` and are not compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]


def _better(value: float, than: float, direction: str) -> bool:
    return value < than if direction == "lower" else value > than


def compare(parent: dict[str, Any], change: dict[str, Any],
            spec: dict[str, Any]) -> list[dict[str, Any]]:
    """The comparison rows (see the module docstring)."""
    if parent["env"]["cpu_count"] != change["env"]["cpu_count"]:
        raise ValueError(
            f"cpu_count differs ({parent['env']['cpu_count']} vs "
            f"{change['env']['cpu_count']}): runs on different hardware "
            f"are not compared")
    rows = []
    for workload, entry in parent["workloads"].items():
        other = change["workloads"].get(workload)
        if other is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = entry["metrics"].get(name), other["metrics"].get(name)
            if a is None or b is None:
                continue
            direction, bound = metric["better"], metric["bound"]
            base = a["median"]
            delta = (b["median"] - base) / base if base else 0.0
            worse = delta if direction == "lower" else -delta
            spread = (a["q3"] - a["q1"]) / base if base else 0.0
            if spread > bound:
                all_better = all(_better(x, y, direction)
                                 for x in b["values"] for y in a["values"])
                status = "ok" if all_better else "unresolved"
            elif worse > bound:
                status = "REGRESSED"
            else:
                status = "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": base, "change": b["median"], "delta": delta,
                "spread": spread, "bound": bound, "status": status,
            })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(parent, change, spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':18s} {'metric':18s} {'parent':>11s} {'change':>11s} "
          f"{'delta':>8s} {'spread':>7s} {'bound':>6s}  status")
    for row in rows:
        print(f"{row['workload']:18s} {row['metric']:18s} {row['parent']:11.4f} "
              f"{row['change']:11.4f} {row['delta']:+8.2%} {row['spread']:7.2%} "
              f"{row['bound']:6.1%}  {row['status']}")
    return 1 if any(row["status"] == "REGRESSED" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
