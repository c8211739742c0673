#!/usr/bin/env python3
"""Static-hazard validation of multi-cycle pairs (paper Section 5).

Demonstrates the paper's Fig. 3/Fig. 4 story:

1. Technology-map Fig. 1 (each MUX becomes NOT/AND/AND/OR — Fig. 3).
2. Detect its multi-cycle FF pairs (functionally identical to Fig. 1)
   with the exact hazard pass on.
3. Read what each verdict records about the two static bounds:
   * static sensitization (optimistic; survivors may depend on each other),
   * static co-sensitization (safe upper bound).
4. Show that the pair (FF3, FF2) — multi-cycle by the MC condition — is
   invalidated: a transition at FF3 can glitch through MUX2's AND/OR
   structure to FF2's data input, so its timing must NOT be relaxed.

Usage::

    python examples/hazard_analysis.py
"""

from __future__ import annotations

from repro import DetectorOptions, MultiCycleDetector
from repro.circuit.library import fig1_circuit, fig3_circuit
from repro.circuit.timeframe import expand_cached

EXACT = DetectorOptions(hazard_check="exact")


def main() -> None:
    mapped = fig3_circuit()
    print(f"Technology-mapped circuit: {mapped!r}")

    detection = MultiCycleDetector(mapped, EXACT).run()
    print(f"\nMulti-cycle pairs by the MC condition: "
          f"{len(detection.multi_cycle_pairs)}")
    for source, sink in detection.multi_cycle_pair_names():
        print(f"  {source} -> {sink}")

    def names(verdict):
        return (mapped.names[verdict.pair.source],
                mapped.names[verdict.pair.sink])

    for label, field in (("sensitize", "sensitize_flagged"),
                         ("co-sensitize", "cosensitize_flagged")):
        kept = sorted(
            names(v) for v in detection.hazard_verdicts
            if not getattr(v, field)
        )
        print(f"\nAfter the {label} check: {len(kept)} pair(s) verified")
        for source, sink in kept:
            print(f"  {source} -> {sink}")

    # Zoom in on the paper's example pair.
    print("\n=== The (FF3, FF2) hazard of Fig. 3 ===")
    verdict = next(
        v for v in detection.hazard_verdicts if names(v) == ("FF3", "FF2")
    )
    assert verdict.sensitize_flagged
    a, b = verdict.witness_case
    print(f"Witness case: FF3(t) = {a}, FF3 toggles, FF2(t+1) = {b}")
    print("Statically sensitizable hazard path into FF2's data input:")
    comb = expand_cached(mapped, frames=2).comb
    for node in verdict.witness_path:
        print(f"  {comb.names[node]}")
    print(
        "\nIf the OR's other AND is slower, this path glitches FF2 during"
        "\nthe relaxed cycle — the pair must keep its single-cycle budget."
    )

    # Contrast: on the un-mapped Fig. 1 the same pair shows no sensitizable
    # path (the MUX data inputs are equal whenever FF3 toggles) — hazards
    # are a property of the implementation, not the function.
    unmapped = fig1_circuit()
    detection1 = MultiCycleDetector(unmapped, EXACT).run()
    flagged = {
        (unmapped.names[v.pair.source], unmapped.names[v.pair.sink])
        for v in detection1.hazard_verdicts if v.sensitize_flagged
    }
    print(
        f"\nOn the composite-MUX Fig. 1 the pair (FF3, FF2) is "
        f"{'flagged' if ('FF3', 'FF2') in flagged else 'NOT flagged'} — "
        "the hazard only exists in the mapped structure."
    )


if __name__ == "__main__":
    main()
