"""Verdict digests and the checks run against the committed references.

A digest summarises one analysis result by pair names, so it does not
depend on node numbering:

* ``connected`` and ``pairs_sha256`` — the count and the sha256 of the
  sorted connected pairs, as ``"source -> sink"``;
* ``multi_cycle`` — the count of multi-cycle pairs;
* ``single_cycle`` and ``undecided`` — the sorted pair names of each
  class (every other connected pair is multi-cycle);
* ``hazard`` (exact mode only) — the sorted ``glitch_proven`` and
  ``glitch_possible`` pair names, and the ``safe`` count.

UNDECIDED and glitch-possible are incomplete answers: a pair may become
decided (a better search) or undecided (a smaller budget) without being
wrong.  So verdicts are compared only on the pairs decided in both the
reference and the run.  Those must agree exactly, at every seed.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any

#: SAT cross-check sample size per workload (``--check``).
SAT_SAMPLE = 16


def pair_name(result: Any, pair: Any) -> str:
    """``"source -> sink"`` of an ``FFPair``, by node names."""
    names = result.circuit.names
    return f"{names[pair.source]} -> {names[pair.sink]}"


def digest(result: Any) -> dict[str, Any]:
    """Name-keyed digest of one ``DetectionResult`` (see module doc)."""
    pairs: list[str] = []
    by_kind: dict[str, list[str]] = {"multi-cycle": [], "single-cycle": [],
                                     "undecided": []}
    for pair_result in result.pair_results:
        pair = pair_name(result, pair_result.pair)
        pairs.append(pair)
        by_kind[pair_result.classification.value].append(pair)
    hazard = None
    if result.hazard_mode == "exact":
        verdicts: dict[str, list[str]] = {"safe": [], "glitch-proven": [],
                                          "glitch-possible": []}
        for verdict in result.hazard_verdicts:
            verdicts[verdict.verdict.value].append(pair_name(result, verdict.pair))
        hazard = {"glitch_proven": sorted(verdicts["glitch-proven"]),
                  "glitch_possible": sorted(verdicts["glitch-possible"]),
                  "safe": len(verdicts["safe"])}
    return {
        "connected": result.connected_pairs,
        "pairs_sha256": hashlib.sha256(
            "\n".join(sorted(pairs)).encode()).hexdigest(),
        "multi_cycle": len(by_kind["multi-cycle"]),
        "single_cycle": sorted(by_kind["single-cycle"]),
        "undecided": sorted(by_kind["undecided"]),
        "hazard": hazard,
    }


def incomplete(got: dict[str, Any]) -> int:
    """UNDECIDED plus glitch-possible pairs: the answers left open."""
    hazard = got["hazard"] or {"glitch_possible": []}
    return len(got["undecided"]) + len(hazard["glitch_possible"])


def check(reference: dict[str, Any], got: dict[str, Any]) -> list[str]:
    """Why ``got`` disagrees with ``reference``; empty when it agrees.

    Only pairs decided in both are compared; on them the classification
    and, in exact hazard mode, glitch-proven versus safe must match.
    """
    if (got["connected"], got["pairs_sha256"]) != (
            reference["connected"], reference["pairs_sha256"]):
        return [f"connected pairs differ ({got['connected']} pairs, "
                f"reference {reference['connected']})"]
    errors = []
    open_ = set(reference["undecided"]) | set(got["undecided"])
    flipped = set(got["single_cycle"]) ^ set(reference["single_cycle"])
    flipped -= open_
    if flipped:
        errors.append(f"{len(flipped)} decided pairs changed class, "
                      f"e.g. {min(flipped)}")
    if (got["hazard"] is None) != (reference["hazard"] is None):
        errors.append("exact hazard verdicts present on one side only")
    elif got["hazard"] is not None:
        open_ |= set(reference["hazard"]["glitch_possible"])
        open_ |= set(got["hazard"]["glitch_possible"])
        changed = (set(got["hazard"]["glitch_proven"])
                   ^ set(reference["hazard"]["glitch_proven"])) - open_
        if changed:
            errors.append(f"{len(changed)} exact hazard verdicts changed, "
                          f"e.g. {min(changed)}")
    return errors


def sat_sample(result: Any, newly_decided: set[str],
               seed: int, size: int = SAT_SAMPLE) -> list[list[str]]:
    """A seeded sample of decided pairs ``[source, sink, classification]``.

    Pairs decided now but undecided in the reference come first.
    """
    names = result.circuit.names
    fresh, rest = [], []
    for pair_result in result.pair_results:
        pair = pair_result.pair
        kind = pair_result.classification.value
        if kind == "undecided":
            continue
        row = [names[pair.source], names[pair.sink], kind]
        (fresh if pair_name(result, pair) in newly_decided else rest).append(row)
    rng = random.Random(seed)
    picked = fresh[:size]
    picked += rng.sample(rest, min(len(rest), size - len(picked)))
    return picked
