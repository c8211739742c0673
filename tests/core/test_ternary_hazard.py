"""The single-source ternary hazard condition on the paper's Fig. 3.

The exact hazard pass decides Section 5's question in ternary (Kleene)
terms: with only the source's second-frame state entry at X, can the
sink's data input evaluate to X under some premise-satisfying input?
These tests pin its verdicts on the mapped Fig. 3 circuit, the order
of those verdicts against the two static bounds, and how the checker
takes its 2-frame expansion.
"""

import pytest

from repro.analysis.hazard_exact import ExactHazardChecker
from repro.circuit.timeframe import expand_cached
from repro.core.detector import detect_multi_cycle_pairs
from repro.core.result import HazardVerdictKind


def _verdict(fig3, source, sink):
    detection = detect_multi_cycle_pairs(fig3)
    target = next(
        p for p in detection.multi_cycle_pairs
        if (fig3.names[p.pair.source], fig3.names[p.pair.sink]) == (source, sink)
    )
    return ExactHazardChecker(fig3).check_pair(target)


def test_fig3_pair_ff3_ff2_glitches(fig3):
    """X-ing the toggling counter bit drives MUX2's AND/OR to X."""
    verdict = _verdict(fig3, "FF3", "FF2")
    assert verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
    assert verdict.witness_case is not None


def test_blocked_pair_does_not_glitch(fig3):
    """(FF1, FF2): when FF1 toggles, EN2 is held 0 by the *unchanged* FF3
    bit, so the X from FF1 is blocked — consistent with the static
    sensitization verdict (and unlike co-sensitization's pessimism)."""
    verdict = _verdict(fig3, "FF1", "FF2")
    assert verdict.verdict is HazardVerdictKind.SAFE
    assert not verdict.sensitize_flagged
    assert verdict.cosensitize_flagged


def test_ternary_flags_subset_of_cosensitization(fig3):
    """Single-source X-propagation cannot flag a pair whose every path
    family is co-sensitization-clean, and flags every pair with a
    sensitizable path: sensitize ⊆ exact ⊆ co-sensitize, pair by pair."""
    detection = detect_multi_cycle_pairs(fig3)
    verdicts = ExactHazardChecker(fig3).check_pairs(detection.multi_cycle_pairs)
    assert verdicts
    for verdict in verdicts:
        assert verdict.cosensitize_flagged >= verdict.flagged
        assert verdict.flagged >= verdict.sensitize_flagged


# ----------------------------------------------------------------------
# Expansion reuse
# ----------------------------------------------------------------------
def test_checker_reuses_cached_expansion(fig3):
    expansion = expand_cached(fig3, frames=2)
    assert ExactHazardChecker(fig3).expansion is expansion


def test_checker_accepts_injected_expansion(fig3):
    expansion = expand_cached(fig3, frames=3)
    checker = ExactHazardChecker(fig3, expansion=expansion)
    assert checker.expansion is expansion


def test_checker_rejects_short_expansion(fig3):
    with pytest.raises(ValueError, match="2-frame"):
        ExactHazardChecker(fig3, expansion=expand_cached(fig3, frames=1))
