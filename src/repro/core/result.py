"""Result types for the multi-cycle FF-pair detection pipeline.

Every FF pair ends in exactly one classification, tagged with the pipeline
stage that settled it — the data behind the paper's Tables 1 and 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.circuit.netlist import Circuit
from repro.circuit.topology import FFPair


class Classification(Enum):
    """Final verdict for an FF pair."""

    MULTI_CYCLE = "multi-cycle"
    SINGLE_CYCLE = "single-cycle"
    #: ATPG hit its backtrack limit; treated as single-cycle downstream
    #: (no timing relaxation is claimed for it).
    UNDECIDED = "undecided"


class Stage(Enum):
    """Pipeline stage that settled a pair (Table 2 attribution)."""

    SIMULATION = "sim"
    IMPLICATION = "implication"
    ATPG = "atpg"
    #: settled by a non-implication decision engine (SAT / BDD deciders);
    #: the paper's three-stage attribution does not apply to those.
    DECISION = "decision"


class CaseOutcome(Enum):
    """Outcome of one ``(FF_i(t), FF_j(t+1)) = (a, b)`` assignment case."""

    #: the premise assignments contradict during implication
    CONTRADICTION = "contradiction"
    #: implication derives FF_j(t+2) = FF_j(t+1) directly
    IMPLIED_STABLE = "implied-stable"
    #: the backtrack search proved no violating pattern exists
    PROVED_STABLE = "proved-stable"
    #: a violating pattern was found — the pair is single-cycle
    VIOLATED = "violated"
    #: the backtrack limit was exhausted
    ABORTED = "aborted"


@dataclass(frozen=True)
class CaseResult:
    """Per-case record; ``a``/``b`` are the assumed FF values.

    Frozen, so equal records may be one shared instance (the decision
    session hands every pair the same eight search-free records).
    """

    a: int
    b: int
    outcome: CaseOutcome
    decisions: int = 0
    backtracks: int = 0
    #: violating free-input pattern, by expanded-circuit node id (SAT only)
    witness: dict[int, int] | None = None


@dataclass
class PairResult:
    """Full record for one topologically connected FF pair."""

    pair: FFPair
    classification: Classification
    stage: Stage
    cases: list[CaseResult] = field(default_factory=list)
    #: per-pair decision-session counters (implications, prefix hits/
    #: misses); observability only — excluded from equality and from
    #: :meth:`DetectionResult.pair_records`.
    metrics: dict[str, int] | None = field(default=None, compare=False)

    @property
    def is_multi_cycle(self) -> bool:
        return self.classification is Classification.MULTI_CYCLE


@dataclass
class StageStats:
    """Counts and CPU time per pipeline stage (the paper's Table 2)."""

    single_cycle: int = 0
    multi_cycle: int = 0
    undecided: int = 0
    cpu_seconds: float = 0.0


@dataclass
class Disagreement:
    """Two decision engines classified the same pair differently."""

    pair: FFPair
    primary_engine: str
    primary: Classification
    secondary_engine: str
    secondary: Classification


class HazardVerdictKind(Enum):
    """Three-way exact hazard classification of one multi-cycle pair."""

    #: no input assignment lets the source transition glitch the sink
    SAFE = "safe"
    #: a resource limit left the pair undecided; treated as flagged
    GLITCH_POSSIBLE = "glitch-possible"
    #: a concrete assignment (or a sensitizable path) proves the glitch
    GLITCH_PROVEN = "glitch-proven"


@dataclass
class PairHazardVerdict:
    """Exact hazard verdict for one pair (``--hazard-check exact``)."""

    pair: FFPair
    verdict: HazardVerdictKind
    #: what settled the pair: ``cases`` (no satisfiable premise),
    #: ``sensitize`` / ``cosensitize`` (a bound decided it), ``xreach``
    #: (safe: the X-reach sweep settled every case co-sensitization left
    #: open, with no solver call), ``exact`` (the SAT decision) or
    #: ``inherited`` (incremental reuse).
    decided_by: str
    #: the ``(a, b)`` case exhibiting the proven glitch, if any
    witness_case: tuple[int, int] | None = None
    #: glitching input pattern by expanded-circuit node id (SAT-decided)
    witness: dict[int, int] | None = None
    #: delay-annotated runs only: True when the proven glitch cannot
    #: survive the annotated min/max gate delays (zero-width pulse).
    delay_safe: bool | None = None
    #: the static sensitization bound found a justified path in some
    #: case (the paper's Table 3 "sensitize" row drops the pair).
    sensitize_flagged: bool = False
    #: the static co-sensitization bound did not clear every case
    #: within budget (Table 3's "co-sensitize" row drops the pair).
    cosensitize_flagged: bool = False
    #: expanded-circuit node ids of the sensitizable path, source first
    witness_path: list[int] | None = None

    @property
    def flagged(self) -> bool:
        """Whether the pair stays on the hazard-flagged list.

        ``glitch-proven`` pairs are flagged unless the delay filter
        showed the pulse cannot form; ``glitch-possible`` is flagged
        conservatively.
        """
        if self.verdict is HazardVerdictKind.GLITCH_POSSIBLE:
            return True
        if self.verdict is HazardVerdictKind.GLITCH_PROVEN:
            return not self.delay_safe
        return False

    @property
    def bound_class(self) -> str:
        """The §5.2 split by the two static bounds.

        ``hazardous`` — sensitization found a hazard path; ``dependent``
        — only co-sensitization flags it, so the pair is safe as long as
        the blocking paths keep their own timing; ``safe`` — clean under
        both.
        """
        if self.sensitize_flagged:
            return "hazardous"
        if self.cosensitize_flagged:
            return "dependent"
        return "safe"


def metric_items(block: dict) -> list[tuple[str, str]]:
    """One ``metrics`` block as ``(key, value)`` text pairs, in order.

    The rule the CLI summary and the markdown report share: ``_`` in a
    key becomes ``-``; ints print as they are, floats to 2 decimals and
    lists by their length.
    """
    items = []
    for key, value in block.items():
        if isinstance(value, float):
            text = f"{value:.2f}"
        elif isinstance(value, list):
            text = str(len(value))
        else:
            text = str(value)
        items.append((key.replace("_", "-"), text))
    return items


@dataclass
class DetectionResult:
    """Everything the detector learned about one circuit."""

    circuit: Circuit
    connected_pairs: int
    pair_results: list[PairResult]
    stats: dict[Stage, StageStats]
    total_seconds: float
    learned_implications: int = 0
    #: decision engine that settled the post-simulation pairs.
    engine: str = "dalg"
    #: cross-check decider only: pairs where the two engines disagreed.
    disagreements: list[Disagreement] = field(default_factory=list)
    #: hazard-validation mode the pipeline ran: "off" or "exact".
    hazard_mode: str = "off"
    #: one verdict per multi-cycle pair, sorted by pair; empty when the
    #: hazard stage was off.  Observability only — excluded from
    #: :meth:`pair_records`.
    hazard_verdicts: list[PairHazardVerdict] = field(default_factory=list)
    #: the run's counter blocks by name.  A block is present only when
    #: its producer ran:
    #:
    #: * ``decision_session`` — session counter totals (pairs, prefix
    #:   hits/misses, launch conflicts, implications, trail high-water,
    #:   ``packed_*``); session engines (dalg/podem/scoap) only;
    #: * ``packed_implication`` — the packed pre-pass totals (lanes,
    #:   resolved, fallbacks, closures, visits, ``us``); session engines;
    #: * ``implication_db`` — the compiled implication DB's stats, with
    #:   ``DetectorOptions.implication_db``;
    #: * ``hazard_exact`` — the exact hazard pass's counters and
    #:   resolution fraction, with ``hazard_check="exact"``;
    #: * ``backplane`` — the shared-memory backplane summary of a pool
    #:   run that published one;
    #: * ``incremental`` — survivors, inherited and re-decided pairs of
    #:   an incremental run;
    #: * ``cache`` — the artifact store's counter deltas (hits, misses,
    #:   stores, evictions, corrupt) when a store was active.
    #:
    #: The same map is the ``metrics`` field of the ``run_end`` trace
    #: event.  Observability only — excluded from :meth:`pair_records`.
    metrics: dict[str, dict] = field(default_factory=dict)

    # Read-only views of four blocks of ``metrics`` (``None`` when
    # absent).  They stay because existing callers still read them by
    # these names (the end-to-end benchmark's span harness,
    # ``benchmarks/e2e/spans.layer_metrics``).
    @property
    def packed_implication(self) -> dict | None:
        """``metrics["packed_implication"]``, or ``None``."""
        return self.metrics.get("packed_implication")

    @property
    def hazard_exact(self) -> dict | None:
        """``metrics["hazard_exact"]``, or ``None``."""
        return self.metrics.get("hazard_exact")

    @property
    def incremental(self) -> dict | None:
        """``metrics["incremental"]``, or ``None``."""
        return self.metrics.get("incremental")

    @property
    def backplane(self) -> dict | None:
        """``metrics["backplane"]``, or ``None``."""
        return self.metrics.get("backplane")

    @property
    def multi_cycle_pairs(self) -> list[PairResult]:
        return [p for p in self.pair_results if p.is_multi_cycle]

    @property
    def hazard_checked(self) -> int:
        """Multi-cycle pairs the hazard stage examined."""
        return len(self.hazard_verdicts)

    @property
    def hazard_flagged_pairs(self) -> list[FFPair]:
        """Flagged ``(source, sink)`` pairs, sorted.

        Observability only: the per-pair classifications and
        :meth:`pair_records` are unchanged.
        """
        return [v.pair for v in self.hazard_verdicts if v.flagged]

    @property
    def hazard_flagged(self) -> int:
        """Multi-cycle pairs the hazard stage flagged."""
        return len(self.hazard_flagged_pairs)

    @property
    def hazard_verified_pairs(self) -> list[PairResult]:
        """Multi-cycle pairs the hazard stage did not flag.

        Equal to :attr:`multi_cycle_pairs` when the stage was off.
        """
        flagged = {(p.source, p.sink) for p in self.hazard_flagged_pairs}
        return [
            p
            for p in self.multi_cycle_pairs
            if (p.pair.source, p.pair.sink) not in flagged
        ]

    @property
    def single_cycle_pairs(self) -> list[PairResult]:
        return [
            p
            for p in self.pair_results
            if p.classification is Classification.SINGLE_CYCLE
        ]

    @property
    def undecided_pairs(self) -> list[PairResult]:
        return [
            p for p in self.pair_results if p.classification is Classification.UNDECIDED
        ]

    def pair_names(self, result: PairResult) -> tuple[str, str]:
        names = self.circuit.names
        return names[result.pair.source], names[result.pair.sink]

    def multi_cycle_pair_names(self) -> list[tuple[str, str]]:
        """Readable ``(source, sink)`` names of all multi-cycle pairs."""
        return sorted(self.pair_names(p) for p in self.multi_cycle_pairs)

    def pair_records(self) -> list[dict[str, object]]:
        """Deterministic per-pair records, timing excluded.

        Two runs of the same circuit with the same options must produce
        byte-identical JSON for this list regardless of worker count —
        the invariant the parallel executor is tested against.
        """
        names = self.circuit.names
        records: list[dict[str, object]] = []
        for result in self.pair_results:
            records.append({
                "source": names[result.pair.source],
                "sink": names[result.pair.sink],
                "classification": result.classification.value,
                "stage": result.stage.value,
                "cases": [
                    {
                        "a": case.a,
                        "b": case.b,
                        "outcome": case.outcome.value,
                        "decisions": case.decisions,
                        "backtracks": case.backtracks,
                        "witness": case.witness,
                    }
                    for case in result.cases
                ],
            })
        return records

    def summary(self) -> dict[str, float | int]:
        return {
            "ff_pairs": self.connected_pairs,
            "mc_pairs": len(self.multi_cycle_pairs),
            "single_cycle": len(self.single_cycle_pairs),
            "undecided": len(self.undecided_pairs),
            "cpu_seconds": self.total_seconds,
        }
