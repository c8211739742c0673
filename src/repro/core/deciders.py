"""Pluggable pair-decision engines for the analysis pipeline.

A *decider* settles one surviving FF pair against the MC condition.  The
paper's engine — implication with an ATPG fallback — is one of several
registered implementations:

========== ===========================================================
``dalg``   implication + D-algorithm-style backtrack search (paper)
``podem``  implication + PODEM-style search (the alternative of §4.5)
``scoap``  ``dalg`` with SCOAP-guided decision ordering
``sat``    the CDCL SAT baseline of ref. [9], incremental encoding
``bdd``    the symbolic baseline of ref. [8] (assumed-reachable form)
``cross-check``  runs two engines per pair and flags disagreements
========== ===========================================================

All deciders share the protocol: construct cheap and picklable, then
``prepare(ctx)`` once per process (building engines from the context's
cached time-frame expansion) and ``decide(pair)`` per pair.  The split
is what makes the parallel executor work — unprepared deciders are
shipped to worker processes, which rebuild their engines locally from
the shared expansion.

Three optional extensions the pipeline probes with ``getattr``:

* ``decide_group(pairs) -> [(PairResult, seconds), ...]`` — settle a
  whole chunk at once; the implication/ATPG deciders use it to share
  launch prefixes across same-source pairs
  (:class:`~repro.core.session.DecisionSession`).
* ``prepare_shared(ctx)`` / ``adopt_shared(payload)`` — compute an
  expensive, process-independent artifact once in the parent (the
  static-learning table) and ship it through the worker-pool
  initializer instead of recomputing it in every worker.
* ``session_stats() -> dict`` — counter totals for the
  ``decision_session`` trace event.

Registering a new engine::

    @register_decider("my-engine")
    class MyDecider:
        frames = 2
        def __init__(self, name="my-engine"): self.name = name
        def prepare(self, ctx): ...
        def decide(self, pair) -> PairResult: ...
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

from repro.circuit.topology import FFPair
from repro.core.result import Classification, Disagreement, PairResult, Stage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import AnalysisContext


@runtime_checkable
class PairDecider(Protocol):
    """Decision procedure settling one FF pair on a shared expansion."""

    #: registry name (also used in trace events).
    name: str
    #: time frames the decider needs expanded (2 for the MC condition).
    frames: int

    def prepare(self, ctx: AnalysisContext) -> None:
        """Build per-process state (engines, encodings) from the context."""

    def decide(self, pair: FFPair) -> PairResult:
        """Classify one pair; must be deterministic and side-effect free
        with respect to other pairs."""


#: name -> factory taking the registry name (variants share a factory).
DECIDER_REGISTRY: dict[str, Callable[[str], "PairDecider"]] = {}


def register_decider(*names: str):
    """Class decorator registering a decider under one or more names."""

    def decorate(factory):
        for name in names:
            DECIDER_REGISTRY[name] = factory
        return factory

    return decorate


def available_engines() -> tuple[str, ...]:
    """Registered engine names, sorted (the CLI's ``--engine`` choices)."""
    return tuple(sorted(DECIDER_REGISTRY))


def create_decider(name: str) -> PairDecider:
    """Instantiate the decider registered under ``name``."""
    try:
        factory = DECIDER_REGISTRY[name]
    except KeyError:
        known = ", ".join(available_engines())
        raise ValueError(f"unknown engine {name!r}; available: {known}") from None
    return factory(name)


# ----------------------------------------------------------------------
# The paper's engine: implication + ATPG backtrack search.
# ----------------------------------------------------------------------
@register_decider("dalg", "podem", "scoap")
class ImplicationAtpgDecider:
    """Wraps :class:`~repro.core.session.DecisionSession`.

    The registry name selects the variant: ``dalg`` / ``podem`` pick the
    backtrack search, ``scoap`` is ``dalg`` with SCOAP-guided ordering.
    The session shares one array-backed implication engine across every
    pair and caches launch prefixes within same-source groups.
    ``frames`` is the session's ``k``: the sink must hold through
    ``t+frames`` (2, the MC condition, for every registered name).
    """

    def __init__(self, name: str = "dalg", frames: int = 2) -> None:
        #: the name trace events report; :attr:`search` picks the search.
        self.name = name
        self.search = name
        self.frames = frames
        self.learned_implications = 0
        self._shared_learned = None
        #: stats block of the compiled implication DB, when one is used.
        self.db_info: dict | None = None

    def prepare_shared(self, ctx: AnalysisContext):
        """Learned table, computed once in the parent process.

        With ``options.implication_db`` this is the compiled global
        :class:`~repro.analysis.implication_db.ImplicationDB` (cached on
        the expanded circuit, so repeated runs reuse it); otherwise the
        legacy per-key static-learning table, when enabled.  The DB takes
        precedence when both options are set.
        """
        if ctx.options.implication_db:
            from repro.analysis.implication_db import implication_db

            db = implication_db(ctx.expansion(self.frames).comb)
            self.db_info = db.stats()
            return db
        if not ctx.options.static_learning:
            return None
        from repro.atpg.learning import learn_static_implications

        return learn_static_implications(ctx.expansion(self.frames).comb)

    def adopt_shared(self, payload) -> None:
        """Install a table shipped through the worker-pool initializer."""
        self._shared_learned = payload

    def prepare(self, ctx: AnalysisContext) -> None:
        from repro.atpg.learning import count_learned, learn_static_implications
        from repro.core.session import DecisionSession

        options = ctx.options
        expansion = ctx.expansion(self.frames)
        learned = self._shared_learned
        if learned is None and options.implication_db:
            from repro.analysis.implication_db import implication_db

            learned = implication_db(expansion.comb)
        elif learned is None and options.static_learning:
            learned = learn_static_implications(expansion.comb)
        if learned is not None:
            self.learned_implications = count_learned(learned)
            stats_fn = getattr(learned, "stats", None)
            if stats_fn is not None:
                self.db_info = stats_fn()
        self._session = DecisionSession(
            expansion,
            k=self.frames,
            backtrack_limit=options.backtrack_limit,
            learned=learned,
            search_engine=self.search,
            clock=ctx.clock,
        )

    def decide(self, pair: FFPair) -> PairResult:
        return self._session.decide(pair)

    def decide_group(self, pairs):
        return self._session.decide_group(pairs)

    def session_stats(self) -> dict[str, int]:
        return self._session.stats()


# ----------------------------------------------------------------------
# The SAT baseline of ref. [9] as a decider.
# ----------------------------------------------------------------------
@register_decider("sat")
class SatDecider:
    """Adapts :class:`~repro.sat.mc_sat.SatMcDetector` (incremental mode).

    The Tseitin encoding is built once per process in :meth:`prepare`
    over the context's shared 2-frame expansion; each pair is a single
    assumption-based solve.
    """

    frames = 2

    def __init__(self, name: str = "sat") -> None:
        self.name = name

    def prepare(self, ctx: AnalysisContext) -> None:
        from repro.sat.mc_sat import SatMcDetector

        self._detector = SatMcDetector(
            ctx.circuit,
            include_self_loops=ctx.options.include_self_loops,
            mode="incremental",
            expansion=ctx.expansion(self.frames),
        )

    def decide(self, pair: FFPair) -> PairResult:
        result = self._detector.analyze(pair)
        if result.unknown:
            return PairResult(pair, Classification.UNDECIDED, Stage.DECISION)
        classification = (
            Classification.MULTI_CYCLE
            if result.is_multi_cycle
            else Classification.SINGLE_CYCLE
        )
        return PairResult(pair, classification, Stage.DECISION)


# ----------------------------------------------------------------------
# The symbolic baseline of ref. [8] as a decider.
# ----------------------------------------------------------------------
@register_decider("bdd")
class BddDecider:
    """Adapts :class:`~repro.bdd.traversal.BddMcDetector`.

    Node BDDs are built once per process; each pair is two XORs and a
    conjunction.  Assumed-reachable form (no traversal), matching the
    other deciders' state assumption.  Undecidable blow-ups surface as
    :class:`~repro.bdd.traversal.BddLimitExceeded` from ``prepare``.
    """

    frames = 2

    def __init__(self, name: str = "bdd") -> None:
        self.name = name

    def prepare(self, ctx: AnalysisContext) -> None:
        from repro.bdd.traversal import BddMcDetector

        self._detector = BddMcDetector(ctx.circuit, use_reachability=False)
        self._detector.prepare(expansion=ctx.expansion(self.frames))

    def decide(self, pair: FFPair) -> PairResult:
        result = self._detector.analyze(pair)
        classification = (
            Classification.MULTI_CYCLE
            if result.is_multi_cycle
            else Classification.SINGLE_CYCLE
        )
        return PairResult(pair, classification, Stage.DECISION)


# ----------------------------------------------------------------------
# Cross-checking decider: two engines per pair, disagreements flagged.
# ----------------------------------------------------------------------
@register_decider("cross-check")
class CrossCheckDecider:
    """Runs a primary and a secondary engine on every pair.

    The primary's verdict is returned (so stage attribution and case
    records stay meaningful); whenever both engines reach a definite
    classification and they differ, a :class:`Disagreement` is recorded
    in :attr:`disagreements` and surfaced as a trace event by the
    pipeline.  The default pairing — implication/ATPG against SAT —
    mirrors the paper's Table 1 comparison, pair by pair.
    """

    frames = 2

    def __init__(
        self,
        name: str = "cross-check",
        primary: str = "dalg",
        secondary: str = "sat",
    ) -> None:
        self.name = name
        self.primary_name = primary
        self.secondary_name = secondary
        self.disagreements: list[Disagreement] = []
        self._shared = None
        self.db_info: dict | None = None

    def prepare_shared(self, ctx: AnalysisContext):
        """Delegate to the primary engine's shared pre-pass, if it has one."""
        primary = create_decider(self.primary_name)
        shared_fn = getattr(primary, "prepare_shared", None)
        shared = shared_fn(ctx) if shared_fn is not None else None
        self.db_info = getattr(primary, "db_info", None)
        return shared

    def adopt_shared(self, payload) -> None:
        self._shared = payload

    def prepare(self, ctx: AnalysisContext) -> None:
        self._primary = create_decider(self.primary_name)
        self._secondary = create_decider(self.secondary_name)
        if self._shared is not None:
            adopt = getattr(self._primary, "adopt_shared", None)
            if adopt is not None:
                adopt(self._shared)
        self._primary.prepare(ctx)
        self._secondary.prepare(ctx)
        self.learned_implications = getattr(
            self._primary, "learned_implications", 0
        )
        if self.db_info is None:
            self.db_info = getattr(self._primary, "db_info", None)

    def decide(self, pair: FFPair) -> PairResult:
        first = self._primary.decide(pair)
        second = self._secondary.decide(pair)
        decided = Classification.UNDECIDED
        if (
            first.classification is not decided
            and second.classification is not decided
            and first.classification is not second.classification
        ):
            self.disagreements.append(
                Disagreement(
                    pair=pair,
                    primary_engine=self.primary_name,
                    primary=first.classification,
                    secondary_engine=self.secondary_name,
                    secondary=second.classification,
                )
            )
        return first
