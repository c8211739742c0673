"""Incremental ECO re-analysis: re-decide only what an edit touched.

A full detection run prices every surviving FF pair through the decide
stage even when the netlist changed by one gate.  This module runs the
launch-group fold *incrementally* against a prior run's cached pair
records:

1. **Topology and random simulation always run fresh.**  The random
   filter's outcome depends on the global RNG stream and round
   structure, so any netlist edit can shift which pairs it drops; both
   phases are cheap relative to decide and rerunning them keeps the
   merged result byte-identical to a full fresh run.
2. **Decide records are inherited by cone hash.**  A pair's decide
   record is a pure function of its ``(launch-cone-hash,
   capture-cone-hash, options-fingerprint)`` key (see
   :mod:`repro.circuit.structhash`): backward implications stay inside
   the capture FF's expanded fanin cones and forward propagation from a
   consistent launch assignment cannot conflict outside them.  Survivors
   whose key matches a prior record inherit its verdict and case list
   verbatim; only the changed subset is cut into work units and decided.
3. **Globally-sensitive options force a full re-decide.**  Static
   learning, the compiled implication DB and the SAT/BDD/cross-check
   engines read (or index) the whole circuit, so the options
   fingerprint mixes in the full structural hash whenever they are on —
   any edit then invalidates every prior record, which is sound (never
   wrong, merely slower).  The ``scoap`` engine is not among them: its
   decision order reads only SCOAP controllability, and a node's
   controllability depends only on its fanin cone, which the cone
   hashes already cover.
4. **Hazard verdicts inherit with the decide records** when the prior
   run used the same hazard options and hazard rules; otherwise
   inherited multi-cycle pairs are re-checked alongside the fresh ones.

The prior state travels as a *pair-record bundle* — a pickleable dict
the detector publishes to the artifact store after every run (kind
``"pair-records"``, addressed by the circuit's name-inclusive content
key plus the options fingerprint).  ``repro analyze --incremental-from
OLD.bench`` loads the bundle of the old netlist from the active store
and merges; the hypothesis differentials in
``tests/core/test_incremental.py`` pin the merged ``pair_records`` byte
for byte against full fresh runs and the staged reference flow.

:class:`IncrementalStage` is the fold of :mod:`repro.core.streaming`
with an inherit-or-decide filter: every launch group's survivors are
split into inherited records, folded at once, and fresh pairs, which
go through the same work units and executors as a full run.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro.circuit.netlist import Circuit
from repro.circuit.structhash import (
    capture_cone_hashes,
    launch_cone_hashes,
)
from repro.circuit.topology import FFPair
from repro.core.pipeline import AnalysisContext, DetectorOptions
from repro.core.result import (
    CaseOutcome,
    CaseResult,
    Classification,
    DetectionResult,
    PairResult,
    Stage,
)
from repro.core.streaming import Fold, StreamingStage
from repro.core.trace import ProgressFn, Tracer
from repro.store.artifact_store import ArtifactStore

#: prior records settled by these stages may be inherited; simulation
#: verdicts are always re-derived fresh.
_DECIDE_STAGES = frozenset({
    Stage.IMPLICATION.value, Stage.ATPG.value, Stage.DECISION.value,
})

#: engines whose records depend on global structure (expanded node ids
#: in witnesses, whole-circuit indices) — any edit forces a full
#: re-decide under them.
_GLOBAL_ENGINES = frozenset({"sat", "bdd", "cross-check"})

#: artifact kind of the persisted bundle.
BUNDLE_KIND = "pair-records"

#: version of the hazard rules, mixed into :func:`hazard_fingerprint`.
#: Bump it whenever a rule change can move a stored verdict or bound
#: under unchanged options, so older bundles re-check their pairs.
#: 2: co-sensitization through a MUX select takes no side constraint
#: (the old ``d0 != d1`` rule cleared some glitching pairs).
HAZARD_RULES = 2


def options_fingerprint(
    options: DetectorOptions, circuit: Circuit, frames: int = 2
) -> str:
    """Digest of every option that can influence a pair's decide record.

    Execution-shape options (workers, unit sizing, the backplane) are
    excluded — the differentials pin their record byte-identity.
    Simulation options are excluded too: the random
    filter reruns fresh on every incremental pass.  When a
    globally-sensitive feature is on (learned tables, the SAT/BDD
    engines) the circuit's structural hash is mixed in, so any edit
    invalidates every prior record.
    """
    parts = [
        f"frames={frames}",
        f"engine={options.search_engine}",
        f"backtrack={options.backtrack_limit}",
        f"static_learning={options.static_learning}",
        f"implication_db={options.implication_db}",
    ]
    globally_sensitive = (
        options.static_learning
        or options.implication_db
        or options.search_engine in _GLOBAL_ENGINES
    )
    if globally_sensitive:
        parts.append(f"struct={circuit.structural_hash()}")
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def hazard_fingerprint(options: DetectorOptions) -> str:
    """Digest of every option that can influence a pair's hazard verdict.

    Separate from :func:`options_fingerprint` on purpose: hazard
    options never touch decide records (the byte-identity invariant),
    so changing them must not invalidate decide inheritance — only the
    per-pair hazard verdicts.  For ``exact`` mode the SAT conflict
    budget and the delay sidecar's *content* are mixed in; a missing
    sidecar file hashes as absent (the run's hazard pass rejects it
    before any decide work).  :data:`HAZARD_RULES` is mixed in too.
    """
    parts = [
        f"rules={HAZARD_RULES}",
        f"mode={options.hazard_check}",
        f"backtrack={options.hazard_backtrack_limit}",
    ]
    if options.hazard_check == "exact":
        parts.append(f"conflict={options.hazard_conflict_limit}")
        if options.hazard_delays is not None:
            sidecar = Path(options.hazard_delays)
            digest = (
                hashlib.sha256(sidecar.read_bytes()).hexdigest()
                if sidecar.is_file()
                else "absent"
            )
            parts.append(f"delays={digest}")
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


# ----------------------------------------------------------------------
# Pair-record bundles.
# ----------------------------------------------------------------------
def result_bundle(
    result: DetectionResult,
    options: DetectorOptions,
    frames: int = 2,
) -> dict[str, object]:
    """The persistable prior-state bundle of one detection run.

    Per pair: names, the launch/capture cone hashes, and the full
    decide record (classification, stage, cases) in exactly the shape
    :meth:`DetectionResult.pair_records` exposes — plus the hazard
    verdict and its two static bounds when the hazard stage ran.
    """
    circuit = result.circuit
    names = circuit.names
    launch = launch_cone_hashes(circuit, frames)
    capture = capture_cone_hashes(circuit, frames)
    verdicts = {
        (v.pair.source, v.pair.sink): v for v in result.hazard_verdicts
    }
    records: list[dict[str, object]] = []
    for pair_result in result.pair_results:
        pair = pair_result.pair
        verdict = verdicts.get((pair.source, pair.sink))
        records.append({
            "source": names[pair.source],
            "sink": names[pair.sink],
            "launch": launch[pair.source],
            "capture": capture[pair.sink],
            "classification": pair_result.classification.value,
            "stage": pair_result.stage.value,
            "cases": [
                {
                    "a": case.a,
                    "b": case.b,
                    "outcome": case.outcome.value,
                    "decisions": case.decisions,
                    "backtracks": case.backtracks,
                    "witness": case.witness,
                }
                for case in pair_result.cases
            ],
            "hazard": None if verdict is None else {
                "verdict": verdict.verdict.value,
                "delay_safe": verdict.delay_safe,
                "sensitize_flagged": verdict.sensitize_flagged,
                "cosensitize_flagged": verdict.cosensitize_flagged,
            },
        })
    return {
        "circuit": circuit.name,
        "engine": result.engine,
        "frames": frames,
        "fingerprint": options_fingerprint(options, circuit, frames),
        "hazard_mode": result.hazard_mode,
        "hazard_fingerprint": hazard_fingerprint(options),
        "records": records,
    }


def bundle_address(
    store: ArtifactStore, circuit: Circuit, options: DetectorOptions,
    frames: int = 2,
) -> str:
    """Store address of a circuit's bundle under the given options."""
    return store.address(
        BUNDLE_KIND,
        circuit.content_key(include_names=True),
        extra=options_fingerprint(options, circuit, frames),
    )


def save_result_bundle(
    store: ArtifactStore,
    result: DetectionResult,
    options: DetectorOptions,
    frames: int = 2,
) -> None:
    """Publish a run's bundle so later ECO runs can inherit from it."""
    store.save(
        BUNDLE_KIND,
        bundle_address(store, result.circuit, options, frames),
        result_bundle(result, options, frames),
    )


def load_result_bundle(
    store: ArtifactStore,
    circuit: Circuit,
    options: DetectorOptions,
    frames: int = 2,
) -> dict[str, object] | None:
    """The prior bundle of ``circuit`` under ``options``, if published."""
    bundle = store.load(
        BUNDLE_KIND, bundle_address(store, circuit, options, frames)
    )
    if not isinstance(bundle, dict):
        return None
    return bundle


# ----------------------------------------------------------------------
# The incremental stage.
# ----------------------------------------------------------------------
class IncrementalStage(StreamingStage):
    """The launch-group fold with an inherit-or-decide filter.

    Topology and random simulation run fresh; each launch group's
    survivors whose cone-hash key matches a prior decide record inherit
    it (and, under matching hazard options, its hazard verdict), and
    the rest are decided exactly as in a full run.  :meth:`run` wraps
    the whole fold and counts survivors, inherited and re-decided pairs
    in the result's ``incremental`` metrics block.
    """

    def __init__(self, bundle: dict[str, object], frames: int = 2) -> None:
        super().__init__(frames=frames)
        self.bundle = bundle

    def run(self, ctx: AnalysisContext) -> DetectionResult:
        fold = Fold(ctx)
        self._counts = fold.metrics["incremental"] = {
            "survivors": 0, "inherited": 0, "re_decided": 0,
        }
        fingerprint = options_fingerprint(
            ctx.options, ctx.circuit, self.frames
        )
        self._prior: dict[tuple[str, str], dict[str, object]] = {}
        if self.bundle.get("fingerprint") == fingerprint and (
            self.bundle.get("frames") == self.frames
        ):
            for record in self.bundle.get("records", []):  # type: ignore[union-attr]
                self._prior[(record["source"], record["sink"])] = record
        self._hazard_inherits = self.bundle.get(
            "hazard_fingerprint"
        ) == hazard_fingerprint(ctx.options)
        self._launch = launch_cone_hashes(ctx.circuit, self.frames)
        self._capture = capture_cone_hashes(ctx.circuit, self.frames)
        return self._drive(fold)

    def select(self, fold: Fold, pairs: list[FFPair]) -> list[FFPair]:
        """Fold the pairs a prior record settles; return the rest."""
        names = fold.ctx.circuit.names
        fresh: list[FFPair] = []
        recheck: list[PairResult] = []
        for pair in pairs:
            record = self._prior.get((names[pair.source], names[pair.sink]))
            if (
                record is None
                or record["stage"] not in _DECIDE_STAGES
                or record["launch"] != self._launch[pair.source]
                or record["capture"] != self._capture[pair.sink]
            ):
                fresh.append(pair)
                continue
            result = _inherited_result(pair, record)
            fold.result(result, 0.0, fold.engine)
            if result.classification is Classification.MULTI_CYCLE and not (
                self._hazard_inherits and fold.hazard.adopt(pair, record)
            ):
                recheck.append(result)
        fold.hazard.check(recheck)
        self._counts["survivors"] += len(pairs)
        self._counts["inherited"] += len(pairs) - len(fresh)
        self._counts["re_decided"] += len(fresh)
        return fresh


def _inherited_result(pair: FFPair, record: dict[str, object]) -> PairResult:
    """A prior bundle record as this run's result for ``pair``."""
    return PairResult(
        pair,
        Classification(record["classification"]),
        Stage(record["stage"]),
        cases=[
            CaseResult(
                a=case["a"],
                b=case["b"],
                outcome=CaseOutcome(case["outcome"]),
                decisions=case["decisions"],
                backtracks=case["backtracks"],
                witness=case["witness"],
            )
            for case in record["cases"]  # type: ignore[union-attr]
        ],
    )


def incremental_detect(
    circuit: Circuit,
    options: DetectorOptions | None = None,
    bundle: dict[str, object] | None = None,
    tracer: Tracer | None = None,
    progress: ProgressFn | None = None,
) -> DetectionResult:
    """Detect multi-cycle pairs, inheriting from a prior run's bundle.

    With ``bundle=None`` (or a fingerprint mismatch) every surviving
    pair is re-decided — the result is then identical to a full run.
    The merged result's per-pair records are byte-identical to a fresh
    full run either way; ``result.metrics["incremental"]`` reports how
    much work was inherited.  When an artifact store is active the
    merged bundle is republished, so chains of ECOs keep inheriting.
    """
    from repro.analysis.lint import enforce
    from repro.store.runtime import resolve_cache_dir, store_enabled

    options = options or DetectorOptions()
    enforce(circuit, options.lint)
    ctx = AnalysisContext(circuit, options, tracer=tracer, progress=progress)
    cache_dir = resolve_cache_dir(options.cache_dir)
    with store_enabled(cache_dir, options.cache_max_bytes) as store:
        result = IncrementalStage(bundle or {}).run(ctx)
        if store is not None:
            save_result_bundle(store, result, options)
    return result
