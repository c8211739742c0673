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
5. **Witnesses inherit only under the same input layout.**  A violated
   case's witness maps the expansion's input node ids to values.  An
   edit that adds a node can shift those ids, so a row with a witness
   is inherited only when the bundle's :func:`witness_layout` digest is
   this run's; otherwise its pair is re-decided.

The prior state travels as a *pair-record bundle*, the columns of a
:class:`~repro.store.codecs.PairRecordBundle` that the detector
publishes to the artifact store after every run (kind
``"pair-records"``, written as they are by its flat-buffer codec and
addressed by the circuit's name-inclusive content key plus the options
fingerprint).  ``repro analyze --incremental-from OLD.bench`` loads
the bundle of the old netlist from the active store and merges; the
hypothesis differentials in
``tests/core/test_incremental.py`` pin the merged ``pair_records`` byte
for byte against full fresh runs and the staged reference flow, and
those of ``tests/core/test_bundle_oracle.py`` pin the columns against
the record-dict bundle of earlier releases.

:class:`IncrementalStage` is the fold of :mod:`repro.core.streaming`
with an inherit-or-decide filter: every launch group's survivors are
split into pairs a prior row settles, folded at once, and fresh pairs,
which go through the same work units and executors as a full run.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.circuit.csr import csr_arrays
from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import expand_cached
from repro.circuit.structhash import (
    capture_cone_hashes,
    launch_cone_hashes,
)
from repro.circuit.topology import FFPair
from repro.core.pipeline import (
    HAZARD_BACKTRACK_LIMIT,
    AnalysisContext,
    DetectorOptions,
    InheritedHazard,
)
from repro.core.result import (
    CaseOutcome,
    CaseResult,
    Classification,
    DetectionResult,
    HazardVerdictKind,
    PairResult,
    Stage,
)
from repro.core.streaming import Fold, StreamingStage
from repro.core.trace import ProgressFn, Tracer
from repro.store.artifact_store import ArtifactStore
from repro.store.codecs import HAZARD_FIELDS, PairRecordBundle

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

    Execution-shape options (workers, the backplane) are excluded — the
    differentials pin their record byte-identity.
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
    before any decide work).  :data:`HAZARD_RULES` is mixed in too, and
    so is the path-search budget, a constant now: bundles published
    while it was an option keep matching.
    """
    parts = [
        f"rules={HAZARD_RULES}",
        f"mode={options.hazard_check}",
        f"backtrack={HAZARD_BACKTRACK_LIMIT}",
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


def witness_layout(circuit: Circuit, frames: int = 2) -> str:
    """Digest of the input ids that case witnesses are keyed by.

    A witness maps the ``frames``-frame expansion's input node ids to
    values; two runs' witnesses name the same inputs exactly when the
    expansion's input names, in id order, are the same.
    """
    comb = expand_cached(circuit, frames).comb
    names = comb.names
    return hashlib.sha256(
        "\x1f".join(names[node] for node in csr_arrays(comb).inputs).encode()
    ).hexdigest()


# ----------------------------------------------------------------------
# Pair-record bundles.
# ----------------------------------------------------------------------
def result_bundle(
    result: DetectionResult,
    options: DetectorOptions,
    frames: int = 2,
) -> PairRecordBundle:
    """The persistable prior-state bundle of one detection run.

    Per pair: the fields :meth:`DetectionResult.pair_records` writes
    (names, classification, stage, cases), plus the launch/capture cone
    hashes and, when the hazard stage ran, the hazard verdict and its
    two static bounds, as the columns of a
    :class:`~repro.store.codecs.PairRecordBundle`.
    """
    circuit = result.circuit
    names = circuit.names
    launch = launch_cone_hashes(circuit, frames)
    capture = capture_cone_hashes(circuit, frames)
    results = result.pair_results
    pairs = [r.pair for r in results]
    cases = [case for r in results for case in r.cases]
    by_pair = {v.pair: v for v in result.hazard_verdicts}
    hazards = [by_pair.get(pair) for pair in pairs]
    # ``_value_`` is the member's value as a plain attribute; the
    # ``value`` property costs a descriptor call per case.
    columns = {
        "names": [names[p.source] for p in pairs]
        + [names[p.sink] for p in pairs],
        "hashes": [launch[p.source] for p in pairs]
        + [capture[p.sink] for p in pairs],
        "classification": [r.classification._value_ for r in results],
        "stage": [r.stage._value_ for r in results],
        "outcome": [case.outcome._value_ for case in cases],
        "verdict": [None if v is None else v.verdict.value for v in hazards],
        **{
            name: [None if v is None else getattr(v, name) for v in hazards]
            for name in HAZARD_FIELDS[1:]
        },
        "a": [case.a for case in cases],
        "b": [case.b for case in cases],
        "decisions": [case.decisions for case in cases],
        "backtracks": [case.backtracks for case in cases],
    }
    fields = {
        "circuit": circuit.name,
        "engine": result.engine,
        "frames": frames,
        "fingerprint": options_fingerprint(options, circuit, frames),
        "hazard_mode": result.hazard_mode,
        "hazard_fingerprint": hazard_fingerprint(options),
        "witness_layout": witness_layout(circuit, frames),
    }
    return PairRecordBundle.from_columns(
        fields,
        columns,
        [len(r.cases) for r in results],
        {i: case.witness for i, case in enumerate(cases)
         if case.witness is not None},
    )


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
) -> PairRecordBundle | None:
    """The prior bundle of ``circuit`` under ``options``, if published."""
    bundle = store.load(
        BUNDLE_KIND, bundle_address(store, circuit, options, frames)
    )
    if not isinstance(bundle, PairRecordBundle):
        return None
    return bundle


# ----------------------------------------------------------------------
# The incremental stage.
# ----------------------------------------------------------------------
class _PriorRows:
    """The rows of a prior bundle that this run's pairs inherit.

    :attr:`rows` maps ``(source, sink)`` node ids to the bundle row of
    every decide-stage record whose names and cone hashes match this
    circuit, leaving out rows with a witness when the bundle's
    :func:`witness_layout` is not this run's (a bundle without one
    counts as another layout).  Enum members are looked up once per
    table entry and the columns read into lists once, so :meth:`result`
    and :meth:`hazard` only index.
    """

    def __init__(
        self, bundle: PairRecordBundle, circuit: Circuit, frames: int
    ) -> None:
        tables, arrays = bundle.tables, bundle.arrays
        count = len(arrays["stage"])
        # One node-id lookup per name-table entry, one hash-code lookup
        # per FF digest.
        node = [circuit.id_of(name) if name in circuit else None
                for name in tables["names"]]
        code = {digest: i for i, digest in enumerate(tables["hashes"])}
        launch = {ff: code.get(digest) for ff, digest
                  in launch_cone_hashes(circuit, frames).items()}
        capture = {ff: code.get(digest) for ff, digest
                   in capture_cone_hashes(circuit, frames).items()}
        decide = [stage in _DECIDE_STAGES for stage in tables["stage"]]
        stale: set[int] = set()
        if len(arrays["witnessed"]) and bundle.fields.get(
            "witness_layout"
        ) != witness_layout(circuit, frames):
            stale = set((np.searchsorted(
                arrays["case_offsets"], arrays["witnessed"], side="right"
            ) - 1).tolist())
        names, hashes = arrays["names"].tolist(), arrays["hashes"].tolist()
        self.rows = {}
        for row, stage in enumerate(arrays["stage"].tolist()):
            source, sink = node[names[row]], node[names[count + row]]
            if decide[stage] and launch.get(source) == hashes[row] and (
                capture.get(sink) == hashes[count + row]
            ) and row not in stale:
                self.rows[(source, sink)] = row

        def column(name: str, kind: type | None = None) -> list:
            """A coded column's values, as ``kind`` members if given."""
            table = [
                value if kind is None or value is None else kind(value)
                for value in tables[name]
            ]
            return [table[code] for code in arrays[name].tolist()]

        self.classes = column("classification", Classification)
        self.stages = column("stage", Stage)
        #: per row, its hazard verdict and flags (a ``None`` verdict:
        #: the row holds none).
        self.hazards = list(zip(
            column("verdict", HazardVerdictKind),
            *map(column, HAZARD_FIELDS[1:]),
        ))
        witnesses: list[dict[int, int] | None] = [None] * len(arrays["outcome"])
        offsets = arrays["witness_offsets"].tolist()
        flat = arrays["witness_flat"].tolist()
        for k, case in enumerate(arrays["witnessed"].tolist()):
            row = flat[offsets[k]: offsets[k + 1]]
            witnesses[case] = dict(zip(row[::2], row[1::2]))
        #: per case, its :class:`CaseResult`; equal witness-less cases
        #: share one frozen record.
        self.cases: list[CaseResult] = []
        shared: dict[tuple, CaseResult] = {}
        for args in zip(
            arrays["a"].tolist(), arrays["b"].tolist(),
            column("outcome", CaseOutcome),
            arrays["decisions"].tolist(), arrays["backtracks"].tolist(),
            witnesses,
        ):
            if args[5] is None:
                case = shared.get(args)
                if case is None:
                    case = shared[args] = CaseResult(*args)
            else:
                case = CaseResult(*args)
            self.cases.append(case)
        self.offsets = arrays["case_offsets"].tolist()

    def result(self, pair: FFPair, row: int) -> PairResult:
        """Row ``row`` as this run's result for ``pair``."""
        return PairResult(
            pair, self.classes[row], self.stages[row],
            cases=self.cases[self.offsets[row]: self.offsets[row + 1]],
        )

    def hazard(self, row: int) -> InheritedHazard | None:
        """Row ``row``'s hazard verdict and its flags, if it has one."""
        hazard = self.hazards[row]
        return None if hazard[0] is None else hazard


class IncrementalStage(StreamingStage):
    """The launch-group fold with an inherit-or-decide filter.

    Topology and random simulation run fresh; each launch group's
    survivors whose cone-hash key matches a prior decide record inherit
    it (and, under matching hazard options, its hazard verdict), and
    the rest are decided exactly as in a full run.  :meth:`run` wraps
    the whole fold and counts survivors, inherited and re-decided pairs
    in the result's ``incremental`` metrics block.
    """

    def __init__(
        self, bundle: PairRecordBundle | None, frames: int = 2
    ) -> None:
        super().__init__(frames=frames)
        self.bundle = bundle

    def run(self, ctx: AnalysisContext) -> DetectionResult:
        fold = Fold(ctx)
        self._counts = fold.metrics["incremental"] = {
            "survivors": 0, "inherited": 0, "re_decided": 0,
        }
        bundle = self.bundle
        fields = {} if bundle is None else bundle.fields
        self._prior: _PriorRows | None = None
        if bundle is not None and fields.get("fingerprint") == (
            options_fingerprint(ctx.options, ctx.circuit, self.frames)
        ) and fields.get("frames") == self.frames:
            self._prior = _PriorRows(bundle, ctx.circuit, self.frames)
        self._hazard_inherits = fields.get(
            "hazard_fingerprint"
        ) == hazard_fingerprint(ctx.options)
        return self._drive(fold)

    def select(self, fold: Fold, pairs: list[FFPair]) -> list[FFPair]:
        """Fold the pairs a prior record settles; return the rest."""
        prior = self._prior
        rows = {} if prior is None else prior.rows
        fresh: list[FFPair] = []
        recheck: list[PairResult] = []
        for pair in pairs:
            row = rows.get(pair)
            if row is None:
                fresh.append(pair)
                continue
            result = prior.result(pair, row)
            fold.result(result, 0.0, fold.engine)
            if result.classification is Classification.MULTI_CYCLE and not (
                self._hazard_inherits
                and fold.hazard.adopt(pair, prior.hazard(row))
            ):
                recheck.append(result)
        fold.hazard.check(recheck)
        self._counts["survivors"] += len(pairs)
        self._counts["inherited"] += len(pairs) - len(fresh)
        self._counts["re_decided"] += len(fresh)
        return fresh


def incremental_detect(
    circuit: Circuit,
    options: DetectorOptions | None = None,
    bundle: PairRecordBundle | None = None,
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
        result = IncrementalStage(bundle).run(ctx)
        if store is not None:
            save_result_bundle(store, result, options)
    return result
