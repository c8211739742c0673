"""Pipeline core: options, run context, result state and hazard pass.

The paper's Section 4.1 flow — topology → random simulation → per-pair
decision → (optional) hazard validation — runs as a :class:`Pipeline`
of :class:`PipelineStage` objects over an :class:`AnalysisContext`.
The one executor is the launch-group fold,
:class:`~repro.core.streaming.StreamingStage`; the incremental ECO stage
(:class:`~repro.core.incremental.IncrementalStage`) is the same fold
with an inherit-or-decide filter.  This module holds what they share:

* :class:`DetectorOptions`, the tuning knobs;
* :class:`AnalysisContext` — circuit, cached expansions and simulators,
  the run's persistent worker pool, tracer and progress callback;
* :class:`PipelineState` and the :class:`Pipeline` driver that turns it
  into a :class:`~repro.core.result.DetectionResult`;
* :class:`HazardPass`, the run's single hazard-validation pass;
* the session-counter merge and the shared-memory backplane hooks of
  the worker pool.

The decision procedure is pluggable (:mod:`repro.core.deciders`), and
every stage boundary and analyzed pair emits a structured trace event
(:mod:`repro.core.trace`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Sequence

from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion, expand_cached
from repro.circuit.topology import FFPair
from repro.core.deciders import PairDecider
from repro.core.workqueue import WorkStealingPool
from repro.logic.bitsim import BitSimulator
from repro.core.result import (
    Classification,
    DetectionResult,
    Disagreement,
    HazardVerdictKind,
    PairHazardVerdict,
    PairResult,
    Stage,
    StageStats,
)
from repro.core.trace import ProgressFn, Tracer


@dataclass
class DetectorOptions:
    """Tuning knobs for the pipeline (paper defaults)."""

    #: 64-bit words per random-simulation round (64*words patterns).
    sim_words: int = 4
    #: hard cap on simulation rounds.
    sim_max_rounds: int = 256
    #: random seed for the simulation stage (results are deterministic).
    sim_seed: int = 2002
    #: skip the random-simulation stage entirely (ablation).
    use_random_sim: bool = True
    #: ATPG backtrack limit; the paper used 50 (more for a few circuits).
    backtrack_limit: int = 50
    #: pre-compute SOCRATES-style global implications before ATPG.
    static_learning: bool = False
    #: use the compiled global implication database
    #: (:mod:`repro.analysis.implication_db`) as the deciders' learned
    #: table; built once per netlist version, transitively closed, and
    #: shipped to decision workers.  Takes precedence over
    #: ``static_learning`` when both are set.
    implication_db: bool = False
    #: structural lint policy applied before the pipeline runs:
    #: "off" (classic first-error validation), "warn" (full lint, reject
    #: errors, surface warnings), "strict" (reject warnings too).  The
    #: lint pass only validates — verdicts of an accepted circuit are
    #: identical across all three modes.
    lint: str = "off"
    #: analyse (FF, FF) self-loop pairs (the SAT baseline of [9] skipped them).
    include_self_loops: bool = True
    #: decision engine, by registry name (``repro.core.deciders``):
    #: "dalg" (paper's choice), "podem", "scoap", "sat", "bdd",
    #: "cross-check".
    search_engine: str = "dalg"
    #: worker processes for the decision stage (1 = in-process serial).
    workers: int = 1
    #: zero-copy shared-memory backplane for parallel decision workers:
    #: "auto"/"on" publish the expansion, CSR views, SimPlan, packed plan
    #: and implication DB once into ``multiprocessing.shared_memory`` so
    #: workers attach instead of rebuilding; "off" ships pickled
    #: arguments as before.  Verdicts and pair records are byte-identical
    #: in every mode; publishing is best-effort (a failure falls back to
    #: the pickled path).
    backplane: str = "auto"
    #: minimum surviving pairs before the decision stage actually shards;
    #: below it a ``workers > 1`` run falls back to in-process serial,
    #: because pool/dispatch overhead would dominate.
    parallel_threshold: int = 128
    #: pairs per decision work unit, in-process or on the worker pool
    #: (0 = automatic, see :func:`_auto_chunk_size`).
    chunk_pairs: int = 0
    #: hazard validation of detected multi-cycle pairs (Section 5):
    #: "off" (default) or "exact" (both static bounds plus a SAT
    #: decision of every pair they disagree on — see
    #: ``docs/hazards.md``).  Pair classifications and records are
    #: identical either way — the stage only annotates the result with
    #: one verdict per multi-cycle pair.
    hazard_check: str = "off"
    #: backtrack limit for the hazard stage's witness/path searches.
    hazard_backtrack_limit: int = 200
    #: conflict limit per SAT solve of the exact hazard decision; hitting
    #: it demotes the pair to the conservative "glitch-possible".
    hazard_conflict_limit: int = 100_000
    #: path of a per-gate min/max delay sidecar JSON (see
    #: :mod:`repro.sta.delays`); with "exact" mode it re-filters
    #: glitch-proven pairs to those whose pulse survives the delays.
    hazard_delays: str | None = None
    #: ignored: every run uses the launch-group fold.  The field stays
    #: because existing callers still pass it (the end-to-end benchmark
    #: workloads construct ``DetectorOptions(streaming="on")``).
    streaming: str = "auto"
    #: cap on pairs submitted to the decision worker pool but not yet
    #: folded (bounds parent-side memory on huge circuits).
    max_pairs_in_flight: int = 8192
    #: directory of the content-addressed on-disk artifact store
    #: (:mod:`repro.store`); ``None`` falls back to the
    #: ``REPRO_CACHE_DIR`` environment variable, and an empty result
    #: disables persistence (in-memory caches only).  Derived artifacts
    #: (SimPlan, reach matrices, implication DB, lint/sweep reports,
    #: pair-record bundles) round-trip through the store transparently;
    #: verdicts are identical with or without it.
    cache_dir: str | None = None
    #: size bound of the artifact store in bytes (LRU eviction beyond it).
    cache_max_bytes: int = 1 << 30


@dataclass
class AnalysisContext:
    """Everything a pipeline run needs: circuit, options, caches, clock.

    The context memoises k-frame expansions (via the circuit-level cache
    in :mod:`repro.circuit.timeframe`) and carries the optional tracer
    and progress callback.  ``clock`` is injectable so tests can produce
    fully deterministic traces.
    """

    circuit: Circuit
    options: DetectorOptions = field(default_factory=DetectorOptions)
    clock: Callable[[], float] = time.perf_counter
    tracer: Tracer | None = None
    progress: ProgressFn | None = None
    #: expansions adopted from a parent process (parallel workers).
    _adopted: dict[int, TimeFrameExpansion] = field(
        default_factory=dict, repr=False
    )
    #: cached bit simulators keyed by (words, circuit version).
    _simulators: dict[tuple, BitSimulator] = field(
        default_factory=dict, repr=False
    )
    #: persistent decision-worker pool (created lazily, closed with the run).
    _pool: WorkStealingPool | None = field(default=None, repr=False)

    def expansion(self, frames: int = 2) -> TimeFrameExpansion:
        """The shared ``frames``-frame expansion of the circuit (cached)."""
        adopted = self._adopted.get(frames)
        if adopted is not None:
            return adopted
        return expand_cached(self.circuit, frames)

    def adopt_expansion(self, expansion: TimeFrameExpansion) -> None:
        """Install an expansion computed elsewhere (worker processes)."""
        self._adopted[expansion.frames] = expansion

    def bit_simulator(self, words: int | None = None) -> BitSimulator:
        """A reusable :class:`BitSimulator` for this context.

        The simulator (buffers included) is cached, so every random-filter
        round and every stage asking for the same word width shares one
        instance; the compiled plan behind it is additionally cached on
        the circuit itself.
        """
        if words is None:
            words = self.options.sim_words
        key = (words, self.circuit.version)
        sim = self._simulators.get(key)
        if sim is None:
            sim = BitSimulator(self.circuit, words)
            self._simulators[key] = sim
        return sim

    def decision_pool(
        self,
        decider: PairDecider,
        expansion: TimeFrameExpansion,
        shared=None,
        publish=None,
    ) -> WorkStealingPool:
        """The run's persistent worker pool, created on first use.

        Workers build their :class:`AnalysisContext` and prepare the
        decider once, from the spawn arguments; ``shared`` (e.g. the
        parent-computed static-learning table) ships with them.
        Subsequent work units only carry pair lists.  Asking for a
        different decider/expansion/worker count replaces the pool.

        ``publish`` is the backplane hook: a zero-arg callable returning
        ``(backplane, worker_expansion, worker_shared)``, invoked only
        when a new pool is actually spawned (reusing a pool must not
        publish — and leak — another shared-memory block).  When it
        returns a backplane, workers receive its handle and attach
        instead of deserializing the pickled expansion/shared payloads.
        """
        workers = max(1, self.options.workers)
        key = (
            id(self.circuit),
            self.circuit.version,
            decider.name,
            expansion.frames,
            workers,
        )
        if self._pool is not None and self._pool.key != key:
            self._pool.shutdown()
            self._pool = None
        if self._pool is None:
            backplane = None
            worker_expansion, worker_shared = expansion, shared
            if publish is not None:
                backplane, worker_expansion, worker_shared = publish()
            self._pool = WorkStealingPool(
                self.circuit, self.options, decider, worker_expansion,
                workers, key, shared=worker_shared, backplane=backplane,
            )
        return self._pool

    def close(self) -> None:
        """Release run-scoped resources (the worker pool, if any)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def emit(self, event: str, **fields) -> None:
        """Forward one trace event to the tracer, if any."""
        if self.tracer is not None:
            self.tracer.emit(event, **fields)


@dataclass
class PipelineState:
    """Mutable run state threaded through the stages."""

    pairs: list[FFPair] = field(default_factory=list)
    results: list[PairResult] = field(default_factory=list)
    stats: dict[Stage, StageStats] = field(
        default_factory=lambda: {stage: StageStats() for stage in Stage}
    )
    connected_pairs: int = 0
    learned_implications: int = 0
    engine: str = "dalg"
    disagreements: list[Disagreement] = field(default_factory=list)
    #: decision-session counter totals (None for non-session engines).
    session: dict[str, int] | None = None
    #: implication-DB stats block (None when the DB was not enabled).
    implication_db: dict[str, float | int] | None = None
    #: packed-implication totals (None for non-session engines).
    packed_implication: dict[str, int] | None = None
    #: hazard-stage outcome (mode "off" when the stage was disabled):
    #: per-pair three-way verdicts and pass counters.
    hazard_mode: str = "off"
    hazard_verdicts: list[PairHazardVerdict] = field(default_factory=list)
    hazard_exact: dict[str, float | int] | None = None
    #: incremental re-analysis stats (set by the incremental stage only).
    incremental: dict[str, int] | None = None
    #: shared-memory backplane summary (None when none was published).
    backplane: dict | None = None


class PipelineStage(Protocol):
    """One step of the pipeline; reads and mutates the run state."""

    name: str

    def run(self, ctx: AnalysisContext, state: PipelineState) -> None: ...


def _emit_pair(
    ctx: AnalysisContext,
    state: PipelineState,
    result: PairResult,
    seconds: float,
    engine: str | None,
) -> None:
    """Emit the per-pair trace event and progress callback."""
    names = ctx.circuit.names
    record = {
        "stage": result.stage.value,
        "source": names[result.pair.source],
        "sink": names[result.pair.sink],
        "classification": result.classification.value,
        "seconds": round(seconds, 6),
    }
    if engine is not None:
        record["engine"] = engine
    if result.cases:
        record["cases"] = len(result.cases)
        record["decisions"] = sum(c.decisions for c in result.cases)
        record["backtracks"] = sum(c.backtracks for c in result.cases)
    if result.metrics:
        record.update(result.metrics)
    ctx.emit("pair", **record)
    if ctx.progress is not None:
        ctx.progress(len(state.results), state.connected_pairs, record)


def _auto_chunk_size(num_pairs: int, workers: int) -> int:
    """Default work-unit size.

    A unit fills at most one packed implication closure (``MAX_LANES //
    4`` = 512 pairs of four cases each), and a serial run uses exactly
    that.  A pool run aims for ~8 units per worker, so a slow unit cannot
    idle the other workers for long.
    """
    from repro.atpg.packed_implication import MAX_LANES

    cap = MAX_LANES // 4
    if workers <= 1:
        return cap
    return max(1, min(cap, -(-num_pairs // (workers * 8))))


def packed_summary(session: dict[str, int] | None) -> dict[str, int] | None:
    """Extract the packed-implication block from session counter totals.

    The decision session reports its lane-packing counters as
    ``packed_*`` keys (summed across workers by
    :func:`merge_session_stats`); this strips the prefix into the block
    stored on the result and emitted as the ``packed_implication`` trace
    event.  ``None`` for non-session engines.
    """
    if not session:
        return None
    prefix = "packed_"
    return {
        key[len(prefix):]: value
        for key, value in session.items()
        if key.startswith(prefix)
    }


def merge_session_stats(
    total: dict[str, int] | None, delta: dict[str, int] | None
) -> dict[str, int] | None:
    """Fold one work unit's session-counter delta into running totals.

    Counters sum across units; ``trail_high_water`` is each worker's
    running maximum (reported absolutely) and merges by max — together
    this makes the merged totals independent of unit→worker placement.
    """
    if delta is None:
        return total
    if total is None:
        return dict(delta)
    for key, value in delta.items():
        if key == "trail_high_water":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


def publish_backplane(ctx: AnalysisContext, expansion: TimeFrameExpansion,
                      shared) -> tuple:
    """Publish the decide-stage artifacts into shared memory (best-effort).

    Returns ``(backplane, worker_expansion, worker_shared)`` for the
    pool spawn: with a successful publish the expansion, its CSR views,
    SimPlan and packed plan travel in the block (workers get ``None``
    and attach), and an
    :class:`~repro.analysis.implication_db.ImplicationDB` shared table
    rides along the same way; anything else — mode "off", a non-DB
    shared payload, or a publish failure — keeps the pickled path.
    """
    mode = getattr(ctx.options, "backplane", "auto")
    if mode not in ("auto", "on", "off"):
        raise ValueError(f"unknown backplane mode {mode!r}")
    if mode == "off":
        return None, expansion, shared
    try:
        from repro.analysis.implication_db import ImplicationDB
        from repro.atpg.packed_implication import packed_plan
        from repro.circuit.csr import csr_arrays
        from repro.logic.simplan import compiled_plan
        from repro.store.backplane import publish

        comb = expansion.comb
        artifacts = [
            ("expansion", expansion),
            ("csr-arrays", csr_arrays(comb)),
            ("simplan", compiled_plan(comb)),
            ("packed-implication", packed_plan(comb)),
        ]
        worker_shared = shared
        if isinstance(shared, ImplicationDB):
            artifacts.append(("implication-db", shared))
            worker_shared = None
        return publish(artifacts), None, worker_shared
    except Exception:
        # Publishing is an optimization only: exhausted /dev/shm or a
        # codec error degrades to pickled shipping, never to a failure.
        return None, expansion, shared


def backplane_summary(pool: WorkStealingPool) -> dict | None:
    """Fold the workers' prepare reports into the backplane trace block.

    ``None`` when no backplane was published (mode "off", publish
    failure, or a serial run).  Must run before the pool shuts down.
    """
    if pool.backplane is None:
        return None
    ready = pool.wait_ready()
    return {
        "kinds": list(pool.backplane.kinds),
        "bytes": pool.backplane.nbytes,
        "workers": pool.workers,
        "ready": len(ready),
        "attached": sum(1 for entry in ready if entry["adopted"]),
        "spawn_seconds_max": round(
            max((entry["seconds"] for entry in ready), default=0.0), 6
        ),
        "worker_store_hits": sum(e["store_hits"] for e in ready),
        "worker_store_misses": sum(e["store_misses"] for e in ready),
        "worker_rss_max_kb": max(
            (entry["rss_kb"] for entry in ready), default=0
        ),
    }


def load_gate_delays(options: DetectorOptions, circuit: Circuit):
    """Load the exact-mode delay sidecar named by the options, if any."""
    if options.hazard_delays is None:
        return None
    from pathlib import Path

    from repro.sta.delays import GateDelays

    return GateDelays.load(Path(options.hazard_delays), circuit)


#: the ``DetectorOptions.hazard_check`` modes.
HAZARD_MODES = ("off", "exact")


class HazardPass:
    """Hazard validation of a run's multi-cycle pairs (Section 5).

    Built once per run, before any decide work, so an unknown
    ``options.hazard_check`` mode or a bad delay sidecar fails fast.
    The fold hands it each unit's fresh results (:meth:`check`), an
    incremental run the verdicts its prior bundle records
    (:meth:`adopt`), and :meth:`finish` fills the result's hazard
    fields and emits the ``hazard_stage`` trace event.  In mode
    ``"off"`` every call is a no-op.

    Mode ``"exact"`` classifies every multi-cycle pair as safe /
    glitch-possible / glitch-proven, with both static bounds recorded
    on its verdict (``docs/hazards.md``).  Classifications and
    ``pair_records`` are never modified: a flagged pair is only
    reported (it should not be timing-relaxed even though its
    settled-value MC condition holds).  The checker is built on first
    use over the context's cached 2-frame expansion, the deciders' own,
    so nothing is re-expanded.
    """

    def __init__(self, ctx: AnalysisContext) -> None:
        mode = ctx.options.hazard_check
        if mode not in HAZARD_MODES:
            raise ValueError(f"unknown hazard_check mode {mode!r}")
        self.ctx = ctx
        self.mode = mode
        # Read now, not at the first multi-cycle pair: a bad sidecar
        # must fail before any decide work, and on circuits without one.
        self.delays = (
            load_gate_delays(ctx.options, ctx.circuit) if mode == "exact" else None
        )
        self.seconds = 0.0
        self.verdicts: list[PairHazardVerdict] = []
        self._checker: Any = None

    def check(self, results: Sequence[PairResult]) -> None:
        """Check the multi-cycle pairs among ``results``."""
        if self.mode == "off":
            return
        pairs = [
            r for r in results
            if r.classification is Classification.MULTI_CYCLE
        ]
        if not pairs:
            return
        started = self.ctx.clock()
        if self._checker is None:
            from repro.analysis.hazard_exact import ExactHazardChecker

            self._checker = ExactHazardChecker.from_options(
                self.ctx.circuit,
                self.ctx.options,
                self.ctx.expansion(2),
                delays=self.delays,
            )
        self.verdicts.extend(self._checker.check_pairs(pairs))
        self.seconds += self.ctx.clock() - started

    def adopt(self, pair: FFPair, record: dict[str, Any]) -> bool:
        """Take one multi-cycle pair's verdict from a prior bundle record.

        Only valid when the prior run's hazard options match this run's.
        Returns ``False`` when the record holds no verdict; the caller
        then checks the pair instead.
        """
        if self.mode == "off":
            return True
        hazard = record.get("hazard")
        if hazard is None:
            return False
        self.verdicts.append(PairHazardVerdict(
            pair,
            HazardVerdictKind(hazard["verdict"]),
            "inherited",
            delay_safe=hazard["delay_safe"],
            sensitize_flagged=hazard["sensitize_flagged"],
            cosensitize_flagged=hazard["cosensitize_flagged"],
        ))
        return True

    def finish(self, state: PipelineState) -> None:
        """Fill the result's hazard fields and emit ``hazard_stage``."""
        state.hazard_mode = self.mode
        if self.mode == "off":
            return
        state.hazard_verdicts = sorted(
            self.verdicts, key=lambda v: (v.pair.source, v.pair.sink)
        )
        if self._checker is not None:
            state.hazard_exact = self._checker.summary()
        else:
            # No multi-cycle pair to check: a trivially complete pass.
            from repro.analysis.hazard_exact import empty_exact_summary

            state.hazard_exact = empty_exact_summary()
        self.ctx.emit(
            "hazard_stage",
            mode=self.mode,
            checked=len(self.verdicts),
            flagged=sum(1 for v in self.verdicts if v.flagged),
            seconds=round(self.seconds, 6),
            exact=state.hazard_exact,
        )


class Pipeline:
    """Runs its stages over one circuit, producing a :class:`DetectionResult`."""

    def __init__(self, stages: Sequence[PipelineStage]) -> None:
        self.stages = list(stages)

    def run(self, ctx: AnalysisContext) -> DetectionResult:
        from repro.store.runtime import active_store

        started = ctx.clock()
        state = PipelineState()
        store = active_store()
        store_before = store.stats() if store is not None else None
        ctx.emit(
            "run_start",
            circuit=ctx.circuit.name,
            engine=ctx.options.search_engine,
            workers=ctx.options.workers,
            stages=[stage.name for stage in self.stages],
        )
        try:
            for stage in self.stages:
                stage_started = ctx.clock()
                pairs_in = len(state.pairs)
                ctx.emit("stage_start", stage=stage.name, pairs_in=pairs_in)
                stage.run(ctx, state)
                ctx.emit(
                    "stage_end",
                    stage=stage.name,
                    pairs_in=pairs_in,
                    pairs_out=len(state.pairs),
                    results=len(state.results),
                    seconds=round(ctx.clock() - stage_started, 6),
                )
        finally:
            # The persistent worker pool is scoped to one run.
            ctx.close()
        state.results.sort(key=lambda r: (r.pair.source, r.pair.sink))
        cache_stats: dict[str, int] | None = None
        if store is not None and store_before is not None:
            cache_stats = {
                key: value - store_before.get(key, 0)
                for key, value in store.stats().items()
            }
            ctx.emit("cache", dir=str(store.root), **cache_stats)
        result = DetectionResult(
            circuit=ctx.circuit,
            connected_pairs=state.connected_pairs,
            pair_results=state.results,
            stats=state.stats,
            total_seconds=ctx.clock() - started,
            learned_implications=state.learned_implications,
            engine=state.engine,
            disagreements=state.disagreements,
            decision_session=state.session,
            implication_db=state.implication_db,
            packed_implication=state.packed_implication,
            hazard_mode=state.hazard_mode,
            hazard_verdicts=state.hazard_verdicts,
            hazard_exact=state.hazard_exact,
            cache=cache_stats,
            incremental=state.incremental,
            backplane=state.backplane,
        )
        ctx.emit(
            "run_end",
            circuit=ctx.circuit.name,
            engine=state.engine,
            connected_pairs=state.connected_pairs,
            multi_cycle=len(result.multi_cycle_pairs),
            single_cycle=len(result.single_cycle_pairs),
            undecided=len(result.undecided_pairs),
            disagreements=len(state.disagreements),
            seconds=round(result.total_seconds, 6),
        )
        return result
