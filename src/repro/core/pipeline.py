"""Pipeline core: options, run context and hazard pass.

The paper's Section 4.1 flow — topology → random simulation → per-pair
decision → (optional) hazard validation — runs as the launch-group
fold, :class:`~repro.core.streaming.StreamingStage`, over an
:class:`AnalysisContext`; the incremental ECO stage
(:class:`~repro.core.incremental.IncrementalStage`) is the same fold
with an inherit-or-decide filter.  This module holds what they share:

* :class:`DetectorOptions`, the tuning knobs;
* :class:`AnalysisContext` — circuit, cached expansions and simulators,
  the run's persistent worker pool, tracer and progress callback;
* :class:`HazardPass`, the run's single hazard-validation pass;
* the session-counter merge and the shared-memory backplane hooks of
  the worker pool.

The decision procedure is pluggable (:mod:`repro.core.deciders`), and
every run phase and analyzed pair emits a structured trace event
(:mod:`repro.core.trace`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.circuit.netlist import Circuit
from repro.circuit.timeframe import TimeFrameExpansion, expand_cached
from repro.circuit.topology import FFPair
from repro.core.deciders import PairDecider, available_engines
from repro.core.workqueue import WorkStealingPool
from repro.logic.bitsim import BitSimulator
from repro.core.result import (
    Classification,
    HazardVerdictKind,
    PairHazardVerdict,
    PairResult,
)
from repro.core.trace import ProgressFn, Tracer

#: the ``DetectorOptions.hazard_check`` modes.
HAZARD_MODES = ("off", "exact")

#: the ``DetectorOptions.backplane`` modes.
BACKPLANE_MODES = ("auto", "off")

#: backtrack limit of the hazard stage's witness/path searches.
HAZARD_BACKTRACK_LIMIT = 200

#: a hazard verdict a prior bundle row carries: the verdict, the delay
#: filter's outcome and the two static bounds (sensitize, co-sensitize).
InheritedHazard = tuple[HazardVerdictKind, bool | None, bool, bool]


@dataclass(frozen=True)
class DetectorOptions:
    """Tuning knobs for the pipeline (paper defaults).

    Frozen: derive a variant with :func:`dataclasses.replace`.  The
    enumerated fields (``search_engine``, ``hazard_check``, ``lint``,
    ``backplane``) and the counts (``sim_words``, ``workers``,
    ``backtrack_limit``, ``cache_max_bytes``) are checked at
    construction, so a bad value raises :class:`ValueError` before any
    run starts.
    """

    #: 64-bit words per random-simulation round (64*words patterns).
    sim_words: int = 4
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
    #: worker processes for the decision stage (1 = in-process serial;
    #: a run with fewer than 128 pairs to decide also stays in-process,
    #: see ``PARALLEL_THRESHOLD`` in :mod:`repro.core.streaming`).
    workers: int = 1
    #: zero-copy shared-memory backplane for parallel decision workers:
    #: "auto" publishes the expansion, CSR views, packed plan and
    #: implication DB once into ``multiprocessing.shared_memory`` so
    #: workers attach instead of rebuilding; "off" ships pickled
    #: arguments as before.  Verdicts and pair records are byte-identical
    #: in both modes; publishing is best-effort (a failure falls back to
    #: the pickled path).
    backplane: str = "auto"
    #: hazard validation of detected multi-cycle pairs (Section 5):
    #: "off" (default) or "exact" (both static bounds plus a SAT
    #: decision of every pair they disagree on — see
    #: ``docs/hazards.md``).  Pair classifications and records are
    #: identical either way — the stage only annotates the result with
    #: one verdict per multi-cycle pair.
    hazard_check: str = "off"
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
    #: directory of the content-addressed on-disk artifact store
    #: (:mod:`repro.store`); ``None`` falls back to the
    #: ``REPRO_CACHE_DIR`` environment variable, and an empty result
    #: disables persistence (in-memory caches only).  Derived artifacts
    #: (SimPlan, reach matrices, implication DB, pair-record bundles)
    #: round-trip through the store transparently; verdicts are
    #: identical with or without it.
    cache_dir: str | None = None
    #: size bound of the artifact store in bytes (LRU eviction beyond it).
    cache_max_bytes: int = 1 << 30

    def __post_init__(self) -> None:
        from repro.analysis.lint import LINT_MODES

        for name, allowed in (
            ("search_engine", available_engines()),
            ("hazard_check", HAZARD_MODES),
            ("lint", LINT_MODES),
            ("backplane", BACKPLANE_MODES),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"unknown {name} {value!r}; expected one of "
                    + ", ".join(allowed)
                )
        for name, minimum in (
            ("sim_words", 1), ("workers", 1), ("backtrack_limit", 0),
            ("cache_max_bytes", 1),
        ):
            value = getattr(self, name)
            if value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value}")


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
        """The run's worker pool, spawned on first use.

        Workers build their :class:`AnalysisContext` and prepare the
        decider once, from the spawn arguments; ``shared`` (e.g. the
        parent-computed static-learning table) ships with them.
        Subsequent work units only carry pair lists.  A fold asks for
        one pool, and :meth:`close` ends it.

        ``publish`` is the backplane hook: a zero-arg callable returning
        ``(backplane, worker_expansion, worker_shared)``, invoked only
        when the pool is spawned.  When it returns a backplane, workers
        receive its handle and attach instead of deserializing the
        pickled expansion/shared payloads.
        """
        if self._pool is None:
            backplane = None
            worker_expansion, worker_shared = expansion, shared
            if publish is not None:
                backplane, worker_expansion, worker_shared = publish()
            self._pool = WorkStealingPool(
                self.circuit, self.options, decider, worker_expansion,
                self.options.workers, shared=worker_shared,
                backplane=backplane,
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


def packed_summary(session: dict[str, int] | None) -> dict[str, int] | None:
    """Extract the packed-implication block from session counter totals.

    The decision session reports its lane-packing counters as
    ``packed_*`` keys (summed across workers by
    :func:`merge_session_stats`); this strips the prefix into the
    result's ``packed_implication`` metrics block.  ``None`` for
    non-session engines.
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
    pool spawn: with a successful publish the expansion, its CSR views
    and its packed plan (lowered from those views) travel in the block
    (workers get ``None`` and attach), and an
    :class:`~repro.analysis.implication_db.ImplicationDB` shared table
    rides along the same way; anything else — mode "off", a non-DB
    shared payload, or a publish failure — keeps the pickled path.
    """
    if ctx.options.backplane == "off":
        return None, expansion, shared
    try:
        from repro.analysis.implication_db import ImplicationDB
        from repro.atpg.packed_implication import packed_plan
        from repro.circuit.csr import csr_arrays
        from repro.store.backplane import publish

        comb = expansion.comb
        artifacts = [
            ("expansion", expansion),
            ("csr-arrays", csr_arrays(comb)),
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
    """Fold the workers' prepare reports into the ``backplane`` block.

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


class HazardPass:
    """Hazard validation of a run's multi-cycle pairs (Section 5).

    Built once per run, before any decide work, so a bad delay sidecar
    fails fast.  The fold hands it each unit's fresh results
    (:meth:`check_unit`), an incremental run the verdicts its prior
    bundle rows hold (:meth:`adopt`) and the inherited pairs it must
    re-check (:meth:`check`), and :meth:`finish` records the
    ``hazard_exact`` block and emits the ``hazard_stage`` trace event.
    In mode ``"off"`` every call is a no-op.

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
        self.ctx = ctx
        self.mode = ctx.options.hazard_check
        # Read now, not at the first multi-cycle pair: a bad sidecar
        # must fail before any decide work, and on circuits without one.
        self.delays = (
            load_gate_delays(ctx.options, ctx.circuit)
            if self.mode == "exact"
            else None
        )
        self.seconds = 0.0
        self.verdicts: list[PairHazardVerdict] = []
        self._checker: Any = None
        #: units settled ahead of :attr:`_next_unit`, by unit index
        self._held: dict[int, Sequence[PairResult]] = {}
        self._next_unit = 0

    def check_unit(self, index: int, results: Sequence[PairResult]) -> None:
        """Check unit ``index``'s results once every earlier unit's are.

        A pool settles units in completion order, but the solver is
        incremental, so a SAT witness (and the ``delay_safe`` read off
        it) depends on the pairs solved before it.  Units are checked in
        submission order, which makes a pool run's verdicts the serial
        run's.
        """
        if self.mode == "off":
            return
        held = self._held
        held[index] = results
        while self._next_unit in held:
            self.check(held.pop(self._next_unit))
            self._next_unit += 1

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

    def adopt(self, pair: FFPair, hazard: InheritedHazard | None) -> bool:
        """Take one multi-cycle pair's verdict from a prior bundle row.

        Only valid when the prior run's hazard options match this run's.
        Returns ``False`` when the row holds no verdict; the caller then
        checks the pair instead.
        """
        if self.mode == "off":
            return True
        if hazard is None:
            return False
        verdict, delay_safe, sensitize, cosensitize = hazard
        self.verdicts.append(PairHazardVerdict(
            pair,
            verdict,
            "inherited",
            delay_safe=delay_safe,
            sensitize_flagged=sensitize,
            cosensitize_flagged=cosensitize,
        ))
        return True

    def finish(self, metrics: dict[str, dict]) -> None:
        """Sort the verdicts, record ``hazard_exact``, emit ``hazard_stage``."""
        if self.mode == "off":
            return
        self.verdicts.sort(key=lambda v: (v.pair.source, v.pair.sink))
        if self._checker is not None:
            metrics["hazard_exact"] = self._checker.summary()
        else:
            # No multi-cycle pair to check: a trivially complete pass.
            from repro.analysis.hazard_exact import empty_exact_summary

            metrics["hazard_exact"] = empty_exact_summary()
        self.ctx.emit(
            "hazard_stage",
            mode=self.mode,
            checked=len(self.verdicts),
            flagged=sum(1 for v in self.verdicts if v.flagged),
            seconds=round(self.seconds, 6),
        )
