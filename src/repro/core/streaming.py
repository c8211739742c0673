"""The launch-group fold: the one executor of the paper's flow.

The paper's Section 4.1 flow — connected pairs → random simulation →
implication/ATPG → hazard check — runs as one call,
:meth:`StreamingStage.run`, that never materializes the full pair list
and returns the :class:`~repro.core.result.DetectionResult` its
:class:`Fold` builds:

1. **Topology** lives in the packed sink-reach matrix
   (:func:`~repro.circuit.topology.sink_reach`, built in fixed-size
   source blocks above a size threshold) and is enumerated one launching
   FF at a time by :func:`~repro.circuit.topology.iter_launch_groups`.
2. **Random simulation** is a single global pass — the paper's
   quiet-round stopping rule depends on the whole alive set, so a
   per-group filter would change stage attribution.  It runs over the
   packed pair matrix (:func:`~repro.core.random_filter.random_filter_packed`)
   sharing the exact super-round/RNG skeleton with the pair-list filter,
   which makes the dropped set bit-identical without any per-pair array.
3. **Decide**: each launch group's simulation-refuted pairs are folded
   into the result at once; :meth:`StreamingStage.select` picks the
   survivors that need a decision, and
   :func:`~repro.core.workqueue.unit_stream` cuts them into work units
   of ~``size`` pairs *across* launch-group boundaries, so one packed
   implication closure fills its lanes instead of running once per
   small group.  ``size`` is ``options.chunk_pairs`` or
   :func:`~repro.core.pipeline._auto_chunk_size`, at most the packed
   engine's per-closure capacity.  Every unit goes through
   :func:`~repro.core.workqueue._decide_unit`, in-process
   (:class:`~repro.core.workqueue.LocalQueue`) or on the work-stealing
   pool when ``workers > 1`` and at least ``parallel_threshold`` pairs
   need deciding; at most ``max_pairs_in_flight`` pairs are submitted
   but not yet folded.
4. **Hazard** validation (:class:`~repro.core.pipeline.HazardPass`)
   checks each folded unit's fresh multi-cycle results.

Pair records, classification counters, session totals and hazard
counters equal the staged reference flow (one decide call over the
whole survivor list) kept as the oracle in ``tests/core/staged_oracle.py``;
the differentials pin ``pair_records`` byte for byte.  Per-pair state
exists only between a group's enumeration and its fold, so peak memory
is bounded by the packed matrices plus the final per-pair records.
Each folded group emits a ``launch_group`` trace event
(``group_index`` / ``groups_total`` / pairs folded so far), so long runs
show progress instead of a silent decide phase.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

import numpy as np

from repro.circuit.topology import (
    FFPair,
    dff_rows,
    iter_launch_groups,
    launch_group_stats,
    sink_reach,
)
from repro.core.deciders import PairDecider, create_decider
from repro.core.pipeline import (
    AnalysisContext,
    HazardPass,
    _auto_chunk_size,
    backplane_summary,
    merge_session_stats,
    packed_summary,
    publish_backplane,
)
from repro.core.random_filter import random_filter_packed
from repro.core.result import (
    Classification,
    DetectionResult,
    Disagreement,
    PairResult,
    Stage,
    StageStats,
)
from repro.core.workqueue import (
    LocalQueue,
    UnitResult,
    split_threshold,
    unit_stream,
)


class StreamingStage:
    """Topology → random-sim → decide → hazard, one launch group at a time.

    :meth:`run` drives one :class:`Fold` over the circuit and returns the
    :class:`~repro.core.result.DetectionResult`.  ``decider`` is a
    registry name or an unprepared decider instance (default:
    ``options.search_engine``).  ``frames=2`` is the MC condition;
    larger values give the k-cycle variant (pass the matching k-frame
    decider).
    """

    def __init__(
        self,
        decider: str | PairDecider | None = None,
        frames: int = 2,
    ) -> None:
        if frames < 2:
            raise ValueError("streaming analysis needs at least 2 frames")
        self._decider_spec = decider
        self.frames = frames

    def _resolve(self, ctx: AnalysisContext) -> PairDecider:
        spec = self._decider_spec
        if spec is None:
            spec = ctx.options.search_engine
        if isinstance(spec, str):
            return create_decider(spec)
        return spec

    def select(self, fold: "Fold", pairs: list[FFPair]) -> list[FFPair]:
        """The survivors of one launch group that need a decision.

        A fresh run decides them all.  An incremental run folds the
        pairs it inherits through ``fold`` and returns the rest.
        """
        return pairs

    # ------------------------------------------------------------------
    # Main flow.
    # ------------------------------------------------------------------
    def run(self, ctx: AnalysisContext) -> DetectionResult:
        """Classify every connected pair of ``ctx.circuit``."""
        return self._drive(Fold(ctx))

    def _drive(self, fold: "Fold") -> DetectionResult:
        """Run the flow into ``fold`` inside the run's trace envelope.

        Emits ``run_start``, records the active store's counter deltas
        as the ``cache`` block, shuts the run's worker pool down (also
        on failure) and lets the fold build the result and ``run_end``.
        """
        from repro.store.runtime import active_store

        ctx = fold.ctx
        store = active_store()
        store_before = store.stats() if store is not None else {}
        ctx.emit(
            "run_start",
            circuit=ctx.circuit.name,
            engine=ctx.options.search_engine,
            workers=ctx.options.workers,
        )
        try:
            self._flow(ctx, fold)
        finally:
            ctx.close()
        if store is not None:
            fold.metrics["cache"] = {
                key: value - store_before.get(key, 0)
                for key, value in store.stats().items()
            }
        return fold.finish()

    def _flow(self, ctx: AnalysisContext, fold: "Fold") -> None:
        options = ctx.options
        circuit = ctx.circuit
        include_self = options.include_self_loops

        # -- Topology: packed connected matrix, no pair list. ----------
        started = ctx.clock()
        reach = sink_reach(circuit)
        num_dffs = len(reach.dffs)
        alive = np.array(reach.rows, dtype=np.uint64)
        if num_dffs and not include_self:
            diag = np.arange(num_dffs)
            alive[diag, diag // 64] &= ~(
                np.uint64(1) << (diag % 64).astype(np.uint64)
            )
        groups_total, connected = launch_group_stats(circuit, include_self)
        fold.connected_pairs = connected
        fold.groups_total = groups_total
        ctx.emit(
            "stream_topology",
            groups=groups_total,
            pairs=connected,
            blocked=reach.blocked,
            seconds=round(ctx.clock() - started, 6),
        )

        # -- Random simulation: one global pass on the packed matrix. --
        survivors = alive
        survivor_count = connected
        if options.use_random_sim and connected:
            sim_started = ctx.clock()
            report = random_filter_packed(
                circuit,
                alive,
                frames=self.frames,
                words=options.sim_words,
                max_rounds=options.sim_max_rounds,
                seed=options.sim_seed,
                sim=ctx.bit_simulator(options.sim_words),
            )
            seconds = ctx.clock() - sim_started
            ctx.emit(
                "random_sim",
                frames=self.frames,
                rounds=report.rounds,
                patterns=report.patterns,
                dropped=report.dropped,
                seconds=round(seconds, 6),
                patterns_per_sec=(
                    round(report.patterns / seconds) if seconds else 0
                ),
            )
            fold.stats[Stage.SIMULATION].cpu_seconds += seconds
            survivors = report.alive
            survivor_count = report.survivors

        # -- Decide + hazard, folded per work unit. --------------------
        decider = self._resolve(ctx)
        fold.engine = decider.name
        dff_index = dff_rows(circuit)

        def fresh_groups() -> Iterator[list[FFPair]]:
            for group in iter_launch_groups(circuit, include_self):
                kept, dropped = _partition_group(
                    survivors, dff_index, group.source, group.sinks
                )
                fold.drop(dropped)
                fresh = self.select(fold, kept)
                fold.open_group(
                    group.source, len(group.sinks), len(dropped), len(fresh)
                )
                if fresh:
                    yield fresh

        size = options.chunk_pairs or _auto_chunk_size(
            survivor_count, max(1, options.workers)
        )
        self._decide(ctx, decider, fold, fresh_groups(), size)

        # -- Run summary: session counters, DB stats, disagreements. ---
        metrics = fold.metrics
        if fold.session is not None:
            metrics["decision_session"] = fold.session
        packed = packed_summary(fold.session)
        if packed is not None:
            metrics["packed_implication"] = packed
        db_info = getattr(decider, "db_info", None)
        if db_info is not None:
            metrics["implication_db"] = db_info
        fold.disagreements.sort(key=lambda d: (d.pair.source, d.pair.sink))
        names = circuit.names
        for disagreement in fold.disagreements:
            ctx.emit(
                "disagreement",
                source=names[disagreement.pair.source],
                sink=names[disagreement.pair.sink],
                **{
                    disagreement.primary_engine: disagreement.primary.value,
                    disagreement.secondary_engine: disagreement.secondary.value,
                },
            )
        fold.hazard.finish(metrics)

    def _decide(
        self,
        ctx: AnalysisContext,
        decider: PairDecider,
        fold: "Fold",
        groups: Iterator[list[FFPair]],
        size: int,
    ) -> None:
        """Cut the fresh pairs into units, settle them and fold them."""
        options = ctx.options
        workers = max(1, options.workers)
        threshold = max(2, options.parallel_threshold)
        split = split_threshold(size)
        units = unit_stream(groups, size, split)
        # Look ahead until a pool would pay off, or the stream ends.
        head: list[list[FFPair]] = []
        held = 0
        for unit in units:
            head.append(unit)
            held += len(unit)
            if workers == 1 or held >= threshold:
                break
        if not head:
            return
        parallel = workers > 1 and held >= threshold

        shared_fn = getattr(decider, "prepare_shared", None)
        shared = shared_fn(ctx) if shared_fn is not None else None
        if shared is not None:
            from repro.atpg.learning import count_learned

            fold.learned = count_learned(shared)
        if parallel:
            expansion = ctx.expansion(getattr(decider, "frames", 2))
            queue = ctx.decision_pool(
                decider, expansion, shared=shared,
                publish=lambda: publish_backplane(ctx, expansion, shared),
            )
            max_in_flight = max(size, options.max_pairs_in_flight)
        else:
            queue = LocalQueue(ctx, decider, shared)
            max_in_flight = 0

        submitted = in_flight = 0
        for unit in chain(head, units):
            while in_flight and in_flight + len(unit) > max_in_flight:
                in_flight -= fold.decided(queue.next_result())
            queue.submit(submitted, unit)
            submitted += 1
            in_flight += len(unit)
        while in_flight:
            in_flight -= fold.decided(queue.next_result())

        if workers > 1:
            ctx.emit(
                "decision_exec",
                mode="parallel" if parallel else "serial-fallback",
                workers=workers,
                pairs=fold.decided_pairs,
                threshold=threshold,
            )
        if not parallel:
            return
        ctx.emit(
            "decision_queue",
            workers=queue.workers,
            units=submitted,
            unit_pairs=size,
            split=split,
            max_pairs_in_flight=max_in_flight,
            per_worker=queue.worker_summary(),
        )
        backplane = backplane_summary(queue)
        if backplane is not None:
            fold.metrics["backplane"] = backplane


def _partition_group(
    survivors: np.ndarray,
    dff_index: dict[int, int],
    source: int,
    sinks: np.ndarray,
) -> tuple[list[FFPair], list[FFPair]]:
    """Split one launch group into (surviving, sim-dropped) pairs."""
    src_k = dff_index[source]
    word = src_k // 64
    bit = np.uint64(1) << np.uint64(src_k % 64)
    kept: list[FFPair] = []
    dropped: list[FFPair] = []
    for sink in sinks.tolist():
        if survivors[dff_index[sink], word] & bit:
            kept.append(FFPair(source, sink))
        else:
            dropped.append(FFPair(source, sink))
    return kept, dropped


class Fold:
    """One run's accumulator, and the builder of its result.

    Holds the settled pairs, per-stage counters, session totals,
    disagreements, the ``metrics`` blocks and the launch-group progress;
    the incremental filter folds inherited records through
    :meth:`result` like decided ones.  Built before any decide work:
    its :class:`~repro.core.pipeline.HazardPass` rejects a bad hazard
    mode or delay sidecar at once.
    """

    def __init__(self, ctx: AnalysisContext) -> None:
        self.ctx = ctx
        self.started = ctx.clock()
        self.hazard = HazardPass(ctx)
        self.results: list[PairResult] = []
        self.stats = {stage: StageStats() for stage in Stage}
        self.connected_pairs = 0
        self.engine = ctx.options.search_engine
        self.groups_total = 0
        self.groups_folded = 0
        self.decided_pairs = 0
        self.learned = 0
        self.session: dict[str, int] | None = None
        self.disagreements: list[Disagreement] = []
        #: the result's counter blocks by name (see ``DetectionResult``).
        self.metrics: dict[str, dict] = {}
        #: launch source -> [fresh pairs not yet folded, pairs, dropped]
        self._open: dict[int, list[int]] = {}

    def result(
        self, result: PairResult, seconds: float, engine: str | None
    ) -> None:
        """Fold one settled pair; emit its trace event and progress."""
        self.results.append(result)
        stats = self.stats[result.stage]
        if result.classification is Classification.MULTI_CYCLE:
            stats.multi_cycle += 1
        elif result.classification is Classification.SINGLE_CYCLE:
            stats.single_cycle += 1
        else:
            stats.undecided += 1
        stats.cpu_seconds += seconds
        ctx = self.ctx
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
            ctx.progress(len(self.results), self.connected_pairs, record)

    def drop(self, pairs: list[FFPair]) -> None:
        """Fold one group's simulation-refuted pairs."""
        for pair in pairs:
            self.result(
                PairResult(pair, Classification.SINGLE_CYCLE, Stage.SIMULATION),
                0.0,
                None,
            )

    def open_group(
        self, source: int, pairs: int, dropped: int, fresh: int
    ) -> None:
        """Register a group; it is reported once its fresh pairs fold."""
        if fresh:
            self._open[source] = [fresh, pairs, dropped]
        else:
            self._emit_group(source, pairs, dropped)

    def decided(self, unit: UnitResult) -> int:
        """Fold one settled unit and hazard-check it; returns its size."""
        self.session = merge_session_stats(self.session, unit.stats)
        self.disagreements.extend(unit.flags)
        closed: list[int] = []
        for result, seconds in unit.decided:
            self.result(result, seconds, self.engine)
            entry = self._open[result.pair.source]
            entry[0] -= 1
            if not entry[0]:
                closed.append(result.pair.source)
        self.hazard.check([result for result, _ in unit.decided])
        for source in closed:
            _, pairs, dropped = self._open.pop(source)
            self._emit_group(source, pairs, dropped)
        self.decided_pairs += len(unit.decided)
        return len(unit.decided)

    def _emit_group(self, source: int, pairs: int, dropped: int) -> None:
        """Per-launch-group progress event."""
        index = self.groups_folded
        self.groups_folded += 1
        self.ctx.emit(
            "launch_group",
            group_index=index,
            groups_total=self.groups_total,
            source=self.ctx.circuit.names[source],
            pairs=pairs,
            dropped=dropped,
            folded=len(self.results),
        )

    def finish(self) -> DetectionResult:
        """Sort the results, build the result and emit ``run_end``."""
        ctx = self.ctx
        self.results.sort(key=lambda r: (r.pair.source, r.pair.sink))
        result = DetectionResult(
            circuit=ctx.circuit,
            connected_pairs=self.connected_pairs,
            pair_results=self.results,
            stats=self.stats,
            total_seconds=ctx.clock() - self.started,
            learned_implications=self.learned,
            engine=self.engine,
            disagreements=self.disagreements,
            hazard_mode=self.hazard.mode,
            hazard_verdicts=self.hazard.verdicts,
            metrics=self.metrics,
        )
        ctx.emit(
            "run_end",
            circuit=ctx.circuit.name,
            engine=self.engine,
            connected_pairs=self.connected_pairs,
            multi_cycle=len(result.multi_cycle_pairs),
            single_cycle=len(result.single_cycle_pairs),
            undecided=len(result.undecided_pairs),
            disagreements=len(self.disagreements),
            seconds=round(result.total_seconds, 6),
            metrics=self.metrics,
        )
        return result
