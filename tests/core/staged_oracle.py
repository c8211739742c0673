"""Staged reference flow: the oracle the launch-group fold must reproduce.

The paper's Section 4.1 flow written out stage by stage over a full,
materialized pair list:

    connected_ff_pairs → the pair-list random filter
    → one decide_group over all survivors → the hazard checker

It runs serially in one process, filters with the one-bool-per-pair
oracle of ``tests/core/pair_list_filter.py`` and builds its own hazard
checker, the sensitization-first reference whose bounds come from the
per-mode walks of ``tests/core/hazard_oracle.py``, so it shares no
packed alive matrix, unit cutting, executor, fold, hazard pass or bound
walk with :class:`repro.core.streaming.StreamingStage`.  The
differentials compare its :class:`~repro.core.result.DetectionResult` —
``pair_records``, stage counters, session totals, hazard results —
against the fold's.
"""

from __future__ import annotations

from repro.circuit.netlist import Circuit
from repro.circuit.topology import connected_ff_pairs
from repro.core.deciders import PairDecider, create_decider
from repro.core.pipeline import (
    HAZARD_BACKTRACK_LIMIT,
    AnalysisContext,
    DetectorOptions,
    load_gate_delays,
    packed_summary,
)
from repro.core.result import (
    Classification,
    DetectionResult,
    PairResult,
    Stage,
    StageStats,
)
from tests.analysis.sensitize_first import SensitizeFirstChecker
from tests.core.pair_list_filter import pair_list_filter


def staged_detect(
    circuit: Circuit,
    options: DetectorOptions | None = None,
    decider: str | PairDecider | None = None,
    frames: int = 2,
) -> DetectionResult:
    """Classify every connected pair with the staged reference flow.

    ``options.workers`` and the unit-sizing options are ignored: the
    oracle always decides serially in one call.
    """
    options = options or DetectorOptions()
    ctx = AnalysisContext(circuit, options)
    stats = {stage: StageStats() for stage in Stage}
    results: list[PairResult] = []

    def record(result: PairResult) -> None:
        results.append(result)
        counters = stats[result.stage]
        if result.classification is Classification.MULTI_CYCLE:
            counters.multi_cycle += 1
        elif result.classification is Classification.SINGLE_CYCLE:
            counters.single_cycle += 1
        else:
            counters.undecided += 1

    # Topology.
    pairs = connected_ff_pairs(
        circuit, include_self_loops=options.include_self_loops
    )
    connected = len(pairs)

    # Random simulation.
    if options.use_random_sim and pairs:
        report = pair_list_filter(
            circuit,
            pairs,
            frames,
            words=options.sim_words,
            seed=options.sim_seed,
            sim=ctx.bit_simulator(options.sim_words),
        )
        for pair in report.dropped_pairs:
            record(PairResult(
                pair, Classification.SINGLE_CYCLE, Stage.SIMULATION
            ))
        pairs = report.survivors

    # Decide: one call over every survivor.
    if decider is None:
        decider = options.search_engine
    if isinstance(decider, str):
        decider = create_decider(decider)
    session = None
    learned = 0
    db_info = None
    disagreements = []
    if pairs:
        decider.prepare(ctx)
        group_fn = getattr(decider, "decide_group", None)
        if group_fn is not None:
            decided = [result for result, _ in group_fn(pairs)]
        else:
            decided = [decider.decide(pair) for pair in pairs]
        for result in decided:
            record(result)
        learned = getattr(decider, "learned_implications", 0)
        db_info = getattr(decider, "db_info", None)
        disagreements = list(getattr(decider, "disagreements", []))
        stats_fn = getattr(decider, "session_stats", None)
        session = stats_fn() if stats_fn is not None else None

    # Hazard check of the multi-cycle pairs.
    mode = options.hazard_check
    verdicts = []
    exact_summary = None
    if mode == "exact":
        checker = SensitizeFirstChecker(
            circuit, ctx.expansion(2),
            backtrack_limit=HAZARD_BACKTRACK_LIMIT,
            conflict_limit=options.hazard_conflict_limit,
            delays=load_gate_delays(options, circuit),
        )
        verdicts = sorted(
            checker.check_pairs(
                r for r in results
                if r.classification is Classification.MULTI_CYCLE
            ),
            key=lambda v: (v.pair.source, v.pair.sink),
        )
        exact_summary = checker.summary()
    elif mode != "off":
        raise ValueError(f"unknown hazard_check mode {mode!r}")

    results.sort(key=lambda r: (r.pair.source, r.pair.sink))
    metrics = {}
    if session is not None:
        metrics["decision_session"] = session
        metrics["packed_implication"] = packed_summary(session)
    if db_info is not None:
        metrics["implication_db"] = db_info
    if exact_summary is not None:
        metrics["hazard_exact"] = exact_summary
    return DetectionResult(
        circuit=circuit,
        connected_pairs=connected,
        pair_results=results,
        stats=stats,
        total_seconds=0.0,
        learned_implications=learned,
        engine=decider.name,
        disagreements=disagreements,
        hazard_mode=mode,
        hazard_verdicts=verdicts,
        metrics=metrics,
    )
