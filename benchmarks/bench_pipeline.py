"""Experiment P1 — pipeline executor and stage-1 simulation throughput.

Two measurements per circuit of the selected suite profile, recorded to
``BENCH_pipeline.json`` next to the repo root:

* **Executor**: the full detection pipeline at ``workers=1`` against
  ``workers=N`` (N = CPU count, capped at 4), with the classifications
  asserted byte-identical (``pair_records``).  Below
  ``PARALLEL_THRESHOLD`` (128, ``repro.core.streaming``) pairs to
  decide the fold falls back to in-process serial automatically; the
  ``auto_serial`` flag records whether that happened, since a fallback
  run measures dispatch avoidance rather than concurrency.
* **Stage-1 engine**: sustained random-simulation throughput
  (``patterns_per_sec``) over a fixed round budget using the shipping
  engine — compiled plan, reused simulators, round batching — against
  the pre-optimisation engine (``patterns_per_sec_python_fresh``): the
  per-node python loop of ``tests/logic/python_sim.py`` with a fresh
  simulator every round.  Their ratio
  (``sim_speedup``) is what the CI regression gate falls back to when
  the baseline was recorded on different hardware.
* **Decision stage**: surviving pairs settled per second by the scalar
  launch-run walk of the decision session (``decision_pairs_per_sec``,
  from the same survivors the pipeline's decide stage sees), plus the
  hardware-independent ratio ``decision_speedup`` — that walk against
  the full-premise-per-case walk of one ``PairAnalyzer`` engine
  (``tests/core/pair_analysis.py``), measured back to back, so it
  isolates launch-prefix sharing.  Both sides skip the packed pre-pass
  (the decide kernel below measures it).  The regression gate applies
  the same same-hardware / cross-hardware metric choice as for stage 1.
* **Decide kernel**: the packed bit-parallel implication closure
  (``decide_speedup``) — all four ``(a, b)`` cases of every surviving
  pair evaluated 64 lanes per word in one shared closure — against the
  scalar per-case loop (checkpoint, three-literal premise, target
  readback, X-stability probe, backtrack) over the *same* cases on one
  engine.  Search is excluded on both sides, so the ratio isolates the
  closure kernels and is hardware-independent; both kernels must
  classify every case identically.
* **Exact hazard stage**: the SAT-backed three-way classifier over the
  detected multi-cycle pairs — ``hazard_disagreement`` counts
  pairs where the sensitization/co-sensitization bounds disagreed and
  ``exact_resolution_fraction`` the share the dual-rail SAT encoding
  settled to a definite safe / glitch-proven verdict.  The fraction is
  a pure completeness property (no timing in it), so the regression
  gate requires exactly 1.0 on every suite circuit.
* **Topology stage**: the packed-bitset reachability pass (cold reach
  build + pair extraction, warm CSR — the CSR is shared with the
  decision engines) against the per-sink set-BFS oracle of
  ``tests/circuit/bfs_oracle.py`` (``topology_speedup``).  The profile
  circuits are too small for the bitset pass to matter (numpy call
  overhead floors at ~0.2 ms), so the report also carries a fixed
  ``topology_probe`` on syn6000 where the asymptotic win is visible;
  the probe costs milliseconds regardless of profile.

* **Implication DB**: cold build time of the compiled global implication
  database on the decider's 2-frame expansion (``db_build_seconds``,
  with ``db_keys``/``db_edges``), and the stage-2 proved-pair counts
  without (``implication_proved``) and with (``implication_proved_db``)
  the database — the DB run must classify identically and never prove
  fewer pairs; ``implication_proved_db`` is the hardware-independent
  count the regression gate tracks.

* **Artifact store**: cold against warm full-detection wall time on a
  fixed syn6000 probe sharing one content-addressed store directory
  (``warm_speedup``, back-to-back on one machine so the gate applies on
  any hardware; the warm run's hit/miss counters prove SimPlan, FF-reach
  and implication-DB builds were loaded, not rebuilt), plus the ECO
  probe: one gate-type flip re-analysed incrementally against the prior
  run's pair-record bundle, recording ``eco_re_decide_fraction`` — the
  share of decide survivors the incremental path actually re-decided.

Every timed section runs one warmup iteration first and is clocked with
``time.perf_counter``.  Per-stage wall times come from the structured
trace (the fold's ``stream_topology``/``random_sim``/``hazard_stage``
events, decide being the rest of the ``run_end`` time), not ad-hoc
timers.

``pytest benchmarks/bench_pipeline.py --benchmark-only`` runs it alone.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.circuit.csr import csr_arrays
from repro.circuit.timeframe import expand_cached
from repro.circuit.topology import build_sink_reach, connected_ff_pairs
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.random_filter import random_filter
from repro.core.trace import Tracer
from repro.logic.bitsim import BitSimulator, simulate_three_frames

from conftest import PROFILE, record_report
from repro.bench_gen.suite import suite, spec_by_name
from repro.bench_gen.synth import generate
from tests.circuit.bfs_oracle import connected_ff_pairs_bfs
from tests.core.pair_analysis import PairAnalyzer, ScalarSession
from tests.logic.python_sim import PythonBitSimulator

_RESULT_PATH = Path(__file__).parent.parent / "BENCH_pipeline.json"
#: at least 2 so the sharded path is exercised even on one core.
_WORKERS = max(2, min(4, os.cpu_count() or 1))
#: fixed round budget for the sustained stage-1 throughput measurement.
_SIM_ROUNDS = 128
_SIM_WORDS = 4
_ROUND_BATCH = 8
#: fixed circuit for the topology scaling probe, independent of profile.
_TOPOLOGY_PROBE = "syn6000"

_CIRCUITS = suite(PROFILE)
_IDS = [c.name for c in _CIRCUITS]


def _run(circuit, workers: int, tracer: Tracer | None = None,
         options: DetectorOptions | None = None):
    options = options or DetectorOptions(workers=workers)
    started = time.perf_counter()
    result = MultiCycleDetector(circuit, options, tracer=tracer).run()
    return result, time.perf_counter() - started


def _implication_metrics(circuit, base_result) -> dict[str, float | int]:
    """Implication-DB build cost and the stage-2 proved-pair delta.

    ``db_build_seconds`` times one cold probe+close+compile of the global
    database on the decider's 2-frame expansion.  ``implication_proved``
    / ``implication_proved_db`` count pairs the implication stage settled
    without / with the database; the DB run must never prove fewer."""
    from repro.analysis import build_implication_db
    from repro.core.result import Classification, Stage

    def proved(result) -> int:
        return sum(
            1
            for p in result.pair_results
            if p.stage is Stage.IMPLICATION
            and p.classification is not Classification.UNDECIDED
        )

    comb = expand_cached(circuit, frames=2).comb
    build_implication_db(comb)  # warmup
    db = build_implication_db(comb)
    with_db, _ = _run(
        circuit, workers=1, options=DetectorOptions(implication_db=True)
    )
    proved_base, proved_db = proved(base_result), proved(with_db)
    verdicts = [
        (p.pair.source, p.pair.sink, p.classification)
        for p in base_result.pair_results
    ]
    verdicts_db = [
        (p.pair.source, p.pair.sink, p.classification)
        for p in with_db.pair_results
    ]
    assert verdicts == verdicts_db, (
        f"implication DB changed a verdict on {circuit.name}"
    )
    assert proved_db >= proved_base, (
        f"implication DB proved fewer pairs on {circuit.name}: "
        f"{proved_db} < {proved_base}"
    )
    return {
        "db_build_seconds": round(db.build_seconds, 6),
        "db_keys": db.num_keys,
        "db_edges": db.num_edges,
        "implication_proved": proved_base,
        "implication_proved_db": proved_db,
    }


def _sustained_compiled(circuit) -> float:
    """Seconds for ``_SIM_ROUNDS`` rounds on the shipping stage-1 engine:
    compiled plan, width-cached simulators, round batching."""
    rng = np.random.default_rng(2002)
    sources = circuit.inputs + circuit.dffs
    pis = circuit.inputs
    sims: dict[int, BitSimulator] = {}
    started = time.perf_counter()
    done = 0
    batch = 1
    while done < _SIM_ROUNDS:
        k = min(batch, _SIM_ROUNDS - done)
        width = k * _SIM_WORDS
        sim = sims.get(width)
        if sim is None:
            sim = BitSimulator(circuit, width)
            sims[width] = sim
        if sources:
            sim.values[sources] = rng.integers(
                0, 1 << 64, size=(len(sources), width), dtype=np.uint64
            )
        sim.comb_eval()
        sim.clock()
        sim.state_matrix()
        if pis:
            sim.values[pis] = rng.integers(
                0, 1 << 64, size=(len(pis), width), dtype=np.uint64
            )
        sim.comb_eval()
        sim.clock()
        sim.state_matrix()
        done += k
        batch = min(batch * 2, _ROUND_BATCH)
    return time.perf_counter() - started


def _sustained_python_fresh(circuit) -> float:
    """Seconds for ``_SIM_ROUNDS`` rounds on the pre-optimisation engine:
    per-node python loop, fresh simulator every round, no batching."""
    rng = np.random.default_rng(2002)
    started = time.perf_counter()
    for _ in range(_SIM_ROUNDS):
        sim = PythonBitSimulator(circuit, _SIM_WORDS)
        simulate_three_frames(circuit, rng, _SIM_WORDS, sim=sim)
    return time.perf_counter() - started


def _sustained_decision(circuit) -> tuple[int, float, float]:
    """(survivors, shared_seconds, fresh_seconds) for the decision stage.

    Decides the pipeline's actual surviving pairs back to back on the
    scalar session walk (launch prefixes shared) and on one
    :class:`PairAnalyzer` engine, which re-derives the full
    three-assumption premise per case — the ratio isolates what the
    shared-launch session buys, independent of hardware."""
    pairs = connected_ff_pairs(circuit)
    survivors = random_filter(
        circuit, pairs, words=_SIM_WORDS, round_batch=_ROUND_BATCH
    ).survivors
    expansion = expand_cached(circuit, frames=2)

    def timed_shared() -> float:
        session = ScalarSession(expansion)
        started = time.perf_counter()
        session.decide_group(survivors)
        return time.perf_counter() - started

    def timed_fresh() -> float:
        analyzer = PairAnalyzer(expansion)
        started = time.perf_counter()
        for pair in survivors:
            analyzer.analyze(pair)
        return time.perf_counter() - started

    timed_shared()  # warmup (expansion + CSR caches)
    timed_fresh()
    return len(survivors), timed_shared(), timed_fresh()


def _sustained_packed_decision(circuit) -> dict[str, float | int]:
    """Decide-kernel isolation: scalar per-case closure vs packed lanes.

    Builds the decision stage's actual case list — four ``(a, b)``
    cases per surviving pair, each the premise
    ``FF_i(t)=a, FF_i(t+1)=1-a, FF_j(t+1)=b`` with target ``FF_j(t+2)``
    — and classifies every case twice, back to back on one machine:

    * scalar: one :class:`ImplicationEngine`, per case
      checkpoint → ``assume_all`` → target readback → X-stability
      probe → backtrack (what the session pays per case without the
      pre-pass, search excluded);
    * packed: one :class:`PackedImplicationEngine` closure per
      ``MAX_LANES`` block — ``close_matrix`` + conflict/target
      readback + one batched probe ``extend`` (what the pre-pass
      pays, same classification rules).

    The classifications must match case for case; the ratio
    (``decide_speedup``) isolates the closure kernels and is
    hardware-independent.  With no survivors both timings are pure
    noise, so the ratio records neutral 1.0 (same convention as
    ``decision_speedup``)."""
    from repro.atpg.implication import ImplicationEngine
    from repro.atpg.packed_implication import (
        MAX_LANES,
        PackedImplicationEngine,
    )

    pairs = connected_ff_pairs(circuit)
    survivors = random_filter(
        circuit, pairs, words=_SIM_WORDS, round_batch=_ROUND_BATCH
    ).survivors
    if not survivors:
        return {
            "decide_cases": 0, "decide_scalar_seconds": 0.0,
            "decide_packed_seconds": 0.0, "decide_speedup": 1.0,
        }
    expansion = expand_cached(circuit, frames=2)
    comb = expansion.comb
    ff_at = expansion.ff_at
    cases = []
    for pair in survivors:
        source_index = expansion.ff_index(pair.source)
        sink_index = expansion.ff_index(pair.sink)
        for a in (0, 1):
            for b in (0, 1):
                cases.append((
                    [
                        (ff_at[0][source_index], a),
                        (ff_at[1][source_index], 1 - a),
                        (ff_at[1][sink_index], b),
                    ],
                    ff_at[2][sink_index],
                    b,
                ))

    def scalar_kernel() -> list[str]:
        engine = ImplicationEngine(comb)
        out = []
        for literals, target, b in cases:
            mark = engine.checkpoint()
            if not engine.assume_all(literals):
                out.append("conflict")
            else:
                value = engine.value(target)
                if value == b:
                    out.append("implied")
                elif value == 1 - b:
                    out.append("open")
                elif engine.assume(target, 1 - b):
                    out.append("open")
                else:
                    out.append("implied")
            engine.backtrack(mark)
        return out

    def packed_kernel() -> list[str]:
        engine = PackedImplicationEngine(comb)
        out = []
        for start in range(0, len(cases), MAX_LANES):
            block = cases[start:start + MAX_LANES]
            lanes = len(block)
            nodes = np.array(
                [[n for n, _ in lits] for lits, _, _ in block], dtype=np.intp
            )
            values = np.array(
                [[v for _, v in lits] for lits, _, _ in block], dtype=np.uint8
            )
            targets = np.array([t for _, t, _ in block], dtype=np.intp)
            engine.close_matrix(nodes, values)
            lane_ids = np.arange(lanes)
            conflicted = engine.conflict_lanes(lane_ids)
            known, value = engine.read_nodes(targets, lane_ids)
            open_lanes = np.flatnonzero(~conflicted & (known == 0))
            probe_conflict = np.zeros(lanes, dtype=bool)
            if len(open_lanes):
                engine.extend(
                    (int(lane), int(targets[lane]), 1 - block[lane][2])
                    for lane in open_lanes
                )
                probe_conflict[open_lanes] = engine.conflict_lanes(open_lanes)
            for lane in range(lanes):
                b = block[lane][2]
                if conflicted[lane]:
                    out.append("conflict")
                elif known[lane]:
                    out.append("implied" if value[lane] == b else "open")
                elif probe_conflict[lane]:
                    out.append("implied")
                else:
                    out.append("open")
        return out

    scalar_kernel()  # warmup (CSR + expansion caches)
    packed_kernel()  # warmup (plan lowering + scratch buffers)
    started = time.perf_counter()
    reference = scalar_kernel()
    scalar_seconds = time.perf_counter() - started
    started = time.perf_counter()
    candidate = packed_kernel()
    packed_seconds = time.perf_counter() - started
    assert candidate == reference, (
        f"packed decide kernel changed a case verdict on {circuit.name}"
    )
    return {
        "decide_cases": len(cases),
        "decide_scalar_seconds": round(scalar_seconds, 6),
        "decide_packed_seconds": round(packed_seconds, 6),
        "decide_speedup": round(
            scalar_seconds / packed_seconds if packed_seconds else 0.0, 3
        ),
    }


def _exact_hazard_metrics(circuit, detection) -> dict[str, float | int]:
    """Exact SAT-backed hazard classification over the detected MC pairs.

    ``hazard_disagreement`` counts pairs where the sensitization and
    co-sensitization bounds disagreed; ``exact_resolution_fraction`` is
    the share of those the SAT stage settled to a definite verdict
    (``1.0`` means no pair was left ``glitch-possible`` — a pure
    completeness property of the encoding, so the CI gate requires it
    exactly on every suite circuit regardless of hardware)."""
    from repro.analysis.hazard_exact import ExactHazardChecker

    checker = ExactHazardChecker(circuit)
    checker.check_pairs(detection.multi_cycle_pairs)
    summary = checker.summary()
    return {
        "hazard_disagreement": summary["disagreement"],
        "exact_resolved": summary["resolved"],
        "exact_resolution_fraction": summary["resolution_fraction"],
        "exact_safe": summary["safe"],
        "exact_glitch_proven": summary["glitch_proven"],
        "exact_glitch_possible": summary["glitch_possible"],
        "exact_sat_solves": summary["sat_solves"],
    }


def _topology_metrics(circuit, repeats: int = 5) -> dict[str, float]:
    """Shipping topology pass (cold sink-reach build + pair extraction)
    vs the per-sink set BFS of ``tests/circuit/bfs_oracle.py``.

    Best-of-``repeats`` to keep single-core CI noise out of the ratio.
    On tiny-profile circuits the ratio falls below 1 — the packed sweep
    pays a fixed numpy setup cost that the BFS does not — and no gate
    reads it there; the fixed-size probe carries the gated ratio."""
    csr_arrays(circuit)  # warm the CSR cache (shared with the engines)
    connected_ff_pairs_bfs(circuit)  # warm fanout cache
    connected_ff_pairs(circuit)  # warm the sweep plan and reach cache

    def once_shipping() -> float:
        # What the topology stage pays once per circuit version.
        started = time.perf_counter()
        build_sink_reach(circuit)
        connected_ff_pairs(circuit)
        return time.perf_counter() - started

    def once_bfs() -> float:
        started = time.perf_counter()
        connected_ff_pairs_bfs(circuit)
        return time.perf_counter() - started

    shipping_seconds = min(once_shipping() for _ in range(repeats))
    bfs_seconds = min(once_bfs() for _ in range(repeats))
    return {
        "topology_seconds": round(shipping_seconds, 6),
        "topology_seconds_bfs": round(bfs_seconds, 6),
        "topology_speedup": round(
            bfs_seconds / shipping_seconds if shipping_seconds else 0.0, 3
        ),
    }


def _stage_seconds(tracer: Tracer) -> dict[str, float]:
    """Per-phase wall seconds of one run, from the fold's trace events.

    Topology, random simulation and hazard validation each report their
    own seconds (``stream_topology``, ``random_sim``, ``hazard_stage``);
    decide is the rest of the run's ``run_end`` time.
    """
    def seconds(event: str) -> float:
        return sum(record["seconds"] for record in tracer.select(event))

    phases = {
        "topology": seconds("stream_topology"),
        "random-sim": seconds("random_sim"),
        "hazard": seconds("hazard_stage"),
    }
    decide = seconds("run_end") - sum(phases.values())
    phases["decide"] = round(max(0.0, decide), 6)
    return phases


@pytest.mark.parametrize("circuit", _CIRCUITS, ids=_IDS)
def test_pipeline_serial(benchmark, circuit):
    result = benchmark(lambda: _run(circuit, workers=1)[0])
    assert result.connected_pairs >= len(result.multi_cycle_pairs)


@pytest.mark.parametrize("circuit", _CIRCUITS, ids=_IDS)
def test_pipeline_parallel(benchmark, circuit):
    result = benchmark.pedantic(
        lambda: _run(circuit, workers=_WORKERS)[0], rounds=1, iterations=1
    )
    assert result.connected_pairs >= len(result.multi_cycle_pairs)


@pytest.mark.parametrize("circuit", _CIRCUITS, ids=_IDS)
def test_sim_engine_speedup(circuit):
    """The shipping stage-1 engine must beat the pre-optimisation one."""
    _sustained_compiled(circuit)  # warmup
    _sustained_python_fresh(circuit)
    assert _sustained_python_fresh(circuit) > _sustained_compiled(circuit)


def test_pipeline_report(bench_circuits):
    """Executor + stage-1 throughput per circuit, written to JSON."""
    entries = []
    lines = [
        "Pipeline executor and stage-1 simulation throughput",
        f"{'circuit':>10}  {'pairs':>6}  {'serial(s)':>10}  "
        f"{'workers=' + str(_WORKERS) + '(s)':>14}  {'speedup':>8}  "
        f"{'Mpat/s':>8}  {'simx':>6}  {'dec p/s':>8}  {'decx':>6}  "
        f"{'pdecx':>6}  {'exres':>9}  {'impl db/base':>12}  "
        f"{'db build':>9}",
    ]
    for circuit in bench_circuits:
        _run(circuit, workers=1)  # warmup (plan + expansion caches)
        serial_tracer = Tracer()
        serial, serial_seconds = _run(circuit, workers=1, tracer=serial_tracer)
        parallel_tracer = Tracer()
        parallel, parallel_seconds = _run(
            circuit, workers=_WORKERS, tracer=parallel_tracer
        )
        assert serial.pair_records() == parallel.pair_records(), (
            f"parallel run changed a verdict on {circuit.name}"
        )
        # True when the workers>1 run never actually sharded: either the
        # threshold fallback engaged or no pairs reached the decision stage.
        execs = parallel_tracer.select("decision_exec")
        auto_serial = not any(e["mode"] == "parallel" for e in execs)
        speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0

        _sustained_compiled(circuit)  # warmup
        _sustained_python_fresh(circuit)
        compiled_seconds = _sustained_compiled(circuit)
        python_seconds = _sustained_python_fresh(circuit)
        patterns = _SIM_ROUNDS * 64 * _SIM_WORDS
        pps = patterns / compiled_seconds if compiled_seconds else 0.0
        pps_python = patterns / python_seconds if python_seconds else 0.0
        sim_speedup = pps / pps_python if pps_python else 0.0

        survivors, shared_seconds, fresh_seconds = _sustained_decision(circuit)
        if survivors:
            dps = survivors / shared_seconds if shared_seconds else 0.0
            decision_speedup = (
                fresh_seconds / shared_seconds if shared_seconds else 0.0
            )
        else:
            # Nothing survived the random filter: both timings are pure
            # per-call noise (the old report recorded 0.83 "slowdowns"
            # on s27 from exactly this), so record a neutral ratio.
            dps, decision_speedup = 0.0, 1.0

        packed_decide = _sustained_packed_decision(circuit)
        exact_hazard = _exact_hazard_metrics(circuit, serial)
        topology = _topology_metrics(circuit)
        implication = _implication_metrics(circuit, serial)

        entries.append(
            {
                "circuit": circuit.name,
                "connected_pairs": serial.connected_pairs,
                "multi_cycle_pairs": len(serial.multi_cycle_pairs),
                "serial_seconds": round(serial_seconds, 6),
                "parallel_seconds": round(parallel_seconds, 6),
                "speedup": round(speedup, 3),
                "auto_serial": auto_serial,
                "stage_seconds": _stage_seconds(serial_tracer),
                "patterns_per_sec": round(pps),
                "patterns_per_sec_python_fresh": round(pps_python),
                "sim_speedup": round(sim_speedup, 3),
                "decision_pairs": survivors,
                "decision_pairs_per_sec": round(dps),
                "decision_speedup": round(decision_speedup, 3),
                **packed_decide,
                **exact_hazard,
                **topology,
                **implication,
            }
        )
        lines.append(
            f"{circuit.name:>10}  {serial.connected_pairs:>6}  "
            f"{serial_seconds:>10.3f}  {parallel_seconds:>14.3f}  "
            f"{speedup:>8.2f}  {pps / 1e6:>8.2f}  {sim_speedup:>6.1f}  "
            f"{dps:>8.0f}  {decision_speedup:>6.2f}  "
            f"{packed_decide['decide_speedup']:>6.1f}  "
            f"{exact_hazard['exact_resolved']:>3}/"
            f"{exact_hazard['hazard_disagreement']:<3}"
            f"{exact_hazard['exact_resolution_fraction']:>5.2f}  "
            f"{implication['implication_proved_db']:>5}/"
            f"{implication['implication_proved']:<5} "
            f"{implication['db_build_seconds'] * 1e3:>7.1f}ms"
        )
        # Acceptance: a workers>1 run must either win or have declined to
        # shard (auto-serial) — never pay dispatch overhead for a loss.
        assert speedup >= 0.8 or auto_serial, (
            f"parallel executor lost without auto-serial on {circuit.name}"
        )
        # Acceptance: the exact SAT stage must settle every pair the
        # sensitization bounds disagreed on — a glitch-possible leftover
        # means lost completeness, not a hard circuit.
        assert exact_hazard["exact_resolution_fraction"] == 1.0, (
            f"exact hazard stage left "
            f"{exact_hazard['exact_glitch_possible']} of "
            f"{exact_hazard['hazard_disagreement']} disagreements "
            f"unresolved on {circuit.name}"
        )
    # Acceptance: on the largest circuit with surviving pairs the packed
    # implication closure must beat the scalar per-case kernel at least 4x.
    with_cases = [e for e in entries if e["decide_cases"]]
    if with_cases:
        assert with_cases[-1]["decide_speedup"] >= 4.0, (
            f"decide_speedup {with_cases[-1]['decide_speedup']} < 4 on "
            f"{with_cases[-1]['circuit']}"
        )
    # Fixed-size topology probe (see module docstring): the bitset pass
    # must hold a >= 2x win at scale.
    probe_circuit = generate(spec_by_name(_TOPOLOGY_PROBE))
    probe = {
        "circuit": _TOPOLOGY_PROBE,
        "num_nodes": probe_circuit.num_nodes,
        "num_dffs": len(probe_circuit.dffs),
        **_topology_metrics(probe_circuit),
    }
    assert probe["topology_speedup"] >= 2.0, (
        f"topology_speedup {probe['topology_speedup']} < 2 on the "
        f"{_TOPOLOGY_PROBE} probe"
    )
    lines.append(
        f"topology probe {_TOPOLOGY_PROBE}: bitset "
        f"{probe['topology_seconds'] * 1e3:.2f}ms vs bfs "
        f"{probe['topology_seconds_bfs'] * 1e3:.2f}ms "
        f"({probe['topology_speedup']:.1f}x)"
    )
    report = {
        "profile": PROFILE,
        "workers": _WORKERS,
        "cpu_count": os.cpu_count(),
        "sim_rounds": _SIM_ROUNDS,
        "sim_words": _SIM_WORDS,
        "round_batch": _ROUND_BATCH,
        "results": entries,
        "topology_probe": probe,
    }
    # Carry the scale section (peak-RSS/wall-time curves, regenerated
    # separately via REPRO_BENCH_SCALE because its 10k–100k-gate runs
    # take minutes) and the cache section (written by test_cache_report,
    # which may run after this test) over from the existing report.
    try:
        previous = json.loads(_RESULT_PATH.read_text())
    except (OSError, ValueError):
        previous = {}
    for section in ("scale", "cache", "backplane"):
        if section in previous:
            report[section] = previous[section]
    _RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    lines.append(f"  written to {_RESULT_PATH.name}")
    record_report("\n".join(lines))


#: fixed circuit for the artifact-store cold/warm and ECO probes.
_CACHE_PROBE = "syn6000"


def test_cache_report(tmp_path):
    """Artifact-store cold/warm wall time and the ECO re-decide fraction.

    Two full ``implication_db=True`` detections of the same generated
    circuit share one store directory: the warm run must *load* every
    expensive artifact (SimPlan, reach matrix, implication DB — hit
    counters prove it, a build would be a miss) and beat the cold run's
    wall time (``warm_speedup``, a back-to-back same-machine ratio, so
    the regression gate applies it on any hardware).

    The ECO probe flips one gate type and re-analyses incrementally
    against the cold run's pair-record bundle; the fraction of decide
    survivors actually re-decided (``eco_re_decide_fraction``) is the
    incremental path's effectiveness and is gated as a ceiling."""
    from repro.circuit.gates import GateType
    from repro.circuit.netlist import Circuit, clear_derived_caches
    from repro.core.incremental import incremental_detect, result_bundle
    from repro.store.runtime import deactivate_store

    store_dir = str(tmp_path / "store")

    def fresh_circuit():
        clear_derived_caches()
        deactivate_store()
        return generate(spec_by_name(_CACHE_PROBE))

    def timed_run(options):
        circuit = fresh_circuit()
        started = time.perf_counter()
        result = MultiCycleDetector(circuit, options).run()
        return circuit, result, time.perf_counter() - started

    db_options = DetectorOptions(implication_db=True, cache_dir=store_dir)
    _, cold_result, cold_seconds = timed_run(db_options)
    _, warm_result, warm_seconds = timed_run(db_options)
    assert cold_result.pair_records() == warm_result.pair_records()
    # The warm run must have loaded every expensive artifact instead of
    # rebuilding: hits prove the skips, zero misses proves no rebuild.
    warm_cache = warm_result.metrics["cache"]
    assert warm_cache["misses"] == 0, warm_cache
    assert warm_cache["hits"] >= 3, warm_cache
    warm_speedup = cold_seconds / warm_seconds if warm_seconds else 0.0
    assert warm_speedup > 1.0, (
        f"warm run not faster: {warm_seconds:.2f}s vs {cold_seconds:.2f}s"
    )

    # ECO probe on plain options (the implication DB is globally
    # sensitive and would soundly re-decide everything).
    plain = DetectorOptions()
    base = fresh_circuit()
    bundle = result_bundle(MultiCycleDetector(base, plain).run(), plain)
    edited = Circuit(base.name)
    flips = {
        GateType.AND: GateType.OR, GateType.OR: GateType.AND,
        GateType.NAND: GateType.NOR, GateType.NOR: GateType.NAND,
        GateType.XOR: GateType.XNOR, GateType.XNOR: GateType.XOR,
    }
    # The victim must sit inside at least one capture cone — flip a
    # gate driving a DFF data input, not one feeding only outputs.
    victim = next(
        base.fanins[ff][0] for ff in base.dffs
        if base.fanins[ff] and base.types[base.fanins[ff][0]] in flips
    )
    for node_id in range(base.num_nodes):
        gate_type = base.types[node_id]
        if node_id == victim:
            gate_type = flips[gate_type]
        edited.add_node(gate_type, (), base.names[node_id])
    for node_id in range(base.num_nodes):
        edited.set_fanins(node_id, tuple(base.fanins[node_id]))
    started = time.perf_counter()
    eco_result = incremental_detect(edited, plain, bundle)
    eco_seconds = time.perf_counter() - started
    stats = eco_result.metrics["incremental"]
    fraction = (
        stats["re_decided"] / stats["survivors"] if stats["survivors"]
        else 0.0
    )
    assert fraction < 1.0, (
        f"single-gate ECO re-decided every survivor: {stats}"
    )
    deactivate_store()

    cache_section = {
        "circuit": _CACHE_PROBE,
        "cold_seconds": round(cold_seconds, 6),
        "warm_seconds": round(warm_seconds, 6),
        "warm_speedup": round(warm_speedup, 3),
        "warm_hits": warm_cache["hits"],
        "warm_misses": warm_cache["misses"],
        "eco_survivors": stats["survivors"],
        "eco_inherited": stats["inherited"],
        "eco_re_decided": stats["re_decided"],
        "eco_re_decide_fraction": round(fraction, 4),
        "eco_seconds": round(eco_seconds, 6),
    }
    try:
        report = json.loads(_RESULT_PATH.read_text())
    except (OSError, ValueError):
        report = {}
    report["cache"] = cache_section
    _RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    record_report(
        f"Artifact store ({_CACHE_PROBE}): cold {cold_seconds:.2f}s, warm "
        f"{warm_seconds:.2f}s ({warm_speedup:.2f}x, "
        f"{warm_cache['hits']} hits); ECO re-decided "
        f"{stats['re_decided']}/{stats['survivors']} survivors "
        f"({fraction:.1%}) in {eco_seconds:.2f}s"
    )


def test_backplane_report():
    """Shared-memory backplane probe: spawn cost, worker RSS, identity.

    Three detections of one generated circuit: serial reference, then
    ``workers=N`` with the backplane published (``auto``) and suppressed
    (``off``).  All three must produce byte-identical ``pair_records``.
    The ``auto`` run's summary must show every worker attached without a
    single artifact-store miss — attach *replaces* rebuild — and its
    ``spawn_seconds_max`` / per-worker ``ru_maxrss`` land in the
    ``backplane`` section of ``BENCH_pipeline.json``, where the CI gate
    tracks them (spawn with generous headroom, RSS with the standard
    tolerance)."""
    circuit = generate(spec_by_name(_CACHE_PROBE))
    serial, _ = _run(circuit, workers=1)  # also warms the derived caches
    on_result, on_seconds = _run(
        circuit, workers=_WORKERS,
        options=DetectorOptions(workers=_WORKERS, backplane="auto"),
    )
    off_result, off_seconds = _run(
        circuit, workers=_WORKERS,
        options=DetectorOptions(workers=_WORKERS, backplane="off"),
    )
    records = serial.pair_records()
    assert records == on_result.pair_records(), (
        "backplane=auto changed a pair record"
    )
    assert records == off_result.pair_records(), (
        "backplane=off changed a pair record"
    )
    summary = on_result.metrics.get("backplane")
    assert summary is not None, "workers>1 backplane=auto published nothing"
    assert "backplane" not in off_result.metrics, (
        "backplane=off still published"
    )
    assert summary["attached"] == summary["workers"], summary
    # Attach replaces rebuild: a worker that reaches for the on-disk
    # store during prepare would count a miss here.
    assert summary["worker_store_misses"] == 0, summary

    section = {
        "circuit": _CACHE_PROBE,
        "workers": summary["workers"],
        "kinds": summary["kinds"],
        "bytes": summary["bytes"],
        "attached": summary["attached"],
        "worker_spawn_seconds": summary["spawn_seconds_max"],
        "worker_rss_max_kb": summary["worker_rss_max_kb"],
        "worker_store_misses": summary["worker_store_misses"],
        "parallel_seconds_on": round(on_seconds, 6),
        "parallel_seconds_off": round(off_seconds, 6),
    }
    try:
        report = json.loads(_RESULT_PATH.read_text())
    except (OSError, ValueError):
        report = {}
    report["backplane"] = section
    _RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    record_report(
        f"Backplane ({_CACHE_PROBE}, workers={summary['workers']}): "
        f"{len(summary['kinds'])} artifacts / {summary['bytes']} bytes "
        f"shared, {summary['attached']} attached, spawn "
        f"{summary['spawn_seconds_max'] * 1e3:.1f}ms, worker RSS "
        f"{summary['worker_rss_max_kb'] / 1024:.0f} MB, "
        f"{summary['worker_store_misses']} store misses; wall "
        f"on {on_seconds:.2f}s / off {off_seconds:.2f}s"
    )


def _scale_circuits() -> list[str]:
    """Scale-ladder circuits selected by ``REPRO_BENCH_SCALE``.

    ``1``/``true``/``all`` runs the whole 10k–100k ladder; a comma list
    (``syn12000,syn20000``) runs those rungs only; unset/0 skips."""
    value = os.environ.get("REPRO_BENCH_SCALE", "").strip().lower()
    if value in ("", "0", "false"):
        return []
    from repro.bench_gen.suite import scale_specs

    if value in ("1", "true", "all"):
        return [spec.name for spec in scale_specs()]
    return [name.strip() for name in value.split(",") if name.strip()]


@pytest.mark.skipif(not _scale_circuits(), reason="REPRO_BENCH_SCALE not set")
def test_scale_report():
    """Peak-RSS / wall-time curves over the streaming-scale ladder.

    Each rung runs in a fresh interpreter (``scale_runner.py``) under a
    hard address-space ceiling, so ``peak_rss_bytes`` is the honest
    process-wide bound and a memory blow-up fails the run instead of
    swapping.  The smallest rung is additionally run at ``workers=2``
    to record the work-stealing decision-queue timings.  Results merge
    into the ``scale`` section of ``BENCH_pipeline.json``."""
    import subprocess
    import sys

    names = _scale_circuits()
    runner = Path(__file__).parent / "scale_runner.py"
    env = dict(os.environ)
    src = str(Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def run_one(name: str, *extra: str) -> dict:
        command = [sys.executable, str(runner), name,
                   "--rss-limit-mb", "4096", *extra]
        proc = subprocess.run(
            command, capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, (
            f"{name} failed under the RSS ceiling:\n{proc.stderr}"
        )
        return json.loads(proc.stdout)

    entries = [run_one(name) for name in names]
    queue_probe = run_one(names[0], "--workers", "2")

    lines = ["Streaming scale ladder (fresh process per rung, "
             "4096 MB hard ceiling)",
             f"{'circuit':>10}  {'gates':>7}  {'dffs':>6}  {'pairs':>8}  "
             f"{'groups':>7}  {'wall(s)':>8}  {'peakRSS(MB)':>12}"]
    for entry in entries:
        lines.append(
            f"{entry['circuit']:>10}  {entry['num_gates']:>7}  "
            f"{entry['num_dffs']:>6}  {entry['connected_pairs']:>8}  "
            f"{entry['groups']:>7}  {entry['wall_seconds']:>8.1f}  "
            f"{entry['peak_rss_bytes'] / (1024 * 1024):>12.1f}"
        )
    if "decision_queue" in queue_probe:
        queue = queue_probe["decision_queue"]
        lines.append(
            f"queue probe {queue_probe['circuit']} workers="
            f"{queue['workers']}: {queue['units']} units of "
            f"~{queue['unit_pairs']} pairs (split at {queue['split']})"
        )

    try:
        report = json.loads(_RESULT_PATH.read_text())
    except (OSError, ValueError):
        report = {}
    report["scale"] = {
        "rss_limit_mb": 4096,
        "results": entries,
        "queue_probe": queue_probe,
    }
    _RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    lines.append(f"  written to {_RESULT_PATH.name}")
    record_report("\n".join(lines))
