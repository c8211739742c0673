"""The launch-group fold against the staged reference flow.

The fold's contract is *byte identity* with the staged oracle of
``tests/core/staged_oracle.py``: for any circuit and any option
combination, ``pair_records()`` and every counter of the
:class:`~repro.core.result.DetectionResult` must match it exactly — only
peak memory and the trace shape may differ.  The tests here hold that
equality over random circuits (including the single-FF and
self-loop-only degenerate shapes), both self-loop modes, parallel
workers, work units that span and split launch groups, hazard
validation and the k-cycle variant.
"""

from __future__ import annotations

import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.circuit.library import fig1_circuit, s27
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.kcycle import KCycleDecider, KCycleDetector
from repro.core.pipeline import AnalysisContext
from repro.core.result import Stage
from repro.core.streaming import StreamingStage
from repro.core.trace import Tracer

from tests.core.staged_oracle import staged_detect
from tests.strategies import random_sequential_circuit, seeds


def _run(circuit, tracer=None, **kw):
    return MultiCycleDetector(
        circuit, DetectorOptions(**kw), tracer=tracer
    ).run()


#: session counters that follow the unit split (closures, gate visits)
#: or the wall clock (microseconds), not the verdicts.
_UNIT_SHAPED = ("packed_closures", "packed_visits", "packed_us")


def _fingerprint(result):
    """Everything the differential must hold equal (no wall-clock floats)."""
    session = result.metrics.get("decision_session")
    if session is not None:
        session = {
            key: value for key, value in session.items()
            if key not in _UNIT_SHAPED
        }
    return (
        json.dumps(result.pair_records(), sort_keys=True),
        result.connected_pairs,
        {
            stage.name: (s.multi_cycle, s.single_cycle, s.undecided)
            for stage, s in result.stats.items()
        },
        session,
        result.learned_implications,
        result.engine,
        result.hazard_mode,
        result.hazard_checked,
        result.hazard_flagged,
        result.hazard_flagged_pairs,
        [
            (d.pair, d.primary, d.secondary)
            for d in result.disagreements
        ],
    )


def _assert_identical(circuit, **kw):
    staged = _fingerprint(staged_detect(circuit, DetectorOptions(**kw)))
    folded = _fingerprint(_run(circuit, **kw))
    assert staged == folded


@given(seeds)
@settings(max_examples=25)
def test_streaming_matches_staged_on_random_circuits(seed):
    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=20)
    _assert_identical(circuit)


@given(seeds)
@settings(max_examples=10)
def test_streaming_matches_staged_without_self_loops(seed):
    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=20)
    _assert_identical(circuit, include_self_loops=False)


@given(seeds)
@settings(max_examples=8)
def test_streaming_matches_staged_with_workers(seed):
    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=20)
    _assert_identical(circuit, workers=2, parallel_threshold=2)


@given(seeds)
@settings(max_examples=8)
def test_streaming_matches_staged_with_hazard(seed):
    circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=16)
    _assert_identical(circuit, hazard_check="exact")


@given(seeds)
@settings(max_examples=8)
def test_streaming_matches_staged_without_random_sim(seed):
    circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=16)
    _assert_identical(circuit, use_random_sim=False)


def _with_hub(circuit, seed: int, sinks: int = 10):
    """``circuit`` plus one FF that launches into ``sinks`` new FFs.

    Its launch group holds more than the eight pairs at which two-pair
    units split a group.
    """
    rng = random.Random(seed)
    signals = [
        n for n, t in enumerate(circuit.types) if t != GateType.OUTPUT
    ]
    hub = circuit.add_node(GateType.DFF, (0,), "hub")
    feedback = circuit.add_node(
        GateType.XOR, (hub, rng.choice(signals)), "hub_next"
    )
    circuit.set_fanins(hub, (feedback,))
    for index in range(sinks):
        gate = circuit.add_node(
            rng.choice([GateType.AND, GateType.OR, GateType.XOR]),
            (hub, rng.choice(signals)),
            f"hub_g{index}",
        )
        circuit.add_node(GateType.DFF, (gate,), f"hub_ff{index}")
    return circuit


@given(seeds, st.sampled_from([1, 2]), st.booleans())
@settings(max_examples=12, deadline=None)
def test_units_across_and_within_launch_groups_match_staged(
    seed, workers, use_random_sim
):
    """Two-pair units span launch groups, and a low split floor cuts
    the hub's group of more than eight pairs across units."""
    circuit = _with_hub(
        random_sequential_circuit(seed, max_dffs=6, max_gates=20), seed
    )
    options = dict(
        workers=workers, parallel_threshold=2, chunk_pairs=2,
        use_random_sim=use_random_sim,
    )
    staged = staged_detect(circuit, DetectorOptions(**options))
    with mock.patch("repro.core.workqueue.MIN_SPLIT_PAIRS", 1):
        folded = _run(circuit, **options)
    assert json.dumps(folded.pair_records(), sort_keys=True) == json.dumps(
        staged.pair_records(), sort_keys=True
    )
    for stage in Stage:
        ours, theirs = folded.stats[stage], staged.stats[stage]
        assert (ours.multi_cycle, ours.single_cycle, ours.undecided) == (
            theirs.multi_cycle, theirs.single_cycle, theirs.undecided
        )


@pytest.mark.parametrize("workers", [1, 2])
def test_split_launch_group_matches_staged(workers):
    """The hub's group is cut across units and still matches the oracle."""
    circuit = _with_hub(fig1_circuit(), 0)
    options = dict(
        workers=workers, parallel_threshold=2, chunk_pairs=2,
        use_random_sim=False,
    )
    staged = staged_detect(circuit, DetectorOptions(**options))
    tracer = Tracer()
    with mock.patch("repro.core.workqueue.MIN_SPLIT_PAIRS", 1):
        folded = _run(circuit, tracer=tracer, **options)
    assert folded.pair_records() == staged.pair_records()
    hub = [g for g in tracer.select("launch_group") if g["source"] == "hub"]
    assert hub and hub[0]["pairs"] > 8  # above split_threshold(2) == 8
    if workers > 1:
        (queue,) = tracer.select("decision_queue")
        assert queue["split"] == 8
        assert queue["units"] >= hub[0]["pairs"] // 2


def test_streaming_matches_on_paper_circuits(fig1):
    for circuit in (fig1, s27()):
        _assert_identical(circuit)
        _assert_identical(circuit, hazard_check="exact", workers=2,
                          parallel_threshold=2)


def test_single_ff_self_loop_circuit():
    """Degenerate shape: one FF whose only pair is its own self loop."""
    builder = CircuitBuilder("one_ff")
    pi = builder.input("pi")
    ff = builder.dff("ff")
    builder.drive(ff, builder.xor(pi, ff, name="nxt"))
    builder.output("po", ff)
    circuit = builder.build()
    _assert_identical(circuit)
    _assert_identical(circuit, include_self_loops=False)
    result = _run(circuit, include_self_loops=False)
    assert result.connected_pairs == 0
    assert result.pair_results == []


def test_self_loop_only_circuit():
    """Two FFs, each feeding only itself: all pairs are self loops."""
    builder = CircuitBuilder("self_only")
    pi = builder.input("pi")
    fa = builder.dff("fa")
    fb = builder.dff("fb")
    builder.drive(fa, builder.xor(pi, fa, name="na"))
    builder.drive(fb, builder.and_(pi, fb, name="nb"))
    builder.output("poa", fa)
    builder.output("pob", fb)
    circuit = builder.build()
    _assert_identical(circuit)
    _assert_identical(circuit, include_self_loops=False)


def test_kcycle_streaming_matches_staged():
    circuit = random_sequential_circuit(7, max_dffs=6, max_gates=24)
    for k in (2, 3, 4):
        staged = staged_detect(
            circuit, decider=KCycleDecider(k, 50), frames=k
        )
        folded = KCycleDetector(circuit, k).run()
        assert [
            (r.pair, r.classification) for r in staged.pair_results
        ] == [(r.pair, r.classification) for r in folded.pair_results]
        assert staged.connected_pairs == folded.connected_pairs
        assert (
            staged.stats[Stage.SIMULATION].single_cycle == folded.sim_dropped
        )


def test_streaming_trace_events(fig1):
    """One launch_group event per group, with a stream_topology header."""
    tracer = Tracer()
    result = _run(fig1, tracer=tracer)
    header = tracer.select("stream_topology")
    assert len(header) == 1
    assert header[0]["pairs"] == result.connected_pairs
    groups = tracer.select("launch_group")
    assert len(groups) == header[0]["groups"]
    assert [g["group_index"] for g in groups] == list(range(len(groups)))
    assert all(g["groups_total"] == len(groups) for g in groups)
    # The last fold has seen every settled pair.
    assert groups[-1]["folded"] == result.connected_pairs
    assert sum(g["dropped"] for g in groups) == 4  # fig1's sim-dropped pairs
    # The fold is the whole run: no stage brackets.
    assert tracer.select("stage_start") == tracer.select("stage_end") == []


def test_streaming_stage_rejects_single_frame():
    with pytest.raises(ValueError):
        StreamingStage(frames=1)


def test_streaming_pipeline_runs_standalone(fig1):
    """The stage runs the whole flow and returns the result itself."""
    result = StreamingStage().run(AnalysisContext(fig1))
    staged = staged_detect(fig1)
    assert result.pair_records() == staged.pair_records()


def test_streaming_rejects_unknown_hazard_mode(fig1):
    with pytest.raises(ValueError):
        _run(fig1, hazard_check="sideways")


def test_unknown_hazard_mode_fails_before_decide_work():
    """The mode is checked before the decider is ever prepared."""
    tracer = Tracer()
    with pytest.raises(ValueError, match="hazard"):
        _run(fig1_circuit(), tracer=tracer, hazard_check="sideways")
    assert tracer.select("pair") == []
