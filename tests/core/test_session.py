"""DecisionSession: shared-launch prefixes must be invisible in results.

The session splits each case premise into a cached launch prefix plus a
per-pair capture suffix, after a packed pre-pass that settles the
search-free cases.  The confluence argument in ``repro.core.session``
claims this cannot change anything observable — verdicts, stage
attribution, case lists, decision/backtrack counts, witnesses.  These
tests pin that claim against the fresh-engine oracle
(:class:`PairAnalyzer`, one engine per pair, full premise per case),
against the brute-force simulator, and across arbitrary pair orderings;
plus the launch-group sharding and observability plumbing the pipeline
builds on top.  Tests of the scalar walk's own counters run on
:class:`ScalarSession`, so that packing cannot leave them vacuous.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.library import shift_register
from repro.circuit.timeframe import expand_cached
from repro.circuit.topology import FFPair, connected_ff_pairs
from repro.core.brute import brute_force_mc_pairs
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.result import Classification
from repro.core.session import DecisionSession, launch_runs
from repro.core.trace import Tracer
from tests.core.pair_analysis import PairAnalyzer, ScalarSession
from tests.core.pool_helpers import forced_pool, launch_units
from tests.strategies import random_sequential_circuit, seeds, shuffled


def oracle_results(circuit, pairs, search_engine="dalg"):
    """Fresh engine per pair: the strongest isolation baseline."""
    expansion = expand_cached(circuit, frames=3)
    out = []
    for pair in pairs:
        analyzer = PairAnalyzer(expansion, search_engine=search_engine)
        out.append(analyzer.analyze(pair))
    return out


def session_results(circuit, pairs, session_class=DecisionSession, **kwargs):
    expansion = expand_cached(circuit, frames=3)
    session = session_class(expansion, **kwargs)
    return [result for result, _ in session.decide_group(pairs)], session


# ----------------------------------------------------------------------
# Equivalence against the fresh-engine oracle.
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(seed=seeds, order_seed=st.integers(min_value=0, max_value=1000))
def test_session_matches_fresh_engine_oracle(seed, order_seed):
    """Any pair ordering, shared engine + prefixes == fresh engine/pair.

    Full-record equality: classification, stage, and every CaseResult
    field (outcomes, decision/backtrack counts, witnesses).
    """
    circuit = random_sequential_circuit(seed)
    pairs = shuffled(connected_ff_pairs(circuit), order_seed)
    if not pairs:
        return
    expected = oracle_results(circuit, pairs)
    got, _ = session_results(circuit, pairs)
    assert got == expected


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_session_podem_matches_oracle(seed):
    circuit = random_sequential_circuit(seed)
    pairs = connected_ff_pairs(circuit)
    if not pairs:
        return
    expected = oracle_results(circuit, pairs, search_engine="podem")
    got, _ = session_results(circuit, pairs, search_engine="podem")
    assert got == expected


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_session_agrees_with_brute_force(seed):
    """Exhaustive simulation oracle on the session's definite verdicts."""
    circuit = random_sequential_circuit(seed, max_dffs=3, max_gates=8)
    pairs = connected_ff_pairs(circuit)
    if not pairs:
        return
    truth = brute_force_mc_pairs(circuit)
    results, _ = session_results(circuit, pairs)
    for result in results:
        if result.classification is Classification.UNDECIDED:
            continue
        expected = (result.pair.source, result.pair.sink) in truth
        assert result.is_multi_cycle == expected


# ----------------------------------------------------------------------
# Session behaviour and counters.
# ----------------------------------------------------------------------
def test_counters_account_for_every_pair(fig1):
    pairs = connected_ff_pairs(fig1)
    results, session = session_results(fig1, pairs, ScalarSession)
    stats = session.stats()
    assert stats["pairs"] == len(pairs) == len(results)
    # One miss per (launch FF, polarity) actually reached; each further
    # unsettled pair under the same launch is a hit.
    per_pair = [r.metrics for r in results]
    assert all(m is not None for m in per_pair)
    assert sum(m["prefix_misses"] for m in per_pair) == stats["prefix_misses"]
    assert sum(m["prefix_hits"] for m in per_pair) == stats["prefix_hits"]
    assert sum(m["implications"] for m in per_pair) == stats["implications"]
    assert stats["trail_high_water"] > 0


def test_prefix_cache_hits_within_a_launch_group():
    """A shift register's FF0 launches into FF1..: one run, shared work."""
    circuit = shift_register(5)
    pairs = connected_ff_pairs(circuit)
    runs = launch_runs(pairs)
    assert sum(end - start for start, end in runs) == len(pairs)
    results, session = session_results(circuit, pairs, ScalarSession)
    multi_pair_runs = [(s, e) for s, e in runs if e - s > 1]
    if multi_pair_runs:
        assert session.prefix_hits > 0
    assert all(not r.is_multi_cycle for r in results)


def test_engine_state_is_clean_between_groups(fig1):
    """Deciding twice on one session gives identical answers."""
    pairs = connected_ff_pairs(fig1)
    expansion = expand_cached(fig1, frames=3)
    session = DecisionSession(expansion)
    first = [r for r, _ in session.decide_group(pairs)]
    second = [r for r, _ in session.decide_group(pairs)]
    assert first == second
    assert session.engine.assignment.num_assigned() == 0


def test_session_rejects_bad_configuration(fig1):
    expansion = expand_cached(fig1, frames=3)
    with pytest.raises(ValueError, match="search engine"):
        DecisionSession(expansion, search_engine="cdcl")
    with pytest.raises(ValueError, match="2-frame"):
        DecisionSession(expand_cached(fig1, frames=1))


# ----------------------------------------------------------------------
# Pairs the packed pre-pass settles skip the launch-run walk.
# ----------------------------------------------------------------------
class OpenPairsSession(DecisionSession):
    """A session whose pre-pass leaves the pairs at ``open_pairs``
    (indices in the group) to the walk, whatever it settled."""

    open_pairs: frozenset = frozenset()

    def _packed_resolve(self, pairs):
        resolved = super()._packed_resolve(pairs)
        return {
            key: case for key, case in resolved.items()
            if key[0] not in self.open_pairs
        }


def _fully_settled(session, pairs):
    resolved = session._packed_resolve(pairs)
    return [
        all((index, a, b) in resolved for a in (0, 1) for b in (0, 1))
        for index in range(len(pairs))
    ]


def _walk_stats(session):
    stats = session.stats()
    return {key: stats[key] for key in (
        "implications", "prefix_hits", "prefix_misses", "launch_conflicts",
        "trail_high_water",
    )}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_mixed_launch_run_matches_scalar_session(k):
    """One launch run, settled pairs first, between and last: every
    record equals the unpacked walk's, settled pairs carry zero walk
    counters, and the walk does exactly what it does without them."""
    from repro.bench_gen.suite import spec_by_name
    from repro.bench_gen.synth import generate

    circuit = generate(spec_by_name("syn170"))
    pairs = connected_ff_pairs(circuit)
    expansion = expand_cached(circuit, frames=k)
    settled = _fully_settled(DecisionSession(expansion, k=k), pairs)
    for start, end in launch_runs(pairs):
        done = [i for i in range(start, end) if settled[i]]
        walked = [i for i in range(start, end) if not settled[i]]
        if len(done) >= 3 and len(walked) >= 2:
            break
    else:  # pragma: no cover - the circuit is fixed
        raise AssertionError(f"syn170 has no mixed launch run at k={k}")
    group = [pairs[i] for i in (done[0], walked[0], done[1], walked[1], done[2])]

    session = DecisionSession(expansion, k=k)
    got = session.decide_group(group)
    expected = ScalarSession(expansion, k=k).decide_group(group)
    assert [r for r, _ in got] == [r for r, _ in expected]
    for position in (0, 2, 4):
        result, seconds = got[position]
        assert result.classification is Classification.MULTI_CYCLE
        assert result.metrics == {
            "implications": 0, "prefix_hits": 0, "prefix_misses": 0,
        }
        assert seconds >= 0
    walk_only = DecisionSession(expansion, k=k)
    walk_only.decide_group([group[1], group[3]])
    assert _walk_stats(session) == _walk_stats(walk_only)


@settings(max_examples=25, deadline=None)
@given(
    seed=seeds,
    k=st.sampled_from([2, 3, 4]),
    open_mask=st.integers(min_value=0, max_value=(1 << 24) - 1),
)
def test_forced_open_pairs_match_scalar_session(seed, k, open_mask):
    """Whichever pairs the walk takes, the records are the unpacked
    walk's: the settled-pair shortcut and the walk agree pair by pair."""
    circuit = random_sequential_circuit(seed)
    pairs = connected_ff_pairs(circuit)
    if not pairs:
        return
    expansion = expand_cached(circuit, frames=k)
    session = OpenPairsSession(expansion, k=k)
    session.open_pairs = frozenset(
        index for index in range(len(pairs)) if open_mask >> (index % 24) & 1
    )
    expected = ScalarSession(expansion, k=k).decide_group(pairs)
    assert [r for r, _ in session.decide_group(pairs)] == [
        r for r, _ in expected
    ]


def test_all_settled_group_never_touches_the_scalar_engine():
    from repro.bench_gen.suite import spec_by_name
    from repro.bench_gen.synth import generate

    circuit = generate(spec_by_name("syn170"))
    pairs = connected_ff_pairs(circuit)
    expansion = expand_cached(circuit, frames=2)
    settled = _fully_settled(DecisionSession(expansion), pairs)
    group = [pair for pair, done in zip(pairs, settled) if done]
    assert len(group) > 10
    session = DecisionSession(expansion)
    results = session.decide_group(group)
    assert session.engine.implications == 0
    assert session.stats()["prefix_misses"] == 0
    assert session.stats()["pairs"] == len(group)
    assert [r for r, _ in results] == [
        r for r, _ in ScalarSession(expansion).decide_group(group)
    ]


# ----------------------------------------------------------------------
# Launch-group sharding.
# ----------------------------------------------------------------------
def _fake_pairs(sources):
    return [FFPair(source, sink) for sink, source in enumerate(sources)]


def test_launch_chunks_never_split_a_group():
    pairs = _fake_pairs([1, 1, 1, 2, 2, 3, 4, 4, 4, 4, 5])
    for size in range(1, len(pairs) + 2):
        chunks = launch_units(pairs, size)
        # Partition in order.
        assert [p for chunk in chunks for p in chunk] == pairs
        # No launch group straddles a chunk boundary.
        for left, right in zip(chunks, chunks[1:]):
            assert left[-1].source != right[0].source


def test_launch_chunks_oversized_group_is_one_chunk():
    pairs = _fake_pairs([7] * 10 + [8])
    chunks = launch_units(pairs, 3)
    assert [len(c) for c in chunks] == [10, 1]


def test_launch_runs_handles_scattered_sources():
    pairs = _fake_pairs([1, 2, 1, 1, 3])
    assert launch_runs(pairs) == [(0, 1), (1, 2), (2, 4), (4, 5)]
    assert launch_runs([]) == []


# ----------------------------------------------------------------------
# Pipeline integration: trace events and serial/parallel identity.
# ----------------------------------------------------------------------
def test_decision_session_event_and_pair_metrics(fig1):
    tracer = Tracer()
    result = MultiCycleDetector(fig1, DetectorOptions(), tracer=tracer).run()
    (end,) = tracer.select("run_end")
    assert end["engine"] == "dalg"
    session = end["metrics"]["decision_session"]
    assert session["pairs"] == result.metrics["decision_session"]["pairs"]
    decided = [
        e for e in tracer.select("pair") if e["stage"] != "sim"
    ]
    assert decided
    assert all("implications" in e and "prefix_hits" in e for e in decided)


def test_detection_result_carries_session_counters(fig1):
    result = MultiCycleDetector(fig1, DetectorOptions()).run()
    session = result.metrics["decision_session"]
    # fig1's packed closure settles every case: the scalar walk never runs.
    assert session["packed_lanes"] == 4 * session["pairs"] > 0
    assert session["packed_resolved"] == session["packed_lanes"]
    assert session["packed_fallbacks"] == 0
    assert session["implications"] == 0
    assert result.metrics["packed_implication"]["lanes"] == (
        session["packed_lanes"]
    )
    # sat decider has no session.
    sat = MultiCycleDetector(
        fig1, DetectorOptions(search_engine="sat")
    ).run()
    assert "decision_session" not in sat.metrics
    assert "packed_implication" not in sat.metrics


def test_parallel_session_records_match_serial():
    circuit = random_sequential_circuit(2002, max_dffs=6, max_gates=20)
    serial = MultiCycleDetector(circuit, DetectorOptions()).run()
    with forced_pool():
        parallel = MultiCycleDetector(
            circuit, DetectorOptions(workers=2)
        ).run()
    as_json = lambda r: json.dumps(r.pair_records(), sort_keys=True)  # noqa: E731
    assert as_json(parallel) == as_json(serial)
    assert (
        parallel.metrics.get("decision_session")
        == serial.metrics.get("decision_session")
    )
