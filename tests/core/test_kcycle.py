"""k-cycle detection: the Fig. 1 story plus differential validation.

Every k-cycle entry point decides on a :class:`DecisionSession` built
with ``k``.  The differentials below pin its k-frame case tail against
the old per-run walk (``tests/core/kcycle_oracle.py``), its packed
settle rule against a session whose pre-pass settles nothing, and its
``k = 2`` records against the multi-cycle run's.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench_gen.suite import suite
from repro.circuit.library import enabled_pipeline
from repro.circuit.timeframe import expand_cached
from repro.circuit.topology import FFPair, connected_ff_pairs
from repro.core.brute import brute_force_k_cycle_pairs
from repro.core.kcycle import (
    KCycleAnalyzer,
    cycle_budgets,
    is_k_cycle_pair,
    max_cycles,
)
from repro.core.result import Classification, Stage
from repro.core.session import DecisionSession

from tests.core.kcycle_oracle import KCycleWalk
from tests.core.pair_analysis import ScalarSession
from tests.strategies import random_sequential_circuit, seeds, shuffled


def test_fig1_ff1_ff2_is_exactly_three_cycle(fig1):
    """The paper: 'the paths from FF1 to FF2 are 3-cycle paths'."""
    pair = FFPair(fig1.id_of("FF1"), fig1.id_of("FF2"))
    assert is_k_cycle_pair(fig1, pair, 2)
    assert is_k_cycle_pair(fig1, pair, 3)
    assert not is_k_cycle_pair(fig1, pair, 4)
    assert max_cycles(fig1, pair) == 3


def test_k2_matches_mc_condition(fig1):
    from repro.core.detector import detect_multi_cycle_pairs

    mc = set(detect_multi_cycle_pairs(fig1).multi_cycle_pair_names())
    k2 = {
        (fig1.names[p.source], fig1.names[p.sink])
        for p in connected_ff_pairs(fig1)
        if is_k_cycle_pair(fig1, p, 2)
    }
    assert k2 == mc


@given(seeds)
def test_k3_agrees_with_brute_force(seed):
    circuit = random_sequential_circuit(seed, max_inputs=2, max_dffs=3,
                                        max_gates=7)
    if len(circuit.dffs) + 3 * len(circuit.inputs) > 12:
        return  # keep enumeration cheap
    expected = brute_force_k_cycle_pairs(circuit, 3)
    got = {
        (p.source, p.sink)
        for p in connected_ff_pairs(circuit)
        if is_k_cycle_pair(circuit, p, 3, backtrack_limit=100_000)
    }
    assert got == expected


@given(seeds)
def test_k_cycle_is_monotone(seed):
    """A k-cycle pair is also a (k-1)-cycle pair."""
    circuit = random_sequential_circuit(seed, max_inputs=2, max_dffs=3,
                                        max_gates=7)
    for pair in connected_ff_pairs(circuit)[:3]:
        if is_k_cycle_pair(circuit, pair, 4, backtrack_limit=100_000):
            assert is_k_cycle_pair(circuit, pair, 3, backtrack_limit=100_000)
            assert is_k_cycle_pair(circuit, pair, 2, backtrack_limit=100_000)


def test_pipeline_spacing_matches_budget():
    """Stage spacing s on the counter means consecutive banks are s-cycle."""
    circuit = enabled_pipeline(2, counter_width=2, spacing=3)
    pair = FFPair(circuit.id_of("r0"), circuit.id_of("r1"))
    assert max_cycles(circuit, pair, k_max=6) == 3


def test_cycle_budgets_equal_per_pair_scans():
    """One session group per k over the pairs still open (the report's
    k-cycle histogram) gives each pair the budget of its own scan."""
    for circuit in suite("tiny")[:3]:
        pairs = connected_ff_pairs(circuit)
        expected = []
        for pair in pairs:
            budget = 1
            while budget < 5 and is_k_cycle_pair(circuit, pair, budget + 1):
                budget += 1
            expected.append(budget)
        assert cycle_budgets(circuit, pairs, k_max=5) == expected


def test_max_cycles_on_single_cycle_pair():
    from repro.circuit.library import shift_register

    circuit = shift_register(2)
    pair = FFPair(circuit.id_of("s0"), circuit.id_of("s1"))
    assert max_cycles(circuit, pair) == 1


def test_rejects_k_below_two(fig1):
    with pytest.raises(ValueError):
        KCycleAnalyzer(fig1, 1)


def test_analyzer_returns_classification(fig1):
    analyzer = KCycleAnalyzer(fig1, 3)
    pair = FFPair(fig1.id_of("FF1"), fig1.id_of("FF2"))
    result = analyzer.analyze(pair)
    assert result.classification is Classification.MULTI_CYCLE
    assert result.k == 3


def test_kcycle_detector_pipeline(fig1):
    """The full k-cycle pipeline matches per-pair analysis and shrinks
    monotonically with k."""
    from repro.core.kcycle import KCycleDetector

    previous = None
    for k in (2, 3, 4):
        result = KCycleDetector(fig1, k).run()
        names = set(result.k_cycle_pair_names())
        if k == 2:
            from repro.core.detector import detect_multi_cycle_pairs

            assert names == set(
                detect_multi_cycle_pairs(fig1).multi_cycle_pair_names()
            )
        if previous is not None:
            assert names <= previous
        previous = names


def test_kcycle_detector_counts_sim_drops(fig1):
    from repro.core.kcycle import KCycleDetector

    result = KCycleDetector(fig1, 3).run()
    assert result.sim_dropped >= 4  # at least the four 1-cycle pairs
    assert result.connected_pairs == 9


def test_kcycle_detector_rejects_small_k(fig1):
    import pytest

    from repro.core.kcycle import KCycleDetector

    with pytest.raises(ValueError):
        KCycleDetector(fig1, 1)


def test_kcycle_detector_takes_detector_options(fig1):
    """One options object: the pool, self-loop and lint fields apply."""
    from repro.core.detector import DetectorOptions
    from repro.core.kcycle import KCycleDetector

    from tests.core.pool_helpers import forced_pool

    serial = KCycleDetector(fig1, 3).run()
    with forced_pool(unit_pairs=2):
        pooled = KCycleDetector(fig1, 3, DetectorOptions(workers=2)).run()
    assert [(r.pair, r.classification) for r in pooled.pair_results] == [
        (r.pair, r.classification) for r in serial.pair_results
    ]
    no_self = KCycleDetector(
        fig1, 3, DetectorOptions(include_self_loops=False)
    ).run()
    assert no_self.connected_pairs == 7
    assert KCycleDetector(fig1, 3).lint_report is None
    assert KCycleDetector(
        fig1, 3, DetectorOptions(lint="strict")
    ).lint_report.ok(strict=True)


def test_kcycle_detector_rejects_a_hazard_pass(fig1):
    from repro.core.detector import DetectorOptions
    from repro.core.kcycle import KCycleDetector

    with pytest.raises(ValueError, match="hazard_check"):
        KCycleDetector(fig1, 3, DetectorOptions(hazard_check="exact"))


@pytest.mark.parametrize("field, value", [
    ("search_engine", "sat"),
    ("static_learning", True),
    ("implication_db", True),
    ("hazard_check", "exact"),
    ("hazard_conflict_limit", 7),
    ("hazard_delays", "delays.json"),
    ("cache_dir", "/nonexistent/x"),
    ("cache_max_bytes", 1),
])
def test_kcycle_detector_rejects_options_it_never_reads(fig1, field, value):
    from repro.core.detector import DetectorOptions
    from repro.core.kcycle import KCycleDetector
    from repro.core.trace import Tracer

    tracer = Tracer()
    with pytest.raises(ValueError, match=field):
        KCycleDetector(
            fig1, 3, DetectorOptions(**{field: value}), tracer=tracer
        ).run()
    assert tracer.events == []


def test_run_start_names_the_engine_that_runs(fig1):
    """``run_start`` and ``run_end`` agree on the engine of a k-cycle run
    (its decider, not ``options.search_engine``) and of a podem run."""
    from repro.core.detector import DetectorOptions, MultiCycleDetector
    from repro.core.kcycle import KCycleDetector
    from repro.core.trace import Tracer

    kcycle = Tracer()
    KCycleDetector(fig1, 3, tracer=kcycle).run()
    podem = Tracer()
    MultiCycleDetector(
        fig1, DetectorOptions(search_engine="podem"), tracer=podem
    ).run()
    for tracer, engine in ((kcycle, "kcycle-3"), (podem, "podem")):
        (start,) = tracer.select("run_start")
        (end,) = tracer.select("run_end")
        assert start["engine"] == end["engine"] == engine


def test_kcycle_decider_takes_the_run_backtrack_limit(fig1):
    from repro.core.detector import DetectorOptions
    from repro.core.kcycle import KCycleDecider
    from repro.core.pipeline import AnalysisContext

    decider = KCycleDecider(3)
    decider.prepare(AnalysisContext(fig1, DetectorOptions(backtrack_limit=7)))
    assert decider._session.backtrack_limit == 7
    assert decider._session.k == 3


# ----------------------------------------------------------------------
# The k-frame session walk against its oracles.
# ----------------------------------------------------------------------
def _kframe_pairs(seed, order_seed, k):
    circuit = random_sequential_circuit(seed, max_inputs=4, max_dffs=6,
                                        max_gates=24)
    pairs = shuffled(connected_ff_pairs(circuit), order_seed)
    return expand_cached(circuit, frames=k), pairs


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    order_seed=st.integers(min_value=0, max_value=1000),
    k=st.sampled_from((2, 3, 4)),
    limit=st.sampled_from((0, 1, 50)),
)
def test_session_matches_the_kcycle_walk(seed, order_seed, k, limit):
    """Per pair, in any order, the session's k-cycle classification is
    the old per-run walk's."""
    expansion, pairs = _kframe_pairs(seed, order_seed, k)
    if not pairs:
        return
    session = DecisionSession(expansion, k=k, backtrack_limit=limit)
    got = [result.classification for result, _ in session.decide_group(pairs)]
    assert got == KCycleWalk(expansion, k, limit).classify(pairs)


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    order_seed=st.integers(min_value=0, max_value=1000),
    k=st.sampled_from((3, 4)),
    limit=st.sampled_from((0, 1, 50)),
)
def test_packed_settle_rule_keeps_kframe_records(seed, order_seed, k, limit):
    """The packed pre-pass settles only cases the scalar k-frame tail
    closes without a search, with the record that tail writes."""
    expansion, pairs = _kframe_pairs(seed, order_seed, k)
    if not pairs:
        return
    packed = DecisionSession(expansion, k=k, backtrack_limit=limit)
    scalar = ScalarSession(expansion, k=k, backtrack_limit=limit)
    assert [r for r, _ in packed.decide_group(pairs)] == [
        r for r, _ in scalar.decide_group(pairs)
    ]


@pytest.mark.parametrize("k", [3, 4])
def test_packed_prepass_settles_kframe_cases(k):
    """The k-frame settle rule is not vacuous on the tiny profile."""
    resolved = 0
    for circuit in suite("tiny"):
        pairs = connected_ff_pairs(circuit)
        expansion = expand_cached(circuit, frames=k)
        packed = DecisionSession(expansion, k=k)
        scalar = ScalarSession(expansion, k=k)
        assert [r for r, _ in packed.decide_group(pairs)] == [
            r for r, _ in scalar.decide_group(pairs)
        ]
        resolved += packed.packed_resolved
    assert resolved > 0


@pytest.mark.parametrize("index", range(4))
def test_k2_kcycle_run_equals_the_mc_run(index):
    """At k = 2 a k-cycle fold is the multi-cycle run: byte-identical
    pair records and equal session counters (timings aside)."""
    from repro.core.detector import DetectorOptions, MultiCycleDetector
    from repro.core.kcycle import KCycleDecider
    from repro.core.pipeline import AnalysisContext
    from repro.core.streaming import StreamingStage

    circuit = suite("tiny")[index]
    kcycle = StreamingStage(KCycleDecider(2), frames=2).run(
        AnalysisContext(circuit, DetectorOptions())
    )
    mc = MultiCycleDetector(circuit).run()
    assert json.dumps(kcycle.pair_records()) == json.dumps(mc.pair_records())

    def counters(result, block):
        return {
            key: value for key, value in result.metrics.get(block, {}).items()
            if key not in ("packed_us", "us")
        }

    for block in ("decision_session", "packed_implication"):
        assert counters(kcycle, block) == counters(mc, block)


def test_kcycle_trace_carries_the_session_record(fig1):
    """A k-cycle run traces like a multi-cycle one: pair events name the
    implication/ATPG stage and carry case counts, and run_end carries
    the decision_session and packed_implication blocks."""
    from repro.core.kcycle import KCycleDetector
    from repro.core.trace import Tracer

    tracer = Tracer()
    KCycleDetector(fig1, 3, tracer=tracer).run()
    decided = [
        event for event in tracer.select("pair")
        if event["stage"] != Stage.SIMULATION.value
    ]
    assert decided
    assert {event["stage"] for event in decided} <= {
        Stage.IMPLICATION.value, Stage.ATPG.value
    }
    assert all(event["cases"] >= 1 for event in decided)
    (end,) = tracer.select("run_end")
    assert end["metrics"]["decision_session"]["pairs"] == len(decided)
    assert "packed_implication" in end["metrics"]
