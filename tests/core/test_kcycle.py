"""k-cycle detection: the Fig. 1 story plus differential validation."""

import pytest
from hypothesis import given

from repro.circuit.library import enabled_pipeline
from repro.circuit.topology import FFPair, connected_ff_pairs
from repro.core.brute import brute_force_k_cycle_pairs
from repro.core.kcycle import KCycleAnalyzer, is_k_cycle_pair, max_cycles
from repro.core.result import Classification

from tests.strategies import random_sequential_circuit, seeds


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
    ("hazard_backtrack_limit", 7),
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
    assert decider._analyzer.backtrack_limit == 7
