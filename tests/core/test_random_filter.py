"""The random-simulation stage: sound drops, determinism, reporting."""

from hypothesis import given

from repro.circuit.library import fig1_circuit
from repro.circuit.topology import connected_ff_pairs
from repro.core.brute import brute_force_mc_pairs
from repro.core.random_filter import random_filter

from tests.core.pair_list_filter import pair_list_filter
from tests.strategies import random_sequential_circuit, seeds


@given(seeds)
def test_dropped_pairs_are_never_multi_cycle(seed):
    """Random simulation may only drop pairs with real counterexamples."""
    circuit = random_sequential_circuit(seed, max_inputs=2, max_dffs=3,
                                        max_gates=8)
    pairs = connected_ff_pairs(circuit)
    report = random_filter(circuit, pairs)
    surviving = {(p.source, p.sink) for p in report.survivors}
    mc_pairs = brute_force_mc_pairs(circuit)
    # Every true MC pair must survive (drops are sound).
    assert mc_pairs <= surviving


def test_fig1_drops_the_four_single_cycle_pairs(fig1):
    """Section 4.2: after Step 2 exactly these 5 pairs remain."""
    pairs = connected_ff_pairs(fig1)
    report = random_filter(fig1, pairs)
    names = sorted(
        (fig1.names[p.source], fig1.names[p.sink]) for p in report.survivors
    )
    assert names == [
        ("FF1", "FF1"), ("FF1", "FF2"), ("FF2", "FF2"),
        ("FF3", "FF2"), ("FF4", "FF1"),
    ]
    assert report.dropped == 4


def test_shift_register_fully_filtered(shift4):
    pairs = connected_ff_pairs(shift4)
    report = random_filter(shift4, pairs)
    assert not report.survivors
    assert report.dropped == len(pairs)


def test_deterministic_per_seed(fig1):
    pairs = connected_ff_pairs(fig1)
    first = random_filter(fig1, pairs, seed=5)
    second = random_filter(fig1, pairs, seed=5)
    assert [(p.source, p.sink) for p in first.survivors] == [
        (p.source, p.sink) for p in second.survivors
    ]
    assert first.rounds == second.rounds


def test_empty_pair_list():
    report = random_filter(fig1_circuit(), [])
    assert report.survivors == [] and report.rounds == 0


def test_patterns_accounting(fig1):
    pairs = connected_ff_pairs(fig1)
    report = random_filter(fig1, pairs, words=2)
    assert report.patterns == report.rounds * 128


def test_max_rounds_cap(fig1):
    pairs = connected_ff_pairs(fig1)
    report = random_filter(fig1, pairs, max_rounds=1)
    assert report.rounds == 1


def test_random_filter_k_sound(fig1):
    """k-frame drops may only remove pairs that truly violate k-cycle."""
    from repro.core.brute import brute_force_k_cycle_pairs
    from repro.core.random_filter import random_filter_k

    pairs = connected_ff_pairs(fig1)
    for k in (2, 3, 4):
        report = random_filter_k(fig1, pairs, k)
        surviving = {(p.source, p.sink) for p in report.survivors}
        assert brute_force_k_cycle_pairs(fig1, k) <= surviving


def test_random_filter_k_rejects_small_k(fig1):
    import pytest

    from repro.core.random_filter import random_filter_k

    with pytest.raises(ValueError):
        random_filter_k(fig1, connected_ff_pairs(fig1), 1)


def _report_key(report):
    return (
        [(p.source, p.sink) for p in report.dropped_pairs],
        report.rounds,
        report.patterns,
    )


@given(seeds)
def test_round_batching_never_changes_results(seed):
    """Super-round width is an execution detail: every ``round_batch``
    (and the per-node reference evaluator) must produce the same
    report."""
    from repro.core.random_filter import random_filter_k
    from tests.logic.python_sim import PythonBitSimulator

    circuit = random_sequential_circuit(seed, max_inputs=2, max_dffs=3,
                                        max_gates=8)
    pairs = connected_ff_pairs(circuit)
    baseline = random_filter(circuit, pairs, round_batch=1)
    for round_batch in (2, 3, 8):
        assert _report_key(
            random_filter(circuit, pairs, round_batch=round_batch)
        ) == _report_key(baseline)
    assert _report_key(
        random_filter(
            circuit, pairs, sim=PythonBitSimulator(circuit), round_batch=1
        )
    ) == _report_key(baseline)
    baseline_k = random_filter_k(circuit, pairs, 3, round_batch=1)
    assert _report_key(
        random_filter_k(circuit, pairs, 3, round_batch=8)
    ) == _report_key(baseline_k)


def test_caller_held_simulator_is_reused(fig1):
    from repro.logic.bitsim import BitSimulator

    pairs = connected_ff_pairs(fig1)
    sim = BitSimulator(fig1, words=4)
    with_sim = random_filter(fig1, pairs, sim=sim)
    without = random_filter(fig1, pairs)
    assert _report_key(with_sim) == _report_key(without)


def test_mismatched_simulator_rejected(fig1):
    import pytest

    from repro.logic.bitsim import BitSimulator

    pairs = connected_ff_pairs(fig1)
    with pytest.raises(ValueError):
        random_filter(fig1, pairs, words=4, sim=BitSimulator(fig1, words=2))


@given(seeds)
def test_pair_lists_match_the_oracle_in_input_order(seed):
    """Any pair list — a shuffled subset with repeats — is packed, filtered
    and read back in input order exactly as the one-bool-per-pair oracle
    keeps it."""
    import random

    from repro.core.random_filter import random_filter_k

    circuit = random_sequential_circuit(seed, max_dffs=7, max_gates=24)
    rng = random.Random(seed)
    pairs = connected_ff_pairs(circuit)
    pairs = rng.sample(pairs, rng.randint(0, len(pairs)))
    pairs += pairs[:2]
    rng.shuffle(pairs)
    assert random_filter(circuit, pairs) == pair_list_filter(circuit, pairs)
    assert random_filter_k(circuit, pairs, 3) == (
        pair_list_filter(circuit, pairs, 3)
    )


def _packed_alive(circuit, include_self_loops=True):
    """The connected-pair matrix the streaming pipeline filters over."""
    import numpy as np

    from repro.circuit.topology import sink_reach

    reach = sink_reach(circuit)
    alive = np.array(reach.rows, dtype=np.uint64)
    n = len(reach.dffs)
    if n and not include_self_loops:
        diag = np.arange(n)
        alive[diag, diag // 64] &= ~(
            np.uint64(1) << (diag % 64).astype(np.uint64)
        )
    return reach, alive


def _packed_survivor_pairs(reach, report):
    import numpy as np

    pairs = set()
    for j in range(len(reach.dffs)):
        for k in np.nonzero(
            np.unpackbits(
                report.alive[j].view(np.uint8), bitorder="little"
            )[: len(reach.dffs)]
        )[0]:
            pairs.add((reach.dffs[int(k)], reach.dffs[j]))
    return pairs


@given(seeds)
def test_packed_filter_matches_pair_list(seed):
    """The packed filter replays the exact pair-list RNG/drop discipline."""
    from repro.core.random_filter import random_filter_packed

    circuit = random_sequential_circuit(seed, max_dffs=7, max_gates=24)
    for include_self_loops in (True, False):
        pairs = connected_ff_pairs(
            circuit, include_self_loops=include_self_loops
        )
        reference = pair_list_filter(circuit, pairs)
        reach, alive = _packed_alive(circuit, include_self_loops)
        packed = random_filter_packed(circuit, alive)
        assert packed.rounds == reference.rounds
        assert packed.patterns == reference.patterns
        assert packed.initial == len(pairs)
        assert packed.dropped == len(reference.dropped_pairs)
        assert _packed_survivor_pairs(reach, packed) == {
            (p.source, p.sink) for p in reference.survivors
        }


def test_packed_filter_matches_pair_list_across_words_and_blocks():
    """76 FFs: two words per sink row, and five-row blocks."""
    from types import SimpleNamespace

    from repro.bench_gen.suite import spec_by_name
    from repro.bench_gen.synth import generate
    from repro.core.random_filter import _PackedDrops, _run_rounds

    circuit = generate(spec_by_name("syn330"))
    pairs = connected_ff_pairs(circuit)
    reference = pair_list_filter(circuit, pairs)
    reach, alive = _packed_alive(circuit)
    assert alive.shape[1] == 2
    strategy = _PackedDrops(alive.copy(), block_rows=5)
    rounds, patterns = _run_rounds(
        circuit, strategy, 2, 4, 256, 2002, None, 8
    )
    assert (rounds, patterns) == (reference.rounds, reference.patterns)
    report = SimpleNamespace(alive=strategy.alive)
    assert _packed_survivor_pairs(reach, report) == {
        (p.source, p.sink) for p in reference.survivors
    }


def test_packed_filter_matches_k_frame_variant(fig1):
    from repro.core.random_filter import random_filter_packed

    pairs = connected_ff_pairs(fig1)
    reference = pair_list_filter(fig1, pairs, 3)
    reach, alive = _packed_alive(fig1)
    packed = random_filter_packed(fig1, alive, frames=3)
    assert packed.rounds == reference.rounds
    assert packed.dropped == len(reference.dropped_pairs)
    assert _packed_survivor_pairs(reach, packed) == {
        (p.source, p.sink) for p in reference.survivors
    }


def test_packed_filter_empty_matrix(fig1):
    import numpy as np

    from repro.core.random_filter import random_filter_packed

    words = max(1, -(-len(fig1.dffs) // 64))
    alive = np.zeros((len(fig1.dffs), words), dtype=np.uint64)
    report = random_filter_packed(fig1, alive)
    assert report.rounds == 0 and report.dropped == 0
    assert report.initial == 0 and report.survivors == 0


def test_packed_filter_rejects_bad_shape(fig1):
    import numpy as np
    import pytest

    from repro.core.random_filter import random_filter_packed

    with pytest.raises(ValueError):
        random_filter_packed(
            fig1, np.zeros((1, 1), dtype=np.uint64)
        )
