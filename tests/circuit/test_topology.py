"""FF-pair connectivity.

The connected relation lives in the packed sink-reach matrix; the
per-sink set BFS of ``tests/circuit/bfs_oracle.py`` is the reference,
and the property tests here hold the two exactly equal — pair lists
(with and without self loops), per-sink source sets and the canonical
ordering.
"""

from hypothesis import example, given

from repro.bench_gen.suite import suite
from repro.circuit.library import shift_register
from repro.circuit.topology import (
    FFPair,
    build_sink_reach,
    connected_ff_pairs,
    connected_pair_arrays,
    sink_reach,
    source_ffs_of_sink,
)
from tests.circuit.bfs_oracle import (
    connected_ff_pairs_bfs,
    source_ffs_of_sink_bfs,
)
from tests.strategies import random_sequential_circuit, seeds


def _names(circuit, pairs):
    return sorted((circuit.names[p.source], circuit.names[p.sink]) for p in pairs)


def test_fig1_connected_pairs_match_paper(fig1):
    """Step 1 of the paper's Section 4.2 example: exactly these 9 pairs."""
    assert _names(fig1, connected_ff_pairs(fig1)) == [
        ("FF1", "FF1"), ("FF1", "FF2"), ("FF2", "FF2"),
        ("FF3", "FF1"), ("FF3", "FF2"), ("FF3", "FF4"),
        ("FF4", "FF1"), ("FF4", "FF2"), ("FF4", "FF3"),
    ]


def test_self_loops_can_be_excluded(fig1):
    pairs = connected_ff_pairs(fig1, include_self_loops=False)
    names = _names(fig1, pairs)
    assert ("FF1", "FF1") not in names
    assert ("FF2", "FF2") not in names
    assert len(names) == 7  # fig1 has exactly two self-loop pairs


def test_shift_register_pairs_are_chain(shift4):
    names = _names(shift4, connected_ff_pairs(shift4))
    assert names == [("s0", "s1"), ("s1", "s2"), ("s2", "s3")]


def test_source_ffs_of_sink(fig1):
    sink = fig1.id_of("FF2")
    sources = {fig1.names[s] for s in source_ffs_of_sink(fig1, sink)}
    assert sources == {"FF1", "FF2", "FF3", "FF4"}


def test_pairs_sorted_and_deterministic(pipeline):
    pairs1 = connected_ff_pairs(pipeline)
    pairs2 = connected_ff_pairs(pipeline)
    assert pairs1 == pairs2
    keys = [(p.source, p.sink) for p in pairs1]
    assert keys == sorted(keys)


# ----------------------------------------------------------------------
# Bitset reachability pass vs the set-BFS reference
# ----------------------------------------------------------------------
@given(seeds)
def test_bitset_pairs_equal_bfs_reference(seed):
    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=16)
    assert connected_ff_pairs(circuit) == connected_ff_pairs_bfs(circuit)
    assert connected_ff_pairs(circuit, include_self_loops=False) == (
        connected_ff_pairs_bfs(circuit, include_self_loops=False)
    )


@given(seeds)
def test_bitset_source_sets_equal_bfs_reference(seed):
    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=16)
    for sink in circuit.dffs:
        assert source_ffs_of_sink(circuit, sink) == (
            source_ffs_of_sink_bfs(circuit, sink)
        )


def test_bitset_pairs_equal_bfs_on_synthetic_suite():
    for circuit in suite("tiny"):
        assert connected_ff_pairs(circuit) == connected_ff_pairs_bfs(circuit)
        assert connected_ff_pairs(circuit, False) == (
            connected_ff_pairs_bfs(circuit, False)
        )


def test_pair_arrays_match_pairs_in_canonical_order(fig1):
    sources, sinks = connected_pair_arrays(fig1)
    pairs = connected_ff_pairs(fig1)
    assert [FFPair(s, t) for s, t in zip(sources.tolist(), sinks.tolist())] == pairs
    keys = list(zip(sources.tolist(), sinks.tolist()))
    assert keys == sorted(keys)


def test_sink_reach_rows_and_sources(fig1):
    reach = sink_reach(fig1)
    assert reach.words == 1
    assert reach.rows.shape == (len(fig1.dffs), 1)
    assert not reach.rows.flags.writeable
    assert not reach.blocked
    for k, sink in enumerate(reach.dffs):
        bits = int(reach.rows[k, 0])
        sources = {dff for j, dff in enumerate(reach.dffs) if bits >> j & 1}
        assert sources == source_ffs_of_sink(fig1, sink)
    assert source_ffs_of_sink(fig1, fig1.id_of("FF4")) == {fig1.id_of("FF3")}


def test_sink_reach_is_cached_and_version_invalidated(shift4):
    from repro.circuit.gates import GateType

    first = sink_reach(shift4)
    assert sink_reach(shift4) is first
    assert build_sink_reach(shift4) is not first  # raw builder never caches
    shift4.add_node(GateType.INPUT, (), "late_pi")
    assert sink_reach(shift4) is not first


def test_no_dffs_yields_no_pairs():
    from repro.circuit.builder import CircuitBuilder

    builder = CircuitBuilder("comb")
    a, b = builder.input("a"), builder.input("b")
    builder.output("o", builder.and_(a, b, name="g"))
    circuit = builder.build()
    assert connected_ff_pairs(circuit) == []
    sources, sinks = connected_pair_arrays(circuit)
    assert len(sources) == 0 and len(sinks) == 0


def test_wide_circuit_spills_into_second_word():
    circuit = shift_register(70)  # 70 DFFs -> words = 2
    reach = sink_reach(circuit)
    assert reach.words == 2
    assert connected_ff_pairs(circuit) == connected_ff_pairs_bfs(circuit)


def test_iter_launch_groups_chain_to_connected_pairs(fig1):
    from repro.circuit.topology import iter_launch_groups

    for self_loops in (True, False):
        chained = [
            FFPair(group.source, int(sink))
            for group in iter_launch_groups(fig1, self_loops)
            for sink in group.sinks
        ]
        assert chained == connected_ff_pairs(
            fig1, include_self_loops=self_loops
        )


@given(seeds)
def test_launch_group_stats_count_pairs(seed):
    from repro.circuit.topology import iter_launch_groups, launch_group_stats

    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=20)
    for self_loops in (True, False):
        groups, pairs = launch_group_stats(circuit, self_loops)
        listed = list(iter_launch_groups(circuit, self_loops))
        assert groups == len(listed)
        assert pairs == sum(len(group.sinks) for group in listed)
        assert pairs == len(
            connected_ff_pairs(circuit, include_self_loops=self_loops)
        )


@given(seeds.map(
    lambda seed: random_sequential_circuit(seed, max_dffs=8, max_gates=24)
))
@example(shift_register(130))  # three words: three one-word blocks
def test_blocked_sink_reach_matches_full_build(circuit):
    """Row-blocked packed reachability is byte-identical to one sweep."""
    import numpy as np

    from repro.circuit import topology as topo

    full = topo.build_sink_reach(circuit)
    budget = topo.FULL_REACH_BUDGET_WORDS
    topo.FULL_REACH_BUDGET_WORDS = 0  # force the blocked path
    try:
        blocked = topo.build_sink_reach(circuit, block_words=1)
    finally:
        topo.FULL_REACH_BUDGET_WORDS = budget
    assert blocked.blocked and not full.blocked
    assert np.array_equal(full.rows, blocked.rows)
    assert full.dffs == blocked.dffs
