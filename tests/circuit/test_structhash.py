"""Structural/cone hashing and the structure-vs-metadata version split."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.circuit import topology
from repro.circuit.builder import CircuitBuilder
from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, CircuitError
from repro.circuit.structhash import (
    capture_cone_hashes,
    cone_digests,
    content_key,
    launch_cone_hashes,
    structural_hash,
)
from repro.circuit.timeframe import expand_cached
from repro.logic.simplan import compiled_plan
from tests.circuit.cone_oracle import oracle_cone_hashes
from tests.core.test_incremental import eco_edit
from tests.strategies import random_sequential_circuit, seeds


def _two_ff_circuit(and_gate: bool = True, swap: bool = False):
    b = CircuitBuilder("pair")
    a = b.input("a")
    c = b.input("c")
    ff0 = b.dff("ff0")
    ff1 = b.dff("ff1")
    fanins = (ff0, a) if swap else (a, ff0)
    g = b.and_(*fanins, name="g") if and_gate else b.or_(*fanins, name="g")
    b.drive(ff0, b.xor(c, ff1, name="h"))
    b.drive(ff1, g)
    b.output("o", g)
    return b.build()


def _permuted_rebuild(circuit: Circuit) -> Circuit:
    """The same structure rebuilt with a different node-id layout.

    Combinational gates are appended in reverse creation order (their
    fanins already exist because sources go first), which permutes every
    internal id while preserving structure and interface names.
    """
    clone = Circuit(circuit.name)
    mapping: dict[int, int] = {}
    sources = [
        n for n in range(circuit.num_nodes)
        if circuit.types[n] in (GateType.INPUT, GateType.DFF,
                                GateType.CONST0, GateType.CONST1)
    ]
    for node_id in sources:
        mapping[node_id] = clone.add_node(
            circuit.types[node_id], (), circuit.names[node_id]
        )
    comb = [n for n in circuit.topo_order() if n not in mapping]
    placed: set[int] = set(mapping)
    remaining = list(comb)
    # Greedily place from the back when possible to shuffle the layout.
    while remaining:
        pick = None
        for candidate in reversed(remaining):
            if all(f in placed for f in circuit.fanins[candidate]):
                pick = candidate
                break
        assert pick is not None
        remaining.remove(pick)
        mapping[pick] = clone.add_node(
            circuit.types[pick],
            tuple(mapping[f] for f in circuit.fanins[pick]),
            circuit.names[pick],
        )
        placed.add(pick)
    for dff in circuit.dffs:
        clone.set_fanins(
            mapping[dff], tuple(mapping[f] for f in circuit.fanins[dff])
        )
    return clone


class TestStructuralHash:
    def test_stable_across_calls(self):
        circuit = _two_ff_circuit()
        assert structural_hash(circuit) == structural_hash(circuit)

    @given(seeds)
    def test_invariant_under_node_reordering(self, seed):
        circuit = random_sequential_circuit(seed)
        clone = _permuted_rebuild(circuit)
        assert clone.num_nodes == circuit.num_nodes
        assert structural_hash(clone) == structural_hash(circuit)

    def test_commutative_fanin_order_ignored(self):
        assert structural_hash(_two_ff_circuit(swap=False)) == (
            structural_hash(_two_ff_circuit(swap=True))
        )

    def test_gate_flip_changes_hash(self):
        assert structural_hash(_two_ff_circuit(and_gate=True)) != (
            structural_hash(_two_ff_circuit(and_gate=False))
        )

    def test_internal_rename_keeps_hash(self):
        circuit = _two_ff_circuit()
        before = structural_hash(circuit)
        circuit.rename_node(circuit.id_of("g"), "g_renamed")
        assert structural_hash(circuit) == before

    def test_interface_rename_changes_hash(self):
        circuit = _two_ff_circuit()
        before = structural_hash(circuit)
        circuit.rename_node(circuit.id_of("ff0"), "ff0_renamed")
        assert structural_hash(circuit) != before

    def test_structural_edit_changes_hash(self):
        circuit = _two_ff_circuit()
        before = structural_hash(circuit)
        extra = circuit.add_node(
            GateType.NOT, (circuit.id_of("g"),), "inv"
        )
        circuit.add_node(GateType.OUTPUT, (extra,), "o2")
        assert structural_hash(circuit) != before


class TestContentKey:
    def test_sensitive_to_id_layout(self):
        circuit = _two_ff_circuit()
        clone = _permuted_rebuild(circuit)
        # Same structure, same structural hash — but different id layout,
        # so id-referencing artifacts must not be shared.
        assert structural_hash(clone) == structural_hash(circuit)
        assert content_key(clone) != content_key(circuit)

    def test_names_variant_tracks_renames(self):
        circuit = _two_ff_circuit()
        plain = content_key(circuit)
        named = content_key(circuit, include_names=True)
        circuit.rename_node(circuit.id_of("g"), "g2")
        assert content_key(circuit) == plain
        assert content_key(circuit, include_names=True) != named


class TestVersionSplit:
    def test_rename_is_metadata_only(self):
        circuit = _two_ff_circuit()
        version = circuit.version
        meta = circuit.meta_version
        circuit.rename_node(circuit.id_of("g"), "g2")
        assert circuit.version == version
        assert circuit.meta_version == meta + 1

    def test_rename_keeps_structure_scoped_artifacts(self):
        circuit = _two_ff_circuit()
        plan = compiled_plan(circuit)
        circuit.rename_node(circuit.id_of("g"), "g2")
        assert compiled_plan(circuit) is plan

    def test_rename_invalidates_name_scoped_artifacts(self):
        circuit = _two_ff_circuit()
        table = launch_cone_hashes(circuit)
        circuit.rename_node(circuit.id_of("ff0"), "ff0b")
        assert launch_cone_hashes(circuit) is not table

    def test_duplicate_rename_rejected(self):
        circuit = _two_ff_circuit()
        with pytest.raises(CircuitError):
            circuit.rename_node(circuit.id_of("g"), "ff0")

    def test_builder_rename(self):
        b = CircuitBuilder("r")
        a = b.input("a")
        ff = b.dff("ff")
        g = b.and_(a, ff, name="g")
        b.drive(ff, g)
        b.output("o", g)
        circuit = b.build()
        before = structural_hash(circuit)
        b.rename(g, "g_new")
        assert circuit.names[g] == "g_new"
        assert structural_hash(circuit) == before


class TestConeHashes:
    def test_cones_cover_all_dffs(self):
        circuit = _two_ff_circuit()
        launch = launch_cone_hashes(circuit)
        capture = capture_cone_hashes(circuit)
        assert set(launch) == set(circuit.dffs)
        assert set(capture) == set(circuit.dffs)

    def test_edit_outside_cone_is_local(self):
        """An edit in one FF's cone leaves disjoint cones' hashes alone."""
        b = CircuitBuilder("split")
        a = b.input("a")
        c = b.input("c")
        ff0 = b.dff("ff0")
        ff1 = b.dff("ff1")
        b.drive(ff0, b.and_(a, ff0, name="g0"))
        b.drive(ff1, b.or_(c, ff1, name="g1"))
        b.output("o0", ff0)
        b.output("o1", ff1)
        base = b.build()

        b2 = CircuitBuilder("split")
        a = b2.input("a")
        c = b2.input("c")
        ff0 = b2.dff("ff0")
        ff1 = b2.dff("ff1")
        b2.drive(ff0, b2.and_(a, ff0, name="g0"))
        b2.drive(ff1, b2.nor(c, ff1, name="g1"))  # the ECO: OR -> NOR
        b2.output("o0", ff0)
        b2.output("o1", ff1)
        edited = b2.build()

        ff0_id = base.id_of("ff0")
        ff1_id = base.id_of("ff1")
        assert launch_cone_hashes(base)[ff0_id] == (
            launch_cone_hashes(edited)[ff0_id]
        )
        assert capture_cone_hashes(base)[ff0_id] == (
            capture_cone_hashes(edited)[ff0_id]
        )
        assert launch_cone_hashes(base)[ff1_id] != (
            launch_cone_hashes(edited)[ff1_id]
        )
        assert capture_cone_hashes(base)[ff1_id] != (
            capture_cone_hashes(edited)[ff1_id]
        )


def _keyed(tag: str, circuit: Circuit, tables) -> dict:
    """``(tag, FF name, launch|capture) -> digest``: FFs matched by name."""
    launch, capture = tables
    return {
        (tag, circuit.names[dff], kind): table[dff]
        for dff in circuit.dffs
        for kind, table in (("launch", launch), ("capture", capture))
    }


def _same_relation(oracle: dict, packed: dict) -> bool:
    """Two digest tables over the same keys split them the same way."""
    assert oracle.keys() == packed.keys()
    pairs = {(oracle[key], packed[key]) for key in oracle}
    return len(pairs) == len(set(oracle.values())) == len(set(packed.values()))


class TestPackedConePass:
    """The packed cone pass against the scalar walk of ``cone_oracle``."""

    @pytest.mark.parametrize("frames", [2, 3])
    @given(seeds, st.integers(0, 2))
    def test_same_equality_relation_as_oracle(self, frames, seed, kind):
        """Within one circuit and across a base and its ECO edit (flip,
        rewire, DFF insertion), both tables equate the same keys."""
        base = random_sequential_circuit(seed)
        edited = eco_edit(base, seed, kind)
        assume(edited is not None)
        oracle: dict = {}
        packed: dict = {}
        for tag, circuit in (("base", base), ("edited", edited)):
            oracle |= _keyed(tag, circuit, oracle_cone_hashes(circuit, frames))
            packed |= _keyed(tag, circuit, (
                launch_cone_hashes(circuit, frames),
                capture_cone_hashes(circuit, frames),
            ))
        assert _same_relation(oracle, packed)

    @given(seeds, st.integers(0, 2))
    def test_root_blocks_change_nothing(self, seed, kind):
        """A one-word budget sweeps the cones in several root blocks of one
        ``uint64`` word each (never a dense ``nodes × roots`` matrix), with
        the digests of the one-block sweep and the oracle's relation."""
        base = random_sequential_circuit(
            seed, max_inputs=4, max_dffs=80, max_gates=40
        )
        assume(len(base.dffs) > 32)
        edited = eco_edit(base, seed, kind)
        assume(edited is not None)
        oracle: dict = {}
        packed: dict = {}
        for tag, circuit in (("base", base), ("edited", edited)):
            expansion = expand_cached(circuit, 2)
            ff_at = expansion.ff_at
            roots = [[node] for node in ff_at[1]] + [
                list(nodes) for nodes in zip(ff_at[1], ff_at[2])
            ]
            whole = cone_digests(expansion.comb, roots)
            shapes = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(topology, "FULL_REACH_BUDGET_WORDS", 1)
                sweep = topology.or_sweep
                patch.setattr(topology, "or_sweep", lambda rows, plan: (
                    shapes.append(rows.shape), sweep(rows, plan)
                ))
                blocked = cone_digests(expansion.comb, roots)
            assert len(shapes) == -(-len(roots) // 64) > 1
            assert set(shapes) == {(expansion.comb.num_nodes, 1)}
            assert blocked == whole
            count = len(circuit.dffs)
            packed |= _keyed(tag, circuit, (
                dict(zip(circuit.dffs, blocked[:count])),
                dict(zip(circuit.dffs, blocked[count:])),
            ))
            oracle |= _keyed(tag, circuit, oracle_cone_hashes(circuit))
        assert _same_relation(oracle, packed)
