"""Incremental ECO re-analysis must be indistinguishable from a full run.

The contract: after any single-gate ECO edit, merging inherited verdicts
with re-decided ones yields ``pair_records`` *byte-identical* to a fresh
full run of the edited netlist — against both the launch-group fold and
the staged reference flow of ``tests/core/staged_oracle.py``.  Hypothesis drives random circuits and random
edits (gate-type flips, fanin rewires, DFF insertions) at the property.
"""

import hashlib
import json
import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, validate
from repro.circuit.structhash import (
    capture_cone_hashes,
    launch_cone_hashes,
)
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.incremental import (
    hazard_fingerprint,
    incremental_detect,
    load_result_bundle,
    options_fingerprint,
    result_bundle,
    save_result_bundle,
    witness_layout,
)
from repro.core.pipeline import HAZARD_BACKTRACK_LIMIT
from repro.core.result import HazardVerdictKind, Stage
from repro.store import ArtifactStore
from tests.analysis.oracle_sweep import parity_mux_circuit
from tests.core.bundle_oracle import from_records, record_view
from tests.core.staged_oracle import staged_detect
from tests.strategies import random_sequential_circuit, seeds

_FLIPS = {
    GateType.AND: GateType.OR,
    GateType.OR: GateType.AND,
    GateType.NAND: GateType.NOR,
    GateType.NOR: GateType.NAND,
    GateType.XOR: GateType.XNOR,
    GateType.XNOR: GateType.XOR,
    GateType.NOT: GateType.BUF,
    GateType.BUF: GateType.NOT,
}

_SOURCES = (GateType.INPUT, GateType.DFF, GateType.CONST0, GateType.CONST1)


def _clone(circuit: Circuit) -> Circuit:
    clone = Circuit(circuit.name)
    for node_id in range(circuit.num_nodes):
        clone.add_node(circuit.types[node_id], (), circuit.names[node_id])
    for node_id in range(circuit.num_nodes):
        clone.set_fanins(node_id, tuple(circuit.fanins[node_id]))
    return clone


def eco_edit(circuit: Circuit, seed: int, kind: int) -> Circuit | None:
    """One random single-gate ECO edit; ``None`` when inapplicable.

    kind 0: gate-type flip (AND<->OR, NOT<->BUF, ...)
    kind 1: fanin rewire to a random source node (never adds comb cycles)
    kind 2: DFF insertion on one gate's fanin edge
    """
    rng = random.Random(seed * 3 + kind)
    edited = _clone(circuit)
    if kind == 0:
        candidates = [
            n for n, t in enumerate(circuit.types) if t in _FLIPS
        ]
        if not candidates:
            return None
        victim = rng.choice(candidates)
        flipped = Circuit(circuit.name)
        for node_id in range(circuit.num_nodes):
            gate_type = circuit.types[node_id]
            if node_id == victim:
                gate_type = _FLIPS[gate_type]
            flipped.add_node(gate_type, (), circuit.names[node_id])
        for node_id in range(circuit.num_nodes):
            flipped.set_fanins(node_id, tuple(circuit.fanins[node_id]))
        edited = flipped
    elif kind == 1:
        gates = [
            n for n, t in enumerate(circuit.types)
            if t not in _SOURCES and circuit.fanins[n]
        ]
        sources = [n for n, t in enumerate(circuit.types) if t in _SOURCES]
        if not gates or not sources:
            return None
        victim = rng.choice(gates)
        fanins = list(edited.fanins[victim])
        slot = rng.randrange(len(fanins))
        replacement = rng.choice(sources)
        if fanins[slot] == replacement:
            return None
        fanins[slot] = replacement
        edited.set_fanins(victim, tuple(fanins))
    else:
        gates = [
            n for n, t in enumerate(circuit.types)
            if t not in _SOURCES and t != GateType.OUTPUT
            and circuit.fanins[n]
        ]
        if not gates:
            return None
        victim = rng.choice(gates)
        fanins = list(edited.fanins[victim])
        slot = rng.randrange(len(fanins))
        new_dff = edited.add_node(GateType.DFF, (fanins[slot],), "eco_ff")
        fanins[slot] = new_dff
        edited.set_fanins(victim, tuple(fanins))
    try:
        validate(edited)
    except Exception:
        return None
    return edited


def _records(result) -> str:
    return json.dumps(result.pair_records(), sort_keys=True)


@pytest.mark.parametrize("engine", ["dalg", "podem", "scoap"])
@given(seeds, st.integers(0, 2))
def test_incremental_matches_full_run_after_eco(engine, seed, kind):
    """Every session engine's records are inherited by cone hash: the
    edit leaves the options fingerprint alone."""
    base = random_sequential_circuit(seed)
    edited = eco_edit(base, seed, kind)
    assume(edited is not None)
    options = DetectorOptions(search_engine=engine)
    assert options_fingerprint(options, base) == (
        options_fingerprint(options, edited)
    )
    bundle = result_bundle(
        MultiCycleDetector(base, options).run(), options
    )
    incremental = incremental_detect(edited, options, bundle)
    full = MultiCycleDetector(_clone(edited), options).run()
    assert _records(incremental) == _records(full)
    assert "incremental" in incremental.metrics


@given(seeds, st.integers(0, 2))
def test_incremental_matches_streaming_run_after_eco(seed, kind):
    base = random_sequential_circuit(seed)
    edited = eco_edit(base, seed, kind)
    assume(edited is not None)
    options = DetectorOptions()
    bundle = result_bundle(staged_detect(base, options), options)
    incremental = incremental_detect(edited, options, bundle)
    staged = staged_detect(_clone(edited), options)
    assert _records(incremental) == _records(staged)


@example(0, 2)
@given(seeds, st.integers(0, 2))
def test_incremental_matches_full_run_without_random_sim(seed, kind):
    """Without the random filter most pairs reach the decide stage, and
    single-cycle ones carry a witness keyed by expansion input ids.  A
    DFF insertion shifts those ids (seed 0), so its witnessed rows must
    be re-decided, not inherited with inputs of the old layout."""
    base = random_sequential_circuit(seed)
    edited = eco_edit(base, seed, kind)
    assume(edited is not None)
    options = DetectorOptions(use_random_sim=False)
    bundle = result_bundle(MultiCycleDetector(base, options).run(), options)
    incremental = incremental_detect(edited, options, bundle)
    full = MultiCycleDetector(_clone(edited), options).run()
    assert _records(incremental) == _records(full)


@pytest.mark.parametrize("seed", [11, 12, 16])
def test_gate_flip_inherits_witnessed_rows(seed):
    """A gate flip keeps every expansion id, so the witness layout
    matches and rows with witnesses are inherited like any other."""
    base = random_sequential_circuit(seed)
    edited = eco_edit(base, seed, 0)
    options = DetectorOptions(use_random_sim=False)
    bundle = result_bundle(MultiCycleDetector(base, options).run(), options)
    assert len(bundle.arrays["witnessed"])
    assert bundle.fields["witness_layout"] == witness_layout(edited)
    incremental = incremental_detect(edited, options, bundle)
    assert incremental.metrics["incremental"]["re_decided"] == 0
    assert any(
        case.witness is not None
        for result in incremental.pair_results for case in result.cases
    )
    full = MultiCycleDetector(_clone(edited), options).run()
    assert _records(incremental) == _records(full)


def test_bundle_without_witness_layout_re_decides_witnessed_rows():
    """A bundle that records no layout cannot vouch for its witnesses."""
    base = random_sequential_circuit(11)
    options = DetectorOptions(use_random_sim=False)
    prior = MultiCycleDetector(base, options).run()
    bundle = result_bundle(prior, options)
    witnessed = sum(
        any(case.witness is not None for case in result.cases)
        for result in prior.pair_results
    )
    assert witnessed
    del bundle.fields["witness_layout"]
    rerun = incremental_detect(_clone(base), options, bundle)
    assert rerun.metrics["incremental"]["re_decided"] == witnessed
    full = MultiCycleDetector(_clone(base), options).run()
    assert _records(rerun) == _records(full)


@given(seeds)
def test_unchanged_circuit_inherits_every_decide_verdict(seed):
    base = random_sequential_circuit(seed)
    options = DetectorOptions()
    full = MultiCycleDetector(base, options).run()
    bundle = result_bundle(full, options)
    rerun = incremental_detect(_clone(base), options, bundle)
    assert _records(rerun) == _records(full)
    assert rerun.metrics["incremental"]["re_decided"] == 0
    decide_settled = sum(
        1 for r in full.pair_results if r.stage is not Stage.SIMULATION
    )
    assert rerun.metrics["incremental"]["inherited"] == decide_settled


@given(seeds, st.integers(0, 2))
def test_re_decided_pairs_have_changed_cones(seed, kind):
    """Inheritance is exactly cone-hash-keyed: a re-decided survivor must
    have a changed launch or capture cone (or be absent from the prior
    bundle entirely — e.g. a pair the prior random filter dropped)."""
    base = random_sequential_circuit(seed)
    edited = eco_edit(base, seed, kind)
    assume(edited is not None)
    options = DetectorOptions()
    full_base = MultiCycleDetector(base, options).run()
    bundle = result_bundle(full_base, options)
    prior = {
        (r["source"], r["sink"]): r for r in record_view(bundle)["records"]
        if r["stage"] != Stage.SIMULATION.value
    }
    launch = launch_cone_hashes(edited)
    capture = capture_cone_hashes(edited)
    result = incremental_detect(edited, options, bundle)
    names = edited.names
    for pair_result in result.pair_results:
        if pair_result.stage is Stage.SIMULATION:
            continue
        pair = pair_result.pair
        record = prior.get((names[pair.source], names[pair.sink]))
        unchanged = (
            record is not None
            and record["launch"] == launch[pair.source]
            and record["capture"] == capture[pair.sink]
        )
        if unchanged:
            # This pair must have been inherited, i.e. its record equals
            # the prior one verbatim.
            assert pair_result.classification.value == (
                record["classification"]
            )
            assert pair_result.stage.value == record["stage"]


def test_globally_sensitive_options_re_decide_everything():
    """With the implication DB on, the fingerprint covers the whole
    structural hash: any edit invalidates every prior record (sound,
    never stale)."""
    base = random_sequential_circuit(7)
    edited = eco_edit(base, 7, 0)
    assert edited is not None
    options = DetectorOptions(implication_db=True)
    assert options_fingerprint(options, base) != (
        options_fingerprint(options, edited)
    )
    bundle = result_bundle(MultiCycleDetector(base, options).run(), options)
    incremental = incremental_detect(edited, options, bundle)
    assert incremental.metrics["incremental"]["inherited"] == 0
    full = MultiCycleDetector(_clone(edited), options).run()
    assert _records(incremental) == _records(full)


def _bound_fields(result):
    return [
        (v.pair.source, v.pair.sink, v.verdict, v.delay_safe,
         v.sensitize_flagged, v.cosensitize_flagged)
        for v in result.hazard_verdicts
    ]


def test_hazard_flags_inherit_with_matching_mode(fig1):
    options = DetectorOptions(hazard_check="exact")
    full = MultiCycleDetector(fig1, options).run()
    bundle = result_bundle(full, options)
    rerun = incremental_detect(_clone(fig1), options, bundle)
    assert rerun.hazard_checked == full.hazard_checked
    assert [
        (p.source, p.sink) for p in rerun.hazard_flagged_pairs
    ] == [(p.source, p.sink) for p in full.hazard_flagged_pairs]
    # Inherited verdicts carry the bounds a fresh run records.
    assert all(v.decided_by == "inherited" for v in rerun.hazard_verdicts)
    assert any(v.sensitize_flagged for v in full.hazard_verdicts)
    assert _bound_fields(rerun) == _bound_fields(full)


def test_hazard_mode_mismatch_rechecks(fig1):
    plain = DetectorOptions()
    bundle = result_bundle(MultiCycleDetector(fig1, plain).run(), plain)
    checked = DetectorOptions(hazard_check="exact")
    # Fingerprint excludes hazard options, so decide verdicts inherit —
    # but the prior run carries no usable verdicts and every inherited
    # MC pair is re-checked.
    rerun = incremental_detect(_clone(fig1), checked, bundle)
    full = MultiCycleDetector(_clone(fig1), checked).run()
    assert rerun.metrics["incremental"]["re_decided"] == 0
    assert rerun.hazard_checked == full.hazard_checked
    assert [
        (p.source, p.sink) for p in rerun.hazard_flagged_pairs
    ] == [(p.source, p.sink) for p in full.hazard_flagged_pairs]
    assert not any(v.decided_by == "inherited" for v in rerun.hazard_verdicts)
    assert _bound_fields(rerun) == _bound_fields(full)


def _unversioned_hazard_fingerprint(options):
    """The hazard fingerprint of bundles written before the rules tag."""
    parts = [
        f"mode={options.hazard_check}",
        f"backtrack={HAZARD_BACKTRACK_LIMIT}",
        f"conflict={options.hazard_conflict_limit}",
    ]
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def test_verdicts_of_older_hazard_rules_are_rechecked():
    """Under the old MUX-select co-sensitization rule, parity273's two
    pairs out of ff1 were ``safe`` by co-sensitization, yet they glitch.
    A bundle carrying those verdicts must be re-checked, not adopted."""
    circuit = parity_mux_circuit(273)
    options = DetectorOptions(hazard_check="exact")
    full = MultiCycleDetector(circuit, options).run()
    stale = record_view(result_bundle(full, options))
    stale["hazard_fingerprint"] = _unversioned_hazard_fingerprint(options)
    assert stale["hazard_fingerprint"] != hazard_fingerprint(options)
    rewritten = 0
    for record in stale["records"]:
        if record["source"] == "ff1" and record["hazard"] is not None:
            record["hazard"] = {
                "verdict": "safe", "delay_safe": None,
                "sensitize_flagged": False, "cosensitize_flagged": False,
            }
            rewritten += 1
    assert rewritten == 2
    rerun = incremental_detect(_clone(circuit), options, from_records(stale))
    assert rerun.metrics["incremental"]["re_decided"] == 0
    assert not any(v.decided_by == "inherited" for v in rerun.hazard_verdicts)
    assert _bound_fields(rerun) == _bound_fields(full)
    assert all(
        v.verdict is HazardVerdictKind.GLITCH_PROVEN
        for v in rerun.hazard_verdicts
    )


def test_bundle_roundtrips_through_store(tmp_path, fig1):
    store = ArtifactStore(tmp_path / "s")
    options = DetectorOptions()
    result = MultiCycleDetector(fig1, options).run()
    save_result_bundle(store, result, options)
    loaded = load_result_bundle(store, fig1, options)
    assert loaded == result_bundle(result, options)
    # A different fingerprint addresses a different bundle.
    assert load_result_bundle(
        store, fig1, DetectorOptions(backtrack_limit=99)
    ) is None


def test_missing_bundle_degrades_to_full_run(fig1):
    options = DetectorOptions()
    incremental = incremental_detect(_clone(fig1), options, None)
    full = MultiCycleDetector(_clone(fig1), options).run()
    assert _records(incremental) == _records(full)
    assert incremental.metrics["incremental"]["inherited"] == 0
