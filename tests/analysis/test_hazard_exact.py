"""Exact SAT-backed hazard classification: oracle differential + bounds.

Layers of evidence that :class:`ExactHazardChecker` decides the
single-source X-propagation condition exactly:

* a brute-force *enumerative oracle* that tries every binary input
  assignment of the 2-frame expansion and re-evaluates the second frame
  ternarily with the source's state entry forced to X — the checker's
  verdict must match it bit for bit on small random circuits (including
  parity/MUX-heavy ones, where reconvergence is densest).  The oracle
  lives in ``tests/analysis/oracle_sweep.py``, which also sweeps it
  over 2,000 seeds of each circuit family outside tier-1;
* *X-reach soundness* — every case the packed pre-pass settles is UNSAT
  for the solver and glitch-free for the oracle, and a pre-pass that
  settles nothing gives the same verdicts;
* *bound consistency* — a sensitizable path (justification-verified)
  forces ``glitch-proven``; a clean co-sensitization pass forces
  ``safe``;
* *non-interference* — ``pair_records()`` must be byte-identical with
  and without the exact stage, and the launch-group fold and the
  incremental path must reproduce the verdicts of the staged reference
  flow (``tests/core/staged_oracle.py``);
* *bound order* — the one-walk, co-sensitization-first bounds must give
  every verdict field and verdict counter of the sensitization-first
  reference (``tests/analysis/sensitize_first.py``), within budget and
  when the path searches hit their budgets, and each recorded bound
  must be the flag of its per-mode walk (``tests/core/hazard_oracle.py``).

The delay-annotated re-filter gets deterministic unit tests: a single
X-path cannot pulse under any delay assignment, while unequal-depth
reconvergence under unit delays can.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import assume, given, settings

from repro.analysis.hazard_exact import (
    ExactHazardChecker,
    empty_exact_summary,
)
from repro.bench_gen.suite import suite
from repro.circuit.builder import CircuitBuilder
from repro.circuit.netlist import Circuit
from repro.circuit.techmap import techmap
from repro.circuit.topology import FFPair
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.hazard import SEARCH_COUNTERS, HazardChecker
from repro.core.incremental import incremental_detect, result_bundle
from repro.core.result import (
    CaseOutcome,
    CaseResult,
    Classification,
    HazardVerdictKind,
    PairResult,
    Stage,
)
from repro.core.sensitization import SensitizationMode
from repro.sta.delays import DelaySidecarError, GateDelays
from tests.analysis.oracle_sweep import (
    MAX_INPUTS,
    glitching_cases,
    oracle_mismatches,
    parity_mux_circuit,
    replays_to_x,
)
from tests.analysis.sensitize_first import SensitizeFirstChecker
from tests.core.bounds_oracle import PairWalkChecker
from tests.core.hazard_oracle import ModeWalk, check_hazards, flagged_names
from tests.core.staged_oracle import staged_detect
from tests.strategies import random_sequential_circuit, seeds


def _detect(circuit, **kw):
    return MultiCycleDetector(circuit, DetectorOptions(**kw)).run()


# ----------------------------------------------------------------------
# The enumerative oracle (``tests/analysis/oracle_sweep.py``).
# ----------------------------------------------------------------------
def _assert_matches_oracle(circuit):
    detection = _detect(circuit, hazard_check="exact")
    mismatches = oracle_mismatches(circuit, detection)
    assume(mismatches is not None)
    assert mismatches == []
    assert detection.metrics["hazard_exact"]["resolution_fraction"] == 1.0


@given(seeds)
@settings(max_examples=25)
def test_exact_matches_enumerative_oracle(seed):
    circuit = random_sequential_circuit(
        seed, max_inputs=3, max_dffs=4, max_gates=10
    )
    _assert_matches_oracle(circuit)


@given(seeds)
@settings(max_examples=25)
def test_exact_matches_oracle_on_parity_mux_circuits(seed):
    _assert_matches_oracle(parity_mux_circuit(seed))


@pytest.mark.parametrize("seed", [273, 524, 1107, 1238, 1982])
def test_cosensitization_through_mux_select_is_an_upper_bound(seed):
    """Kleene ``MUX(X, v, X)`` is X: with the source's X on both the
    select and a data input, co-sensitization must not demand settled
    ``d0 != d1`` at the select, or it clears pairs that glitch."""
    circuit = parity_mux_circuit(seed)
    detection = _detect(circuit, hazard_check="exact")
    assert oracle_mismatches(circuit, detection) == []
    proven = [
        v for v in detection.hazard_verdicts
        if v.verdict is HazardVerdictKind.GLITCH_PROVEN
    ]
    assert proven
    assert all(v.cosensitize_flagged for v in proven)


# ----------------------------------------------------------------------
# Bound consistency: sensitize-FOUND <= exact <= cosensitize-clean.
# ----------------------------------------------------------------------
@given(seeds)
@settings(max_examples=20)
def test_exact_respects_sensitization_bounds(seed):
    circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=18)
    detection = _detect(circuit, hazard_check="exact")
    if not detection.hazard_verdicts:
        return
    sens = ModeWalk(circuit, SensitizationMode.STATIC_SENSITIZATION)
    cosens = ModeWalk(circuit, SensitizationMode.STATIC_CO_SENSITIZATION)
    by_pair = {
        (r.pair.source, r.pair.sink): r for r in detection.pair_results
    }
    for verdict in detection.hazard_verdicts:
        pair_result = by_pair[(verdict.pair.source, verdict.pair.sink)]
        found = sens.check_pair(pair_result)
        if found.has_potential_hazard and not found.limited:
            # Lower bound: a justification-verified path IS a glitch.
            assert verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
        cleared = cosens.check_pair(pair_result)
        if not cleared.has_potential_hazard:
            # Upper bound: no co-sensitized path means no glitch.
            assert verdict.verdict is HazardVerdictKind.SAFE


# ----------------------------------------------------------------------
# Bound order: one co-sensitization-first walk == sensitization first.
# ----------------------------------------------------------------------
_BUILDS = pytest.mark.parametrize(
    "build",
    [
        lambda seed: random_sequential_circuit(seed, max_dffs=5, max_gates=16),
        parity_mux_circuit,
    ],
    ids=["random", "parity-mux"],
)
_BUDGETS = pytest.mark.parametrize(
    "budgets",
    [
        {},
        # Starved searches: justification aborts, path walks hit the
        # attempt cap, and UNKNOWN outcomes reach both bounds.
        {"backtrack_limit": 0, "max_attempts": 3},
        # A delay sidecar sends proven pairs on to the solver.
        {"delays": GateDelays()},
    ],
    ids=["default", "starved", "delays"],
)


def _bound_inputs(circuit):
    """The detected multi-cycle records plus a bare record per FF pair.

    Bare records carry no case data, so all four premises are walked,
    contradictory ones included.
    """
    records = list(_detect(circuit).multi_cycle_pairs)
    dffs = circuit.dffs
    records.extend(_mc_pair_result(s, t) for s in dffs for t in dffs)
    return records


def _verdict_counts(summary):
    """A summary without its search-work counters, which count how the
    bounds were walked: the walks a differential compares differ there."""
    return {
        key: value for key, value in summary.items()
        if key not in SEARCH_COUNTERS
    }


def _verdict_fields(verdict):
    return (
        verdict.pair,
        verdict.verdict,
        verdict.decided_by,
        verdict.witness_case,
        verdict.witness,
        verdict.delay_safe,
        verdict.sensitize_flagged,
        verdict.cosensitize_flagged,
        verdict.witness_path,
    )


@_BUDGETS
@_BUILDS
@given(seed=seeds)
@settings(max_examples=15)
def test_bound_walk_matches_sensitize_first(build, budgets, seed):
    circuit = build(seed)
    records = _bound_inputs(circuit)
    walk = ExactHazardChecker(circuit, **budgets)
    reference = SensitizeFirstChecker(circuit, **budgets)
    verdicts = walk.check_pairs(records)
    got = [_verdict_fields(v) for v in verdicts]
    want = [_verdict_fields(v) for v in reference.check_pairs(records)]
    assert got == want
    assert _verdict_counts(walk.summary()) == _verdict_counts(reference.summary())
    # Each recorded bound is its per-mode walk's flag; a budget hit
    # flags co-sensitization but proves nothing for sensitization.
    for verdict, (sens, cosens) in zip(verdicts, reference.reports):
        assert verdict.cosensitize_flagged == cosens.has_potential_hazard
        assert verdict.sensitize_flagged == (
            sens.has_potential_hazard and not sens.limited
        )


def test_bound_fields_equal_per_mode_flags_on_tiny_suite():
    """Under default budgets no search hits its limit on the mapped tiny
    suite, so each bound's flagged set is exactly its per-mode walk's."""
    for circuit in map(techmap, suite("tiny")):
        detection = _detect(circuit, hazard_check="exact")
        for field, mode in (
            ("sensitize_flagged", SensitizationMode.STATIC_SENSITIZATION),
            ("cosensitize_flagged", SensitizationMode.STATIC_CO_SENSITIZATION),
        ):
            reports = check_hazards(circuit, detection, mode)
            assert not any(r.limited for r in reports)
            assert sorted(
                (circuit.names[v.pair.source], circuit.names[v.pair.sink])
                for v in detection.hazard_verdicts
                if getattr(v, field)
            ) == flagged_names(circuit, reports), (circuit.name, field)


def test_bound_walk_saves_searches_and_premises(monkeypatch):
    """Cleared pairs run no sensitization search; premises close once.

    Each case closes its capture literals at most once, on top of a
    launch closed at most once per source value, and a cleared pair's
    every closed premise runs one co-sensitization search.  A round
    whose co-sensitization search on the launch state finds no path
    closes no capture.  A pair X-reach settles closes no premise and
    runs no search past co-sensitization's first uncleared case, and
    solves nothing."""
    import repro.core.hazard as hazard_module
    from repro.atpg.implication import ImplicationEngine
    from repro.circuit.library import fig1_circuit
    from repro.core.sensitization import PathSearchOutcome

    circuit = fig1_circuit()
    pair_results = _detect(circuit).multi_cycle_pairs
    #: ("launch", a), ("capture", b) and ("search", mode, outcome)
    events: list[tuple] = []
    depth = 0
    search = hazard_module.find_sensitizable_path
    assume_all = ImplicationEngine.assume_all

    def counting_search(*args, **kwargs):
        nonlocal depth
        depth += 1
        try:
            result = search(*args, **kwargs)
        finally:
            depth -= 1
        events.append(("search", kwargs["mode"], result.outcome))
        return result

    def counting_assume_all(engine, assignments):
        assignments = list(assignments)
        if depth == 0:
            # Launch literals take a and 1-a, capture literals b and b.
            if assignments[0][1] != assignments[1][1]:
                events.append(("launch", assignments[0][1]))
            else:
                events.append(("capture", assignments[0][1]))
        return assume_all(engine, assignments)

    monkeypatch.setattr(hazard_module, "find_sensitizable_path", counting_search)
    monkeypatch.setattr(ImplicationEngine, "assume_all", counting_assume_all)

    checker = ExactHazardChecker(circuit)
    cleared = settled = launch_cleared_rounds = 0
    for pair_result in pair_results:
        events.clear()
        before = checker.counters["launch_cleared"]
        verdict = checker.check_pair(pair_result)
        cases = HazardChecker._satisfiable_cases(pair_result)
        kinds = [event[0] for event in events]
        captures = kinds.count("capture")
        assert captures <= len(cases)
        assert kinds.count("launch") <= len({a for a, _ in cases})
        sensitize = [
            event for event in events
            if event[0] == "search"
            and event[1] is SensitizationMode.STATIC_SENSITIZATION
        ]
        # One round per launch: a co-sensitization search right after
        # the launch that finds no path clears the round.
        launches = [k for k, kind in enumerate(kinds) if kind == "launch"]
        for start, end in zip(launches, launches[1:] + [len(events)]):
            if events[start + 1:start + 2] == [(
                "search", SensitizationMode.STATIC_CO_SENSITIZATION,
                PathSearchOutcome.NONE,
            )]:
                launch_cleared_rounds += 1
                assert "capture" not in kinds[start + 1:end]
        launch_cases = checker.counters["launch_cleared"] - before
        # A case's own co-sensitization search runs right after its
        # capture literals close.
        case_cosens = sum(
            1 for prev, event in zip(events, events[1:])
            if prev[0] == "capture"
            and event[:2] == ("search", SensitizationMode.STATIC_CO_SENSITIZATION)
        )
        if verdict.decided_by == "cosensitize":
            cleared += 1
            assert not sensitize
            assert case_cosens == captures
            assert captures + launch_cases == len(cases)
        if verdict.decided_by == "xreach":
            settled += 1
            # Every premise closed ran one co-sensitization search, up
            # to the first case it did not clear, and nothing after it.
            assert verdict.cosensitize_flagged
            assert captures == case_cosens < len(cases)
            assert not sensitize
    # FF3 -> FF2 glitches through no MUX2 select path co-sensitization
    # accepts, but X-reach settles every case it leaves open.
    assert (cleared, settled) == (1, 1)
    assert launch_cleared_rounds > 0
    assert checker.counters["launch_cleared"] > 0
    assert checker.counters["sat_solves"] == 0
    assert checker._solver is None


# ----------------------------------------------------------------------
# Run walk: one launch closure per source value and run == per pair.
# ----------------------------------------------------------------------
_RUN_BUILDS = pytest.mark.parametrize(
    "build",
    [
        lambda seed: random_sequential_circuit(
            seed, max_inputs=4, max_dffs=6, max_gates=24
        ),
        parity_mux_circuit,
    ],
    ids=["random", "parity-mux"],
)


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
@_BUDGETS
@_RUN_BUILDS
@given(seed=seeds)
@settings(max_examples=10)
def test_run_walk_matches_pair_walk(build, budgets, order, seed):
    """The run walk gives every verdict field and verdict counter of the
    per-pair walk (``tests/core/bounds_oracle.py``).

    Shuffled records split a source's pairs over several runs; the bare
    records walk every premise, contradicted launches included; starved
    budgets force UNKNOWN searches, and the delay sidecar sends proven
    pairs to the solver, so SAT witnesses and ``delay_safe`` appear."""
    circuit = build(seed)
    records = _bound_inputs(circuit)
    if order == "shuffled":
        random.Random(seed).shuffle(records)
    walk = ExactHazardChecker(circuit, **budgets)
    reference = PairWalkChecker(circuit, **budgets)
    got = [_verdict_fields(v) for v in walk.check_pairs(records)]
    assert got == [_verdict_fields(v) for v in reference.check_pairs(records)]
    assert _verdict_counts(walk.summary()) == _verdict_counts(reference.summary())


def _held_source_circuit() -> Circuit:
    """HELD stays set once set, so its launch ``1 -> 0`` contradicts.

    Co-sensitization clears HELD -> K0 and finds a sensitizable path of
    HELD -> K1.
    """
    builder = CircuitBuilder("held")
    held = builder.dff("HELD")
    builder.drive(held, builder.or_(held, builder.input("set"), name="hold"))
    enable = builder.input("en")
    builder.dff("K0", d=builder.and_(held, enable, name="g0"))
    builder.dff("K1", d=builder.xor(held, enable, name="g1"))
    return builder.build()


def test_run_walk_closes_a_contradicted_launch_once(monkeypatch):
    from repro.atpg.implication import ImplicationEngine

    circuit = _held_source_circuit()
    held = circuit.id_of("HELD")
    records = [_mc_pair_result(held, sink) for sink in circuit.dffs]
    walk = ExactHazardChecker(circuit)
    ffi_t = walk.expansion.ff_at[0][walk.expansion.ff_index(held)]
    launches: list[tuple[int, bool]] = []
    assume_all = ImplicationEngine.assume_all

    def recording(engine, assignments):
        assignments = list(assignments)
        closed = assume_all(engine, assignments)
        if len(assignments) == 2 and assignments[0][0] == ffi_t:
            launches.append((assignments[0][1], closed))
        return closed

    monkeypatch.setattr(ImplicationEngine, "assume_all", recording)
    verdicts = walk.check_pairs(records)
    monkeypatch.undo()
    # One run: each source value's launch closes once for every sink.
    assert launches == [(0, True), (1, False)]
    want = PairWalkChecker(circuit).check_pairs(records)
    assert [_verdict_fields(v) for v in verdicts] == [
        _verdict_fields(v) for v in want
    ]
    by_sink = {circuit.names[v.pair.sink]: v.decided_by for v in verdicts}
    assert (by_sink["K0"], by_sink["K1"]) == ("cosensitize", "sensitize")


def test_run_walk_rejects_cases_out_of_a_major_order():
    circuit = _held_source_circuit()
    record = PairResult(
        FFPair(circuit.id_of("HELD"), circuit.id_of("K1")),
        Classification.MULTI_CYCLE,
        Stage.ATPG,
        cases=[
            CaseResult(1, 0, CaseOutcome.IMPLIED_STABLE),
            CaseResult(0, 0, CaseOutcome.IMPLIED_STABLE),
        ],
    )
    with pytest.raises(ValueError, match="a-major"):
        ExactHazardChecker(circuit).check_pairs([record])


# ----------------------------------------------------------------------
# X-reach pre-pass.
# ----------------------------------------------------------------------
class NoXReachChecker(ExactHazardChecker):
    """The exact pass with a pre-pass that settles nothing."""

    def _xreach_safe(self, pair_results):
        return [set() for _ in pair_results]


@_BUILDS
@given(seed=seeds)
@settings(max_examples=25)
def test_xreach_safe_cases_cannot_glitch(build, seed):
    """Every X-reach safe case, of detected and bare records alike, is
    UNSAT for the solver and glitch-free for the enumerative oracle."""
    circuit = build(seed)
    checker = ExactHazardChecker(circuit)
    assume(len(checker.expansion.comb.inputs) <= MAX_INPUTS)
    records = _bound_inputs(circuit)
    safe = checker._xreach_safe(records)
    pair_cases: dict[FFPair, list[tuple[int, int]]] = {}
    for record, cases in zip(records, safe):
        pair_cases.setdefault(record.pair, []).extend(cases)
    glitching = glitching_cases(circuit, checker.expansion, pair_cases)
    for record, cases in zip(records, safe):
        for case in cases:
            assert (record.pair, case) not in glitching
            assert checker._solve_pair(record.pair, [case]) == (
                None, None, False
            )


@_BUDGETS
@_BUILDS
@given(seed=seeds)
@settings(max_examples=15)
def test_xreach_keeps_every_verdict(build, budgets, seed):
    """Against a pre-pass that settles nothing: the same verdicts,
    witness cases, bounds and paths, ``xreach`` standing for ``exact``.

    The shared solver sees a different history, so witness bits may
    differ; each side's witness must replay to X at the sink under its
    case premise, and its ``delay_safe`` must be its own delay sweep."""
    circuit = build(seed)
    records = _bound_inputs(circuit)
    plain = NoXReachChecker(circuit, **budgets)
    xreach = ExactHazardChecker(circuit, **budgets)
    before = plain.check_pairs(records)
    after = xreach.check_pairs(records)

    def fields(verdict):
        decided_by = "exact" if verdict.decided_by == "xreach" else verdict.decided_by
        return (
            verdict.pair,
            verdict.verdict,
            decided_by,
            verdict.witness_case,
            verdict.sensitize_flagged,
            verdict.cosensitize_flagged,
            verdict.witness_path,
        )

    assert [fields(v) for v in after] == [fields(v) for v in before]
    for checker, verdicts in ((plain, before), (xreach, after)):
        for verdict in verdicts:
            if verdict.witness is None:
                continue
            assert replays_to_x(
                circuit, checker.expansion, verdict.pair,
                verdict.witness_case, verdict.witness,
            )
            if checker.delays is not None:
                assert verdict.delay_safe is not checker._survives_delays(
                    verdict.pair, verdict.witness
                )
    assert xreach.counters["sat_solves"] <= plain.counters["sat_solves"]


# ----------------------------------------------------------------------
# Non-interference and execution-path parity.
# ----------------------------------------------------------------------
@given(seeds)
@settings(max_examples=15)
def test_pair_records_byte_identical_with_and_without_exact(seed):
    circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=16)
    base = _detect(circuit, hazard_check="off")
    exact = _detect(circuit, hazard_check="exact")
    assert json.dumps(base.pair_records(), sort_keys=True) == json.dumps(
        exact.pair_records(), sort_keys=True
    )


def _verdict_fingerprint(detection):
    return [_verdict_fields(v) for v in detection.hazard_verdicts]


@given(seeds)
@settings(max_examples=10)
def test_streaming_exact_matches_staged(seed):
    circuit = random_sequential_circuit(seed, max_dffs=6, max_gates=20)
    staged = staged_detect(circuit, DetectorOptions(hazard_check="exact"))
    streamed = _detect(circuit, hazard_check="exact")
    assert _verdict_fingerprint(staged) == _verdict_fingerprint(streamed)
    assert _verdict_counts(staged.metrics["hazard_exact"]) == _verdict_counts(
        streamed.metrics["hazard_exact"]
    )
    assert staged.hazard_flagged_pairs == streamed.hazard_flagged_pairs
    assert json.dumps(staged.pair_records(), sort_keys=True) == json.dumps(
        streamed.pair_records(), sort_keys=True
    )


@pytest.mark.parametrize(
    "build",
    [
        # At seed 6 the newest-first order also flipped one delay_safe.
        lambda: parity_mux_circuit(6),
        lambda: parity_mux_circuit(18),
        lambda: random_sequential_circuit(
            72, max_inputs=4, max_dffs=6, max_gates=24
        ),
        lambda: random_sequential_circuit(
            89, max_inputs=4, max_dffs=6, max_gates=24
        ),
    ],
    ids=["parity6", "parity18", "random72", "random89"],
)
def test_pool_completion_order_keeps_verdicts(build, tmp_path):
    """Units that settle out of order are hazard-checked in unit order.

    The solver is incremental, so a SAT witness, and the ``delay_safe``
    read off it, depends on the pairs solved before it.  With the units
    folded newest first, these circuits gave other witnesses than a
    serial run when each unit was checked as it arrived."""
    from tests.core.pool_helpers import newest_first_pool

    sidecar = tmp_path / "unit.json"
    sidecar.write_text(json.dumps({"default": {"min": 1.0, "max": 1.0}}))
    circuit = build()
    options = {
        "hazard_check": "exact",
        "use_random_sim": False,
        "hazard_delays": str(sidecar),
    }
    serial = _detect(circuit, **options)
    with newest_first_pool(unit_pairs=1):
        pooled = _detect(circuit, workers=2, **options)
    assert any(v.witness is not None for v in serial.hazard_verdicts)
    assert _verdict_fingerprint(pooled) == _verdict_fingerprint(serial)
    assert pooled.metrics["hazard_exact"] == serial.metrics["hazard_exact"]


@given(seeds)
@settings(max_examples=10)
def test_incremental_inherits_exact_verdicts(seed):
    circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=16)
    options = DetectorOptions(hazard_check="exact")
    prior = _detect(circuit, hazard_check="exact")
    bundle = result_bundle(prior, options)
    merged = incremental_detect(circuit, options, bundle=bundle)
    # Identity ECO: every verdict inherits, kinds and flags unchanged.
    kinds = [
        (v.pair, v.verdict.value) for v in merged.hazard_verdicts
    ]
    assert kinds == [
        (v.pair, v.verdict.value) for v in prior.hazard_verdicts
    ]
    assert [
        (v.sensitize_flagged, v.cosensitize_flagged)
        for v in merged.hazard_verdicts
    ] == [
        (v.sensitize_flagged, v.cosensitize_flagged)
        for v in prior.hazard_verdicts
    ]
    assert merged.hazard_flagged_pairs == prior.hazard_flagged_pairs
    assert all(
        v.decided_by == "inherited" for v in merged.hazard_verdicts
    )


def _single_ff_circuit() -> Circuit:
    builder = CircuitBuilder("lone")
    ff = builder.dff("ff0")
    builder.drive(ff, builder.not_(builder.input("pi"), name="g"))
    builder.output("po0", ff)
    return builder.build()


def test_empty_exact_summary_shape():
    summary = empty_exact_summary()
    assert summary["resolution_fraction"] == 1.0
    assert summary["checked"] == 0
    # Zero multi-cycle survivors still report a complete exact pass.
    detection = _detect(_single_ff_circuit(), hazard_check="exact")
    assert detection.metrics["hazard_exact"]["resolution_fraction"] == 1.0


# ----------------------------------------------------------------------
# Delay-annotated re-filtering.
# ----------------------------------------------------------------------
def _mc_pair_result(source: int, sink: int) -> PairResult:
    """A bare multi-cycle record (no cases: all four premises tried)."""
    return PairResult(
        FFPair(source, sink), Classification.MULTI_CYCLE, Stage.ATPG
    )


def _single_path_circuit():
    builder = CircuitBuilder("single-path")
    enable = builder.input("en")
    source = builder.dff("FFS")
    sink = builder.dff("FFK", d=builder.and_(source, enable, name="g"))
    builder.drive(source, builder.input("d"))
    return builder.build(), source, sink


def test_single_x_path_is_glitch_proven_without_delays():
    circuit, source, sink = _single_path_circuit()
    checker = ExactHazardChecker(circuit)
    verdict = checker.check_pair(_mc_pair_result(source, sink))
    assert verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
    assert verdict.delay_safe is None
    assert verdict.flagged


def test_delay_filter_kills_single_x_path():
    """One X-path means earliest == latest: no pulse can ever form."""
    circuit, source, sink = _single_path_circuit()
    checker = ExactHazardChecker(circuit, delays=GateDelays())
    verdict = checker.check_pair(_mc_pair_result(source, sink))
    assert verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
    assert verdict.decided_by == "exact"
    assert verdict.delay_safe is True
    assert not verdict.flagged
    assert checker.counters["delay_filtered"] == 1


def test_delay_filter_keeps_unequal_depth_reconvergence():
    """src AND not(src): path depths 1 vs 2, so unit delays pulse."""
    builder = CircuitBuilder("reconv")
    source = builder.dff("FFS")
    sink = builder.dff(
        "FFK",
        d=builder.and_(source, builder.not_(source, name="inv"), name="g"),
    )
    builder.drive(source, builder.input("d"))
    circuit = builder.build()
    checker = ExactHazardChecker(circuit, delays=GateDelays())
    verdict = checker.check_pair(_mc_pair_result(source, sink))
    assert verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
    assert verdict.delay_safe is False
    assert verdict.flagged


def test_delay_filter_balanced_reconvergence_through_pipeline(tmp_path):
    """Balanced depths cancel: the pipeline un-flags the proven glitch."""
    builder = CircuitBuilder("balanced")
    source = builder.dff("FFS")
    sink = builder.dff(
        "FFK",
        d=builder.and_(
            builder.buf(source, name="fwd"),
            builder.not_(source, name="inv"),
            name="g",
        ),
    )
    builder.drive(source, builder.input("d"))
    circuit = builder.build()
    sidecar = tmp_path / "delays.json"
    sidecar.write_text(json.dumps({"default": {"min": 1.0, "max": 1.0}}))

    plain = _detect(circuit, hazard_check="exact")
    filtered = _detect(
        circuit, hazard_check="exact", hazard_delays=str(sidecar)
    )
    by_pair = {
        (v.pair.source, v.pair.sink): v for v in plain.hazard_verdicts
    }
    assert by_pair[(source, sink)].verdict is (
        HazardVerdictKind.GLITCH_PROVEN
    )
    assert FFPair(source, sink) in plain.hazard_flagged_pairs

    by_pair = {
        (v.pair.source, v.pair.sink): v for v in filtered.hazard_verdicts
    }
    verdict = by_pair[(source, sink)]
    assert verdict.verdict is HazardVerdictKind.GLITCH_PROVEN
    assert verdict.delay_safe is True
    assert FFPair(source, sink) not in filtered.hazard_flagged_pairs
    # Non-hazard records stay byte-identical under the delay sidecar.
    assert json.dumps(plain.pair_records(), sort_keys=True) == json.dumps(
        filtered.pair_records(), sort_keys=True
    )


# ----------------------------------------------------------------------
# Delay sidecar parsing.
# ----------------------------------------------------------------------
def test_gate_delays_sidecar_parsing(tmp_path):
    payload = {
        "default": {"min": 1.0, "max": 2.0},
        "gates": {"g": {"min": 0.5, "max": 0.75}},
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(payload))
    delays = GateDelays.load(path)
    assert delays.interval("g").max == 0.75
    assert delays.interval("anything-else").min == 1.0


def test_gate_delays_sidecar_validation(tmp_path):
    circuit, _, _ = _single_path_circuit()
    bad = tmp_path / "unknown.json"
    bad.write_text(json.dumps({"gates": {"nope": {"min": 1, "max": 1}}}))
    with pytest.raises(ValueError, match="unknown gate"):
        GateDelays.load(bad, circuit)

    with pytest.raises(ValueError):
        GateDelays.from_payload({"default": {"min": -1.0, "max": 0.0}})
    with pytest.raises(ValueError):
        GateDelays.from_payload({"default": {"min": 2.0, "max": 1.0}})
    with pytest.raises(ValueError):
        GateDelays.from_payload([1, 2, 3])


def test_missing_sidecar_fails_before_any_decide_work(tmp_path, monkeypatch):
    from repro.circuit.library import fig1_circuit
    from repro.core.session import DecisionSession

    decided = []
    decide_group = DecisionSession.decide_group

    def recording(self, *args, **kwargs):
        decided.append(args)
        return decide_group(self, *args, **kwargs)

    monkeypatch.setattr(DecisionSession, "decide_group", recording)
    circuit = fig1_circuit()
    with pytest.raises(DelaySidecarError, match="cannot read"):
        _detect(
            circuit,
            hazard_check="exact",
            hazard_delays=str(tmp_path / "missing.json"),
        )
    assert decided == []
    # The same run without the sidecar does reach the decide stage.
    _detect(circuit, hazard_check="exact")
    assert decided
