"""Tests for the pipeline core: stages, trace layer, parallel executor.

`MultiCycleDetector` is a thin shell over
``StreamingStage().run(AnalysisContext(...))``, so these tests exercise
the machinery every detector rides on — the run envelope, the decider
registry, the JSONL trace schema, the hazard
pass, and the worker pool whose results must be byte-identical to a
serial run.
"""

from __future__ import annotations

import json
from itertools import count

import pytest

from repro.circuit.timeframe import clear_expansion_cache, expand_cached
from repro.core.deciders import (
    DECIDER_REGISTRY,
    available_engines,
    create_decider,
)
from repro.core.detector import DetectorOptions, MultiCycleDetector
from repro.core.pipeline import AnalysisContext
from repro.core.result import Classification, Stage
from repro.core.streaming import StreamingStage, _auto_chunk_size
from repro.core.trace import TRACE_SCHEMA_VERSION, Tracer, open_trace, read_trace
from tests.core.pool_helpers import forced_pool
from tests.strategies import random_sequential_circuit


# ----------------------------------------------------------------------
# Tracer / trace schema
# ----------------------------------------------------------------------
class TestTracer:
    def test_records_carry_schema_version_and_time(self):
        ticks = count()
        tracer = Tracer(clock=lambda: float(next(ticks)))
        record = tracer.emit("pair", source="ff0", sink="ff1")
        assert record["v"] == TRACE_SCHEMA_VERSION
        assert record["event"] == "pair"
        assert record["source"] == "ff0"
        # First emit at clock tick 1, t0 captured at tick 0.
        assert record["t"] == 1.0

    def test_select_filters_by_event(self):
        tracer = Tracer()
        tracer.emit("stage_start", stage="topology")
        tracer.emit("pair", source="a", sink="b")
        tracer.emit("stage_end", stage="topology")
        assert [r["stage"] for r in tracer.select("stage_start")] == ["topology"]
        assert len(tracer.select("pair")) == 1

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open_trace(path) as tracer:
            tracer.emit("run_start", circuit="c")
            tracer.emit("run_end", multi_cycle=3)
        records = read_trace(path)
        assert [r["event"] for r in records] == ["run_start", "run_end"]
        assert all(r["v"] == TRACE_SCHEMA_VERSION for r in records)
        # Every line is standalone JSON (the JSONL contract).
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)


# ----------------------------------------------------------------------
# Decider registry
# ----------------------------------------------------------------------
class TestDeciderRegistry:
    def test_known_engines_registered(self):
        engines = available_engines()
        for name in ("dalg", "podem", "scoap", "sat", "bdd", "cross-check"):
            assert name in engines

    def test_create_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown"):
            create_decider("no-such-engine")

    def test_created_decider_carries_name(self):
        for name in available_engines():
            assert create_decider(name).name == name

    def test_registry_is_sorted_view(self):
        assert list(available_engines()) == sorted(DECIDER_REGISTRY)


# ----------------------------------------------------------------------
# Pipeline stages and trace events
# ----------------------------------------------------------------------
class TestPipelineStages:
    def test_stage_sequence_on_fig1(self, fig1):
        tracer = Tracer()
        result = MultiCycleDetector(fig1, tracer=tracer).run()
        events = [r["event"] for r in tracer.events]
        assert events[0] == "run_start"
        assert events[-1] == "run_end"
        # The run is one fold: no stage brackets, no stage list.
        assert "stages" not in tracer.events[0]
        assert "stage_start" not in events and "stage_end" not in events
        # One pair event per connected pair, across all stages.
        assert len(tracer.select("pair")) == result.connected_pairs

    def test_run_end_summary_matches_result(self, fig1, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open_trace(path) as tracer:
            result = MultiCycleDetector(fig1, tracer=tracer).run()
        (end,) = [r for r in read_trace(path) if r["event"] == "run_end"]
        assert end["multi_cycle"] == len(result.multi_cycle_pairs)
        assert end["connected_pairs"] == result.connected_pairs
        # The counter blocks travel once, on run_end, as written.
        assert end["metrics"] == result.metrics
        assert set(result.metrics) == {"decision_session", "packed_implication"}

    def test_injected_clock_makes_times_deterministic(self, fig1):
        def run_with_fake_clock():
            ticks = count()
            tracer = Tracer(clock=lambda: float(next(ticks)))
            ctx = AnalysisContext(
                fig1,
                DetectorOptions(),
                clock=lambda: 0.0,
                tracer=tracer,
            )
            StreamingStage().run(ctx)
            return [(r["event"], r["t"]) for r in tracer.events]

        assert run_with_fake_clock() == run_with_fake_clock()

    def test_progress_callback_counts_pairs(self, fig1):
        seen = []
        result = MultiCycleDetector(
            fig1, progress=lambda done, total, record: seen.append((done, total))
        ).run()
        assert len(seen) == result.connected_pairs
        assert seen[-1][0] == result.connected_pairs
        totals = {total for _done, total in seen}
        assert totals == {result.connected_pairs}

    def test_skipping_random_sim_stage(self, fig1):
        options = DetectorOptions(use_random_sim=False)
        result = MultiCycleDetector(fig1, options).run()
        assert result.stats[Stage.SIMULATION].single_cycle == 0
        baseline = MultiCycleDetector(fig1).run()
        assert result.multi_cycle_pair_names() == baseline.multi_cycle_pair_names()

    def test_custom_stage_composition(self, fig1):
        # A fold without the random filter still classifies correctly.
        ctx = AnalysisContext(fig1, DetectorOptions(use_random_sim=False))
        result = StreamingStage().run(ctx)
        baseline = MultiCycleDetector(fig1).run()
        assert result.multi_cycle_pair_names() == baseline.multi_cycle_pair_names()

    def test_decision_stage_engine_override(self, fig1):
        stage = StreamingStage("sat")
        result = stage.run(AnalysisContext(fig1, DetectorOptions()))
        assert result.engine == "sat"
        baseline = MultiCycleDetector(fig1).run()
        assert result.multi_cycle_pair_names() == baseline.multi_cycle_pair_names()


# ----------------------------------------------------------------------
# Expansion cache
# ----------------------------------------------------------------------
class TestExpansionCache:
    def test_cache_hit_returns_same_object(self, fig1):
        clear_expansion_cache()
        first = expand_cached(fig1, frames=2)
        assert expand_cached(fig1, frames=2) is first
        assert expand_cached(fig1, frames=3) is not first

    def test_cache_invalidated_by_circuit_mutation(self, fig1):
        from repro.circuit.gates import GateType

        clear_expansion_cache()
        first = expand_cached(fig1, frames=2)
        fig1.add_node(GateType.INPUT, (), "late_pi")
        assert expand_cached(fig1, frames=2) is not first

    def test_context_expansion_is_cached(self, fig1):
        ctx = AnalysisContext(fig1, DetectorOptions())
        assert ctx.expansion(2) is ctx.expansion(2)


# ----------------------------------------------------------------------
# Parallel executor
# ----------------------------------------------------------------------
class TestParallelExecutor:
    def test_auto_chunk_size_bounds(self):
        # ~8 units per worker, never below 1, capped at one packed
        # closure's capacity (MAX_LANES // 4 = 512 pairs); serial runs
        # use the cap.
        assert _auto_chunk_size(1, 4) == 1
        assert _auto_chunk_size(160, 4) == 5
        assert _auto_chunk_size(161, 4) == 6
        assert _auto_chunk_size(100_000, 4) == 512
        assert _auto_chunk_size(10, 1) == 512

    @pytest.mark.parametrize("engine", ["dalg", "sat"])
    def test_workers_match_serial_byte_for_byte(self, fig1, engine):
        # forced_pool() sends even fig1's small pair list to the pool.
        options = DetectorOptions(search_engine=engine)
        serial = MultiCycleDetector(fig1, options).run()
        with forced_pool():
            parallel = MultiCycleDetector(
                fig1, DetectorOptions(search_engine=engine, workers=4)
            ).run()
        assert json.dumps(serial.pair_records(), sort_keys=True) == json.dumps(
            parallel.pair_records(), sort_keys=True
        )

    def test_workers_match_serial_on_random_circuits(self):
        for seed in (3, 17, 91):
            circuit = random_sequential_circuit(seed, max_dffs=5, max_gates=14)
            serial = MultiCycleDetector(circuit).run()
            with forced_pool():
                parallel = MultiCycleDetector(
                    circuit, DetectorOptions(workers=3)
                ).run()
            assert serial.pair_records() == parallel.pair_records()

    def test_parallel_stats_match_serial_counts(self, fig1):
        serial = MultiCycleDetector(fig1).run()
        with forced_pool():
            parallel = MultiCycleDetector(
                fig1, DetectorOptions(workers=2)
            ).run()
        for stage in Stage:
            assert (
                serial.stats[stage].single_cycle
                == parallel.stats[stage].single_cycle
            )
            assert (
                serial.stats[stage].multi_cycle
                == parallel.stats[stage].multi_cycle
            )

    def test_pool_mode_traced_when_above_threshold(self, fig1):
        tracer = Tracer()
        with forced_pool():
            MultiCycleDetector(
                fig1, DetectorOptions(workers=2), tracer=tracer
            ).run()
        (record,) = tracer.select("decision_exec")
        assert record["mode"] == "parallel"
        assert record["workers"] == 2
        assert record["pairs"] >= record["threshold"]

    def test_tiny_pair_list_falls_back_to_serial(self, fig1):
        # Default threshold (128) far exceeds fig1's surviving pairs, so a
        # workers>1 run must decide in-process and say so in the trace.
        tracer = Tracer()
        parallel = MultiCycleDetector(
            fig1, DetectorOptions(workers=4), tracer=tracer
        ).run()
        (record,) = tracer.select("decision_exec")
        assert record["mode"] == "serial-fallback"
        serial = MultiCycleDetector(fig1).run()
        assert serial.pair_records() == parallel.pair_records()

    def test_serial_run_emits_no_decision_exec(self, fig1):
        tracer = Tracer()
        MultiCycleDetector(fig1, DetectorOptions(workers=1), tracer=tracer).run()
        assert tracer.select("decision_exec") == []

    def test_pool_is_closed_after_run(self, fig1):
        ctx = AnalysisContext(fig1, DetectorOptions(workers=2))
        with forced_pool():
            StreamingStage().run(ctx)
        assert ctx._pool is None


# ----------------------------------------------------------------------
# Hazard validation stage
# ----------------------------------------------------------------------
class TestHazardStage:
    def test_off_by_default_and_counters_zero(self, fig1):
        result = MultiCycleDetector(fig1).run()
        assert result.hazard_mode == "off"
        assert result.hazard_checked == 0
        assert result.hazard_flagged == 0
        assert result.hazard_flagged_pairs == []

    def test_records_identical_with_stage_on(self, fig3):
        """The stage annotates, never reclassifies: pair_records are
        byte-identical whether the hazard check runs or not."""
        off = MultiCycleDetector(fig3).run()
        on = MultiCycleDetector(
            fig3, DetectorOptions(hazard_check="exact")
        ).run()
        assert json.dumps(off.pair_records(), sort_keys=True) == json.dumps(
            on.pair_records(), sort_keys=True
        )

    def test_verified_pairs_partition_multi_cycle(self, fig3):
        result = MultiCycleDetector(
            fig3, DetectorOptions(hazard_check="exact")
        ).run()
        flagged = {(p.source, p.sink) for p in result.hazard_flagged_pairs}
        verified = {
            (r.pair.source, r.pair.sink) for r in result.hazard_verified_pairs
        }
        everything = {
            (r.pair.source, r.pair.sink) for r in result.multi_cycle_pairs
        }
        assert flagged | verified == everything
        assert not flagged & verified

    def test_hazard_stage_trace_event(self, fig3):
        tracer = Tracer()
        result = MultiCycleDetector(
            fig3, DetectorOptions(hazard_check="exact"), tracer=tracer
        ).run()
        (record,) = tracer.select("hazard_stage")
        assert record["mode"] == "exact"
        assert record["checked"] == result.hazard_checked
        assert record["flagged"] == result.hazard_flagged
        assert record["seconds"] >= 0
        assert "exact" not in record
        # The exact pass's counters travel in run_end's metrics.
        (end,) = tracer.select("run_end")
        assert end["metrics"]["hazard_exact"] == (
            result.metrics["hazard_exact"]
        )

    @pytest.mark.parametrize("mode", ["sensitize", "cosensitize"])
    def test_sensitization_modes(self, fig3, mode):
        """Each static bound is a view of the exact run's verdicts: its
        flagged pairs are the ones its per-mode walk flags."""
        from repro.core.sensitization import SensitizationMode
        from tests.core.hazard_oracle import check_hazards, flagged_names

        result = MultiCycleDetector(
            fig3, DetectorOptions(hazard_check="exact")
        ).run()
        assert result.hazard_mode == "exact"
        assert result.hazard_checked == len(result.multi_cycle_pairs)
        field = f"{mode}_flagged"
        flagged = sorted(
            (fig3.names[v.pair.source], fig3.names[v.pair.sink])
            for v in result.hazard_verdicts
            if getattr(v, field)
        )
        walk_mode = {
            "sensitize": SensitizationMode.STATIC_SENSITIZATION,
            "cosensitize": SensitizationMode.STATIC_CO_SENSITIZATION,
        }[mode]
        assert flagged == flagged_names(
            fig3, check_hazards(fig3, result, walk_mode)
        )

    def test_unknown_mode_raises(self, fig1):
        # Only "off" and "exact" run; the names of the removed modes
        # are unknown like any other.
        for mode in ("bogus", "ternary", "sensitize", "cosensitize"):
            with pytest.raises(ValueError, match="hazard"):
                MultiCycleDetector(
                    fig1, DetectorOptions(hazard_check=mode)
                ).run()


# ----------------------------------------------------------------------
# DetectorOptions
# ----------------------------------------------------------------------
class TestDetectorOptions:
    @pytest.mark.parametrize(
        "name", ["search_engine", "hazard_check", "lint", "backplane"]
    )
    def test_bad_enumerated_value_fails_at_construction(self, fig1, name):
        """A bad value raises before the run emits anything, also where
        the run would never read the field (``backplane`` on one
        worker)."""
        tracer = Tracer()
        with pytest.raises(ValueError, match=f"unknown {name} 'bogus'"):
            MultiCycleDetector(
                fig1, DetectorOptions(**{name: "bogus"}), tracer=tracer
            ).run()
        assert tracer.events == []

    @pytest.mark.parametrize("name, value", [
        ("sim_words", 0),
        ("workers", 0),
        ("workers", -3),
        ("backtrack_limit", -1),
        ("cache_max_bytes", 0),
        ("cache_max_bytes", -1),
    ])
    def test_out_of_range_count_fails_at_construction(self, fig1, name, value):
        """A count below its minimum raises naming the field, before the
        run emits anything (``workers`` used to be clamped to 1 and
        ``sim_words`` to fail inside the simulator after topology)."""
        tracer = Tracer()
        with pytest.raises(ValueError, match=f"{name} must be >= "):
            MultiCycleDetector(
                fig1, DetectorOptions(**{name: value}), tracer=tracer
            ).run()
        assert tracer.events == []

    def test_smallest_counts_are_accepted(self, fig1):
        options = DetectorOptions(sim_words=1, workers=1, backtrack_limit=0)
        result = MultiCycleDetector(fig1, options).run()
        assert result.connected_pairs == 9

    def test_options_are_frozen(self):
        import dataclasses

        options = DetectorOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.workers = 2  # type: ignore[misc]
        assert dataclasses.replace(options, workers=2).workers == 2
        assert options.workers == 1


# ----------------------------------------------------------------------
# Cross-check decider
# ----------------------------------------------------------------------
class TestCrossCheck:
    def test_cross_check_agrees_on_fig1(self, fig1):
        result = MultiCycleDetector(
            fig1, DetectorOptions(search_engine="cross-check")
        ).run()
        assert result.disagreements == []
        baseline = MultiCycleDetector(fig1).run()
        assert result.multi_cycle_pair_names() == baseline.multi_cycle_pair_names()

    def test_cross_check_emits_no_disagreement_events(self, fig1):
        tracer = Tracer()
        MultiCycleDetector(
            fig1, DetectorOptions(search_engine="cross-check"), tracer=tracer
        ).run()
        assert tracer.select("disagreement") == []


# ----------------------------------------------------------------------
# pair_records determinism contract
# ----------------------------------------------------------------------
class TestPairRecords:
    def test_records_sorted_and_complete(self, fig1):
        result = MultiCycleDetector(fig1).run()
        records = result.pair_records()
        assert len(records) == result.connected_pairs
        keys = [(r["source"], r["sink"]) for r in records]
        assert keys == sorted(keys)
        for record in records:
            assert record["classification"] in {c.value for c in Classification}
            assert record["stage"] in {s.value for s in Stage}

    def test_records_json_serialisable(self, fig1):
        result = MultiCycleDetector(fig1).run()
        json.dumps(result.pair_records())
