"""CLI smoke tests through the argparse entry point."""

from pathlib import Path

import pytest

from repro.circuit.bench import dump
from repro.circuit.library import fig1_circuit
from repro.cli import main
from repro.core.detector import DetectorOptions, detect_multi_cycle_pairs


EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "circuits"


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.bench"
    dump(fig1_circuit(), path)
    return str(path)


def test_analyze(fig1_file, capsys):
    assert main(["analyze", fig1_file, "--list-pairs"]) == 0
    out = capsys.readouterr().out
    assert "multi-cycle pairs:  5" in out
    assert "multicycle FF1 -> FF2" in out


def test_analyze_without_self_loops(fig1_file, capsys):
    assert main(["analyze", fig1_file, "--no-self-loops"]) == 0
    out = capsys.readouterr().out
    assert "connected FF pairs: 7" in out


def test_hazard(fig1_file, capsys):
    assert main(["hazard", fig1_file]) == 0
    out = capsys.readouterr().out
    assert "before hazard checking: 5" in out
    assert "after sensitize    : 1 kept, 4 flagged" in out
    assert "after exact        : 1 kept, 4 flagged" in out
    assert "after co-sensitize : 0 kept, 5 flagged" in out
    assert "hazard verdicts:    1 safe, 0 glitch-possible, 4 glitch-proven" in out


def test_hazard_honours_the_runs_hazard_options(tmp_path, capsys):
    """``repro hazard`` prints the verdicts of its own run: a unit-delay
    sidecar marks the single-path glitches of mapped fig1 delay-safe,
    and only FF3 -> FF2 (unequal reconvergence) survives."""
    sidecar = tmp_path / "unit.json"
    sidecar.write_text('{"default": {"min": 1.0, "max": 1.0}}')
    assert main([
        "hazard", str(EXAMPLES / "fig1.bench"),
        "--hazard-check", "exact", "--hazard-delays", str(sidecar),
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert (
        "hazard verdicts:    1 safe, 0 glitch-possible, 4 glitch-proven "
        "(3 delay-safe)" in lines
    )
    assert "after exact        : 4 kept, 1 flagged" in lines
    proven = [line for line in lines if line.startswith("  glitch-proven ")]
    assert len(proven) == 4
    survivors = [line for line in proven if not line.endswith("delay-safe")]
    assert survivors == ["  glitch-proven FF3 -> FF2 (by exact)"]


def test_analyze_hazard_check_ternary(fig1_file, capsys):
    """``--hazard-check`` accepts only off and exact."""
    for mode in ("ternary", "sensitize", "cosensitize"):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", fig1_file, "--hazard-check", mode])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_analyze_hazard_check_rejects_unknown_mode(fig1_file):
    with pytest.raises(SystemExit):
        main(["analyze", fig1_file, "--hazard-check", "bogus"])


def test_analyze_hazard_check_exact_lines(capsys):
    bench = str(EXAMPLES / "fig1.bench")
    assert main(["analyze", bench, "--hazard-check", "exact"]) == 0
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line for line in lines if line.startswith("hazard verdicts:")]
    assert verdicts == [
        "hazard verdicts:    2 safe, 0 glitch-possible, 3 glitch-proven"
    ]
    exact = [line for line in lines if line.startswith("hazard exact:")]
    assert len(exact) == 1
    assert "1 disagreement, 1 resolved, 1 xreach," in exact[0]
    assert "1.00 resolution-fraction" in exact[0]


@pytest.mark.parametrize(
    "circuit, sidecar",
    [
        ("fig1.bench", None),
        ("fig1.bench", "{not json"),
        ("fig1.bench", '{"default": {"min": 2.0, "max": 1.0}}'),
        ("fig1.bench", '{"gates": {"nope": {"min": 1.0, "max": 1.0}}}'),
        # No multi-cycle pair: the sidecar is still read, up front.
        ("s27.bench", None),
    ],
    ids=["missing", "invalid-json", "min-above-max", "unknown-gate",
         "missing-no-mc-pairs"],
)
def test_bad_hazard_delays_sidecar_is_one_error_line(
    tmp_path, capsys, circuit, sidecar
):
    path = tmp_path / "delays.json"
    if sidecar is not None:
        path.write_text(sidecar)
    code = main([
        "analyze", str(EXAMPLES / circuit),
        "--hazard-check", "exact", "--hazard-delays", str(path),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err


def test_sta(fig1_file, capsys):
    assert main(["sta", fig1_file]) == 0
    out = capsys.readouterr().out
    assert "clock speedup" in out
    assert "min period" in out


def test_generate_and_reanalyze(tmp_path, capsys):
    out_dir = tmp_path / "suite"
    assert main(["generate", str(out_dir), "--profile", "tiny"]) == 0
    generated = sorted(p.name for p in out_dir.glob("*.bench"))
    assert "s27.bench" in generated and "syn040.bench" in generated
    assert main(["analyze", str(out_dir / "s27.bench")]) == 0
    out = capsys.readouterr().out
    assert "connected FF pairs: 7" in out


def test_table1(capsys):
    assert main(["table1", "--profile", "tiny", "--no-sat"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out and "fig1" in out


def test_table2(capsys):
    assert main(["table2", "--profile", "tiny"]) == 0
    assert "Table 2" in capsys.readouterr().out


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_static_learning_flag(fig1_file, capsys):
    assert main(["analyze", fig1_file, "--static-learning"]) == 0
    assert "multi-cycle pairs:  5" in capsys.readouterr().out


def test_kcycle_command(fig1_file, capsys):
    assert main(["kcycle", fig1_file, "--max-k", "3", "--list-pairs"]) == 0
    out = capsys.readouterr().out
    assert "k=2: 5 of 9" in out
    assert "k=3: 3 of 9" in out


def test_extended_command(fig1_file, capsys):
    assert main(["extended", fig1_file]) == 0
    out = capsys.readouterr().out
    assert "MC-condition multi-cycle pairs: 5" in out


def test_equiv_command(tmp_path, capsys):
    from repro.circuit.techmap import techmap

    golden = tmp_path / "g.bench"
    revised = tmp_path / "r.bench"
    dump(fig1_circuit(), golden)
    dump(techmap(fig1_circuit()), revised)
    assert main(["equiv", str(golden), str(revised)]) == 0
    assert "EQUIVALENT" in capsys.readouterr().out


def test_equiv_command_detects_difference(tmp_path, capsys):
    from repro.circuit.library import s27

    golden = tmp_path / "g.bench"
    revised = tmp_path / "r.bench"
    dump(fig1_circuit(), golden)
    dump(s27(), revised)
    assert main(["equiv", str(golden), str(revised)]) == 1
    assert "NOT equivalent" in capsys.readouterr().out


def test_stats_command(fig1_file, capsys):
    assert main(["stats", fig1_file]) == 0
    out = capsys.readouterr().out
    assert "4 FF" in out and "gate mix" in out


def test_sta_slack_table(fig1_file, capsys):
    assert main(["sta", fig1_file, "--period", "2", "--worst", "5"]) == 0
    out = capsys.readouterr().out
    assert "slack report at clock period 2" in out
    assert "VIOLATED" in out


def test_lint_clean_file(fig1_file, capsys):
    assert main(["lint", fig1_file]) == 0
    assert "clean" in capsys.readouterr().out


def test_lint_flags_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(a)\ng = FROB(a)\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "parse-error" in out
    assert "line 2" in out


def test_lint_strict_fails_on_warnings(tmp_path, capsys):
    warny = tmp_path / "warny.bench"
    warny.write_text(
        "INPUT(a)\nb = NOT(a)\ndead = AND(a, b)\nOUTPUT(b)\n"
    )
    assert main(["lint", str(warny)]) == 0
    assert main(["lint", "--strict", str(warny)]) == 1
    assert "dangling-gate" in capsys.readouterr().out


def test_lint_multiple_files(fig1_file, tmp_path, capsys):
    bad = tmp_path / "bad.bench"
    bad.write_text("what is this\n")
    assert main(["lint", fig1_file, str(bad)]) == 1
    out = capsys.readouterr().out
    assert "clean" in out and "parse-error" in out


def test_sweep_report(tmp_path, capsys):
    src = tmp_path / "c.bench"
    src.write_text(
        "INPUT(a)\nzero = VSS()\ng = AND(a, zero)\nh = NOT(a)\n"
        "dup = NOT(a)\nOUTPUT(g)\nOUTPUT(h)\nOUTPUT(dup)\n"
    )
    assert main(["sweep", str(src)]) == 0
    out = capsys.readouterr().out
    assert "constant" in out


def test_sweep_writes_simplified(tmp_path, capsys):
    src = tmp_path / "c.bench"
    out_path = tmp_path / "slim.bench"
    src.write_text(
        "INPUT(a)\nb = NOT(a)\ndead = AND(a, b)\nOUTPUT(b)\n"
    )
    assert main(["sweep", str(src), "-o", str(out_path)]) == 0
    assert "removed" in capsys.readouterr().out
    from repro.circuit.bench import load

    slim = load(out_path)
    assert slim.num_nodes < load(src).num_nodes


def test_analyze_with_implication_db(fig1_file, capsys):
    assert main(["analyze", fig1_file, "--implication-db"]) == 0
    out = capsys.readouterr().out
    assert "implication db:" in out
    assert "multi-cycle pairs:  5" in out


def test_analyze_lint_strict_rejects(tmp_path, capsys):
    warny = tmp_path / "warny.bench"
    warny.write_text(
        "INPUT(a)\nb = NOT(a)\ndead = AND(a, b)\nOUTPUT(b)\n"
    )
    with pytest.raises(SystemExit):
        main(["analyze", str(warny), "--lint", "bogus"])


def test_analyze_lint_strict_gate(tmp_path, capsys):
    warny = tmp_path / "warny.bench"
    warny.write_text(
        "INPUT(a)\nb = NOT(a)\ndead = AND(a, b)\nOUTPUT(b)\n"
    )
    assert main(["analyze", str(warny), "--lint", "strict"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "drives nothing" in err
    assert main(["analyze", str(warny), "--lint", "off"]) == 0


def test_malformed_file_exits_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.bench"
    bad.write_text("INPUT(a)\ng = FROB(a)\n")
    assert main(["analyze", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.bench" in err and "line 2" in err


def test_analyze_cache_dir_warm_hits(fig1_file, tmp_path, capsys):
    from repro.circuit.netlist import clear_derived_caches
    from repro.store import deactivate_store

    cache = str(tmp_path / "cache")
    assert main(["analyze", fig1_file, "--cache-dir", cache]) == 0
    cold = capsys.readouterr().out
    assert "cache:" in cold and "stores" in cold
    clear_derived_caches()
    deactivate_store()
    assert main(["analyze", fig1_file, "--cache-dir", cache]) == 0
    warm = capsys.readouterr().out
    hits = int(warm.split("cache:")[1].split("hits")[0].strip())
    assert hits >= 1
    deactivate_store()


def test_analyze_incremental_from(fig1_file, tmp_path, capsys):
    from repro.circuit.netlist import clear_derived_caches
    from repro.store import deactivate_store

    cache = str(tmp_path / "cache")
    assert main(["analyze", fig1_file, "--cache-dir", cache]) == 0
    capsys.readouterr()
    clear_derived_caches()
    deactivate_store()
    assert main([
        "analyze", fig1_file, "--cache-dir", cache,
        "--incremental-from", fig1_file,
    ]) == 0
    out = capsys.readouterr().out
    assert "incremental:" in out
    assert "0 re-decided" in out
    assert "multi-cycle pairs:  5" in out
    deactivate_store()


def test_incremental_from_ignores_schema1_bundle(fig1_file, tmp_path, capsys,
                                                monkeypatch):
    """A bundle of an older pair-records schema is a miss, not inherited."""
    from repro.circuit.bench import load
    from repro.circuit.netlist import clear_derived_caches
    from repro.core.detector import DetectorOptions
    from repro.core.incremental import load_result_bundle
    from repro.store import ArtifactStore, SCHEMA_VERSIONS, deactivate_store

    cache = str(tmp_path / "cache")
    with monkeypatch.context() as old_release:
        old_release.setitem(SCHEMA_VERSIONS, "pair-records", 1)
        assert main(["analyze", fig1_file, "--cache-dir", cache]) == 0
    capsys.readouterr()
    clear_derived_caches()
    deactivate_store()
    assert list((tmp_path / "cache" / "pair-records").glob("*-v1.pkl"))

    store = ArtifactStore(cache)
    assert load_result_bundle(store, load(fig1_file), DetectorOptions()) is None
    assert (store.misses, store.corrupt) == (1, 0)

    assert main([
        "analyze", fig1_file, "--cache-dir", cache,
        "--incremental-from", fig1_file,
    ]) == 0
    captured = capsys.readouterr()
    assert "no cached pair records" in captured.err
    assert "re-deciding every pair" in captured.err
    line = captured.out.split("incremental:")[1].splitlines()[0]
    survivors = int(line.split("survivors")[0].strip().rstrip(","))
    assert survivors > 0
    assert f"0 inherited, {survivors} re-decided" in line
    assert "multi-cycle pairs:  5" in captured.out
    deactivate_store()


def test_analyze_incremental_from_without_store_warns(fig1_file, capsys,
                                                      monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main([
        "analyze", fig1_file, "--incremental-from", fig1_file,
    ]) == 0
    captured = capsys.readouterr()
    assert "re-deciding every pair" in captured.err
    assert "multi-cycle pairs:  5" in captured.out


def test_sdc_command(fig1_file, capsys):
    assert main(["sdc", fig1_file]) == 0
    out = capsys.readouterr().out
    assert "set_multicycle_path -setup 2" in out


def test_sdc_command_writes_files(fig1_file, tmp_path, capsys):
    import json

    sdc = tmp_path / "out.sdc"
    js = tmp_path / "out.json"
    assert main([
        "sdc", fig1_file, "-o", str(sdc), "--json", str(js),
        "--hazard-check", "exact",
    ]) == 0
    out = capsys.readouterr().out
    assert "hazard-gated" in out
    text = sdc.read_text()
    assert "# glitch-proven, not relaxed:" in text
    payload = json.loads(js.read_text())
    assert payload["circuit"] == "fig1"
    assert any(not c["safe"] for c in payload["constraints"])


def test_cache_stats_and_clear(fig1_file, tmp_path, capsys):
    from repro.store import deactivate_store

    cache = str(tmp_path / "cache")
    assert main(["analyze", fig1_file, "--cache-dir", cache]) == 0
    deactivate_store()
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "bytes" in out
    assert "simplan" in out  # flat-buffer kinds are listed per kind

    assert main(["cache", "clear", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "removed" in out and "freed" in out

    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    assert "0 entries, 0 bytes" in capsys.readouterr().out


def test_cache_resolves_env_dir(fig1_file, tmp_path, capsys, monkeypatch):
    from repro.store import deactivate_store

    cache = str(tmp_path / "cache")
    assert main(["analyze", fig1_file, "--cache-dir", cache]) == 0
    deactivate_store()
    capsys.readouterr()
    monkeypatch.setenv("REPRO_CACHE_DIR", cache)
    assert main(["cache", "stats"]) == 0
    assert cache in capsys.readouterr().out


def test_cache_without_dir_errors(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    assert main(["cache", "stats"]) == 2
    assert "REPRO_CACHE_DIR" in capsys.readouterr().err


def test_analyze_backplane_summary_line(fig1_file, capsys):
    assert main([
        "analyze", fig1_file, "--workers", "2", "--parallel-threshold", "2",
        "--backplane", "on",
    ]) == 0
    out = capsys.readouterr().out
    assert "backplane:" in out
    assert "2 workers, 2 ready, 2 attached" in out
    assert ", 0 worker-store-misses" in out


def test_analyze_backplane_off_no_line(fig1_file, capsys):
    assert main([
        "analyze", fig1_file, "--workers", "2", "--parallel-threshold", "2",
        "--backplane", "off",
    ]) == 0
    assert "backplane:" not in capsys.readouterr().out


def test_analyze_prints_every_metrics_key(fig1_file, tmp_path, capsys):
    """One line per metrics block, naming every key of the block."""
    from repro.circuit.bench import load
    from repro.cli import _detector_options, build_parser
    from repro.store import deactivate_store

    argv = [
        "analyze", fig1_file, "--cache-dir", str(tmp_path / "cache"),
        "--hazard-check", "exact", "--implication-db",
        "--workers", "2", "--parallel-threshold", "2",
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    deactivate_store()
    options = _detector_options(build_parser().parse_args(argv))
    result = detect_multi_cycle_pairs(load(fig1_file), options)
    deactivate_store()
    assert set(result.metrics) == {
        "decision_session", "packed_implication", "implication_db",
        "hazard_exact", "backplane", "cache",
    }
    for name, block in result.metrics.items():
        label = name.replace("_", " ") + ":"
        (line,) = [line for line in lines if line.startswith(label)]
        for key in block:
            assert f" {key.replace('_', '-')}" in line, (name, key)


def test_analyze_unusable_cache_dir_warns_once(fig1_file, tmp_path, capsys):
    """A cache directory that cannot be created is one warning line; the
    run goes on without a store and classifies as a store-less run."""
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    store_dir = str(blocker / "store")
    assert main(["analyze", fig1_file, "--cache-dir", store_dir]) == 0
    captured = capsys.readouterr()
    (warning,) = captured.err.splitlines()
    assert warning.startswith("warning:") and store_dir in warning
    assert "cache:" not in captured.out
    assert "multi-cycle pairs:  5" in captured.out

    from repro.circuit.bench import load

    circuit = load(fig1_file)
    storeless = detect_multi_cycle_pairs(circuit, DetectorOptions())
    degraded = detect_multi_cycle_pairs(
        load(fig1_file), DetectorOptions(cache_dir=store_dir)
    )
    capsys.readouterr()
    assert "cache" not in degraded.metrics
    assert degraded.pair_records() == storeless.pair_records()


@pytest.mark.parametrize("action", ["stats", "clear"])
def test_cache_unusable_dir_is_one_error_line(tmp_path, capsys, action):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    store_dir = str(blocker / "store")
    assert main(["cache", action, "--cache-dir", store_dir]) == 2
    captured = capsys.readouterr()
    (error,) = captured.err.splitlines()
    assert error.startswith("error:") and store_dir in error
    assert captured.out == ""
