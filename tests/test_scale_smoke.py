"""The scale smoke's gates against the committed ``scale`` baseline.

The child runner is replaced by a canned report, so these checks take
milliseconds instead of a syn20000 detection.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SMOKE = Path(__file__).parent.parent / "benchmarks" / "scale_smoke.py"


@pytest.fixture
def smoke():
    spec = importlib.util.spec_from_file_location("scale_smoke", _SMOKE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(smoke, monkeypatch, tmp_path, undecided, peak=100 << 20):
    baseline = tmp_path / "BENCH_pipeline.json"
    baseline.write_text(json.dumps({"scale": {"results": [
        {"circuit": "syn20000", "peak_rss_bytes": 100 << 20, "undecided": 12},
    ]}}))
    report = {"circuit": "syn20000", "num_gates": 1, "num_dffs": 1,
              "connected_pairs": 1, "wall_seconds": 1.0,
              "peak_rss_bytes": peak, "undecided": undecided}

    def fake_run(command, **kwargs):
        return subprocess.CompletedProcess(command, 0, json.dumps(report), "")

    monkeypatch.setattr(smoke.subprocess, "run", fake_run)
    return smoke.main(["--baseline", str(baseline), "--workers", "0"])


def test_undecided_at_baseline_passes(smoke, monkeypatch, tmp_path, capsys):
    assert _run(smoke, monkeypatch, tmp_path, undecided=12) == 0
    assert "12 undecided pairs (baseline 12)" in capsys.readouterr().out


def test_more_undecided_than_baseline_fails(smoke, monkeypatch, tmp_path,
                                            capsys):
    assert _run(smoke, monkeypatch, tmp_path, undecided=13) == 1
    assert "13 undecided pairs > 12" in capsys.readouterr().err


def test_rss_growth_still_fails(smoke, monkeypatch, tmp_path):
    assert _run(smoke, monkeypatch, tmp_path, undecided=0,
                peak=200 << 20) == 1
