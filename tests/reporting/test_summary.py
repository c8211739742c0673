"""The one-shot markdown report generator."""

from repro.circuit.library import fig1_circuit, s27
from repro.core.detector import DetectorOptions
from repro.reporting.summary import _markdown_table, generate_report
from repro.reporting.tables import Table


def test_markdown_table_rendering():
    table = Table("T", ["a", "b"], [[1, 2.5]], ["note"])
    text = _markdown_table(table)
    assert "| a | b |" in text
    assert "| 1 | 2.50 |" in text
    assert "*note*" in text


def test_generate_report_sections():
    report = generate_report([s27(), fig1_circuit()], kcycle_circuits=2,
                             k_max=3)
    assert "# Reproduction report" in report
    assert "Table 1" in report and "Table 2" in report and "Table 3" in report
    assert "k-cycle budget histogram" in report
    assert "Clock-period relaxation" in report
    assert "Condition-2 extension" in report
    # fig1's five multi-cycle pairs appear in the Table 1 row.
    assert "| fig1 | 1 | 4 | 9 | 5 |" in report


def test_generate_report_without_sat():
    report = generate_report([fig1_circuit()], run_sat=False,
                             kcycle_circuits=1, k_max=2)
    assert "| - | - |" in report


def test_report_exact_table_takes_the_run_hazard_options(monkeypatch, tmp_path):
    """The exact table runs at the run's conflict limit and delay
    sidecar; the path-search budget is the pipeline's constant."""
    from repro.analysis import hazard_exact
    from repro.core.pipeline import HAZARD_BACKTRACK_LIMIT
    from repro.sta.delays import DelayInterval

    limits = []
    init = hazard_exact.ExactHazardChecker.__init__

    def recording(self, circuit, expansion=None, **kwargs):
        delays = kwargs.get("delays")
        limits.append((
            kwargs.get("backtrack_limit"),
            kwargs.get("conflict_limit"),
            delays.default if delays is not None else None,
        ))
        init(self, circuit, expansion, **kwargs)

    monkeypatch.setattr(hazard_exact.ExactHazardChecker, "__init__", recording)
    sidecar = tmp_path / "delays.json"
    sidecar.write_text('{"default": {"min": 2.0, "max": 3.0}}')
    options = DetectorOptions(hazard_conflict_limit=11,
                              hazard_delays=str(sidecar))
    report = generate_report([fig1_circuit()], options, run_sat=False,
                             kcycle_circuits=1, k_max=2)
    assert limits and set(limits) == {
        (HAZARD_BACKTRACK_LIMIT, 11, DelayInterval(2.0, 3.0))
    }
    assert "| disagreements | X-reach | resolution |" in report


def test_report_cli(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "r.md"
    assert main(["report", str(out), "--profile", "tiny", "--no-sat"]) == 0
    assert out.read_text().startswith("# Reproduction report")
