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


def test_report_exact_table_takes_the_run_hazard_options(monkeypatch):
    from repro.analysis import hazard_exact

    limits = []
    init = hazard_exact.ExactHazardChecker.__init__

    def recording(self, circuit, expansion=None, **kwargs):
        limits.append(
            (kwargs.get("backtrack_limit"), kwargs.get("conflict_limit"))
        )
        init(self, circuit, expansion, **kwargs)

    monkeypatch.setattr(hazard_exact.ExactHazardChecker, "__init__", recording)
    options = DetectorOptions(hazard_backtrack_limit=7, hazard_conflict_limit=11)
    report = generate_report([fig1_circuit()], options, run_sat=False,
                             kcycle_circuits=1, k_max=2)
    assert limits and set(limits) == {(7, 11)}
    assert "| disagreements | X-reach | resolution |" in report


def test_report_cli(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "r.md"
    assert main(["report", str(out), "--profile", "tiny", "--no-sat"]) == 0
    assert out.read_text().startswith("# Reproduction report")
