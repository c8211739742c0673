"""Table regeneration: shapes, invariants, formatting."""

from repro.circuit.library import fig1_circuit, s27
from repro.reporting.tables import (
    Table,
    format_table,
    run_table1,
    run_table2,
    run_table3,
)


def _circuits():
    return [s27(), fig1_circuit()]


def test_table1_rows_and_agreement():
    table, detections = run_table1(_circuits(), sat_mode="incremental")
    assert table.headers[0] == "circuit"
    assert len(table.rows) == 3  # two circuits + Total
    s27_row = table.rows[0]
    assert s27_row[0] == "s27" and s27_row[4] == 0 and s27_row[6] == 0
    fig1_row = table.rows[1]
    assert fig1_row[4] == fig1_row[6] == 5  # ours == SAT baseline
    assert len(detections) == 2


def test_table1_without_sat():
    table, _ = run_table1(_circuits(), run_sat=False)
    assert table.rows[0][6] == "-"


def test_table2_percentages_sum():
    table = run_table2(_circuits())
    assert table.rows[0][0] == "single cycle"
    assert table.rows[1][0] == "multi cycle"
    # fig1: all 5 MC pairs settle by implication, none by ATPG.
    assert table.rows[1][2].startswith("5")
    assert table.rows[1][3].startswith("0")


def test_table2_reuses_detections():
    _, detections = run_table1(_circuits(), run_sat=False)
    table = run_table2(_circuits(), detections=detections)
    assert table.rows[0][1].startswith("11")  # 7 (s27) + 4 (fig1) sim drops


def _table3_counts(table):
    return {row[0]: row[1] for row in table.rows}


def test_table3_ordering():
    counts = _table3_counts(run_table3(_circuits()))
    assert list(counts) == ["before", "sensitize", "exact", "co-sensitize"]
    assert (
        counts["before"] >= counts["sensitize"] >= counts["exact"]
        >= counts["co-sensitize"]
    )


def test_table3_tiny_profile_counts():
    """Pinned: the counts the per-mode walks gave before one exact pass
    replaced them (mapped s27, fig1, syn040 and syn090)."""
    from repro.bench_gen.suite import suite

    counts = _table3_counts(run_table3(suite("tiny")))
    assert counts == {
        "before": 78, "sensitize": 46, "exact": 46, "co-sensitize": 11,
    }


def test_format_table_alignment():
    text = format_table("T", ["a", "bb"], [[1, 2.5], [30, 4.0]], ["note"])
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert "2.50" in text and "note" in text


def test_table_format_method():
    table = Table("Title", ["x"], [[1]])
    assert table.format().startswith("Title")
