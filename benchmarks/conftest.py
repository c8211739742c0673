"""Shared fixtures for the benchmark harness.

Each ``bench_*``/``test_*`` module regenerates one of the paper's tables
or figures (see DESIGN.md's experiment index).  The circuit profile is
selected with the ``REPRO_BENCH_PROFILE`` environment variable:

* ``tiny`` (default)  — seconds; CI-friendly smoke of every experiment,
* ``small``           — the default reported in EXPERIMENTS.md,
* ``medium``/``large``/``full`` — the scaling runs.

Formatted tables are printed at the end of the run (use ``-s`` to see
them immediately); they are also appended to ``benchmarks/_reports.txt``.

The repository root goes on ``sys.path`` so benchmarks can time the
reference flows that live in ``tests/`` (the per-node simulator, the
scalar decision session) against the shipping ones.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

from repro.bench_gen.suite import suite

_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.append(_ROOT)

PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "tiny")
_REPORT_PATH = Path(__file__).parent / "_reports.txt"
_reports: list[str] = []


def record_report(text: str) -> None:
    """Print a table and remember it for the end-of-run dump."""
    _reports.append(text)
    print("\n" + text)


@pytest.fixture(scope="session")
def bench_profile() -> str:
    return PROFILE


@pytest.fixture(scope="session")
def bench_circuits():
    """The benchmark suite at the selected profile."""
    return suite(PROFILE)


def pytest_sessionfinish(session, exitstatus):
    if _reports:
        _REPORT_PATH.write_text(
            f"profile: {PROFILE}\n\n" + "\n\n".join(_reports) + "\n"
        )
