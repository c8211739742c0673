"""Static netlist analysis: lint, constant sweep, global implication DB.

Three passes that run once per :class:`~repro.circuit.netlist.Circuit`
and cache their results through ``Circuit.derived``:

* :func:`lint` / :func:`lint_file` — collect *every* structural finding
  into a :class:`LintReport` (the ``repro lint`` subcommand and the
  pipeline's ``--lint {off,warn,strict}`` gate),
* :func:`sweep` / :func:`simplified` — constant propagation, duplicate
  detection and dead-logic analysis, annotate-or-simplify,
* :func:`implication_db` / :func:`build_implication_db` — the compiled
  global implication database consumed by the ATPG deciders.

A fourth, per-detection pass lives here too:
:class:`ExactHazardChecker` — the SAT-backed exact three-way hazard
classification behind ``--hazard-check exact`` (see ``docs/hazards.md``).

See ``docs/architecture.md`` ("The analysis layer") for pass ordering and
the annotate-vs-simplify contract.
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    LintError,
    LintReport,
    Severity,
)
from repro.analysis.hazard_exact import ExactHazardChecker
from repro.analysis.implication_db import (
    ImplicationDB,
    build_implication_db,
    implication_db,
)
from repro.analysis.lint import LINT_MODES, LintWarning, enforce, lint, lint_file
from repro.analysis.sweep import SweepReport, simplified, sweep

__all__ = [
    "Diagnostic",
    "ExactHazardChecker",
    "ImplicationDB",
    "LINT_MODES",
    "LintError",
    "LintReport",
    "LintWarning",
    "Severity",
    "SweepReport",
    "build_implication_db",
    "enforce",
    "implication_db",
    "lint",
    "lint_file",
    "simplified",
    "sweep",
]
