"""Lint pass: collect every structural finding of a netlist at once.

``circuit/netlist.validate`` answers "is this netlist usable?" with a
single exception; this pass answers "what is wrong (or suspicious) about
it?" with a complete :class:`~repro.analysis.diagnostics.LintReport`:

* every violation :func:`repro.circuit.netlist.check` collects — fanin
  arity, multi-driven OUTPUT/DFF, dangling fanin ids, OUTPUT-as-fanin,
  and each combinational cycle with its full path — as ERRORs,
* dangling fanout-free combinational gates and flip-flops nothing reads
  (dead logic the sweep pass can remove) as WARNINGs,
* unused primary inputs and constant-driven flip-flops as INFOs.

The report is cached per netlist version through ``Circuit.derived``, so
the pipeline's ``--lint`` gate and the ``repro lint`` CLI share one run.
:func:`lint_file` extends the same reporting to reader failures: a
malformed ``.bench``/``.v`` file produces a single ``parse-error``
diagnostic carrying the reader's file/line context instead of leaking an
exception.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.circuit.gates import COMBINATIONAL_TYPES, GateType
from repro.circuit.netlist import Circuit, CircuitError, check
from repro.analysis.diagnostics import (
    Diagnostic,
    LintError,
    LintReport,
    Severity,
)

#: :meth:`Circuit.derived` cache key for the lint report.
_DERIVED_KEY = "lint-report"

#: accepted pipeline lint policies.
LINT_MODES = ("off", "warn", "strict")


def _build(circuit: Circuit) -> LintReport:
    diagnostics: list[Diagnostic] = []
    names = circuit.names

    for violation in check(circuit):
        diagnostics.append(Diagnostic(
            violation.code,
            Severity.ERROR,
            violation.message,
            tuple(names[n] for n in violation.nodes if 0 <= n < circuit.num_nodes),
        ))

    for node_id in range(circuit.num_nodes):
        gate_type = circuit.types[node_id]
        fanouts = circuit.fanouts(node_id)
        if gate_type in COMBINATIONAL_TYPES and gate_type != GateType.OUTPUT:
            if not fanouts:
                diagnostics.append(Diagnostic(
                    "dangling-gate",
                    Severity.WARNING,
                    f"gate {names[node_id]!r} ({gate_type.name}) drives nothing",
                    (names[node_id],),
                ))
        elif gate_type == GateType.DFF:
            if not fanouts:
                diagnostics.append(Diagnostic(
                    "unread-dff",
                    Severity.WARNING,
                    f"flip-flop {names[node_id]!r} is never read",
                    (names[node_id],),
                ))
            fanins = circuit.fanins[node_id]
            if fanins and circuit.types[fanins[0]] in (
                GateType.CONST0, GateType.CONST1
            ):
                const = "0" if circuit.types[fanins[0]] == GateType.CONST0 else "1"
                diagnostics.append(Diagnostic(
                    "constant-dff",
                    Severity.INFO,
                    f"flip-flop {names[node_id]!r} always loads constant {const}",
                    (names[node_id],),
                ))
        elif gate_type == GateType.INPUT and not fanouts:
            diagnostics.append(Diagnostic(
                "unused-input",
                Severity.INFO,
                f"primary input {names[node_id]!r} is unused",
                (names[node_id],),
            ))
    return LintReport(circuit.name, diagnostics)


def lint(circuit: Circuit) -> LintReport:
    """The circuit's full lint report (cached in memory).

    Diagnostics embed node names, so the cache entry is name-scoped.
    """
    return circuit.derived(_DERIVED_KEY, _build, scope="names")


def enforce(circuit: Circuit, mode: str) -> LintReport | None:
    """Apply one pipeline lint policy; the detector's entry gate.

    * ``"off"`` — no lint run; falls back to the classic raising
      :func:`~repro.circuit.netlist.validate` (first error only).
    * ``"warn"`` — run the full lint; raise :class:`LintError` listing
      *all* errors when any exist, emit :class:`LintWarning` for the rest.
    * ``"strict"`` — as ``warn`` but warnings are rejected too.

    Returns the report (``None`` in ``"off"`` mode).  The verdicts of a
    run that passes the gate are identical across all three modes — the
    pass only validates and annotates, it never rewrites the circuit.
    """
    if mode == "off":
        from repro.circuit.netlist import validate

        validate(circuit)
        return None
    if mode not in LINT_MODES:
        raise ValueError(f"unknown lint mode {mode!r}; expected one of {LINT_MODES}")
    report = lint(circuit)
    rejected = report.errors if mode == "warn" else (
        report.errors + report.warnings
    )
    if rejected:
        details = "; ".join(d.message for d in rejected)
        raise LintError(
            report,
            f"lint ({mode}) rejected {circuit.name!r}: "
            f"{len(rejected)} finding(s): {details}",
        )
    if mode == "warn":
        import warnings

        for diagnostic in report.warnings:
            warnings.warn(diagnostic.format(), LintWarning, stacklevel=3)
    return report


class LintWarning(UserWarning):
    """Category for non-fatal lint findings surfaced in ``warn`` mode."""


def lint_file(path: str | Path) -> LintReport:
    """Lint one netlist file (``.v`` Verilog, otherwise ``.bench``).

    Reader failures become a single ``parse-error`` ERROR diagnostic with
    the reader's file/line context preserved, so a malformed file yields a
    report instead of an exception; well-formed files get the full
    structural lint of :func:`lint`.
    """
    path = Path(path)
    try:
        # check=False: a parseable-but-structurally-broken file should
        # reach the lint pass below so *all* findings are reported, not
        # just the first validation failure.
        if path.suffix == ".v":
            from repro.circuit import verilog

            circuit = verilog.load(path, check=False)
        else:
            from repro.circuit import bench

            circuit = bench.load(path, check=False)
    except CircuitError as exc:
        message = str(exc)
        line_match = re.search(r"\bline (\d+)\b", message)
        return LintReport(path.name, [Diagnostic(
            "parse-error",
            Severity.ERROR,
            message,
            file=str(path),
            line=int(line_match.group(1)) if line_match else None,
        )])
    report = lint(circuit)
    return LintReport(path.name, [
        Diagnostic(d.code, d.severity, d.message, d.nodes, file=str(path))
        for d in report.diagnostics
    ])
