"""Structured diagnostics for the static netlist-analysis passes.

A :class:`Diagnostic` is one finding — a structural violation, a
suspicious-but-legal construct, or an informational note — with a stable
machine-readable ``code``, a :class:`Severity`, the node names involved
and (for reader-level findings) the source file/line it came from.  The
lint pass (:mod:`repro.analysis.lint`) collects *all* of them instead of
stopping at the first error, and a :class:`LintReport` carries the full
set plus the policy helpers the pipeline's ``--lint {off,warn,strict}``
flag is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

from repro.circuit.netlist import CircuitError


class Severity(IntEnum):
    """Diagnostic severity, ordered so comparisons read naturally."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass."""

    #: stable machine-readable tag (``"comb-cycle"``, ``"dangling-gate"``,
    #: ``"parse-error"``, ...).
    code: str
    severity: Severity
    message: str
    #: names of the nodes involved (for ``comb-cycle`` the full path).
    nodes: tuple[str, ...] = ()
    #: source file the finding refers to (reader-level diagnostics).
    file: str | None = None
    #: 1-based source line, when known.
    line: int | None = None

    def format(self) -> str:
        """Render as ``[file:line: ]SEVERITY code: message``."""
        prefix = ""
        if self.file is not None:
            prefix = self.file
            if self.line is not None:
                prefix += f":{self.line}"
            prefix += ": "
        return f"{prefix}{self.severity} {self.code}: {self.message}"


class LintError(CircuitError):
    """Raised when lint policy rejects a circuit; carries the full report.

    Subclasses :class:`~repro.circuit.netlist.CircuitError` so callers
    that guarded ``validate`` keep working when lint gates the pipeline.
    """

    def __init__(self, report: "LintReport", message: str) -> None:
        super().__init__(message)
        self.report = report


@dataclass
class LintReport:
    """Every diagnostic the lint pass found for one circuit or file."""

    name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def ok(self, strict: bool = False) -> bool:
        """Clean under the given policy?

        Default policy passes with warnings/infos; ``strict`` additionally
        rejects warnings (infos never fail).
        """
        threshold = Severity.WARNING if strict else Severity.ERROR
        return all(d.severity < threshold for d in self.diagnostics)

    def format(self) -> str:
        """Multi-line human-readable rendering, header included."""
        count = len(self.diagnostics)
        noun = "diagnostic" if count == 1 else "diagnostics"
        lines = [f"{self.name}: {count} {noun}"]
        lines.extend(f"  {d.format()}" for d in self.diagnostics)
        return "\n".join(lines)
