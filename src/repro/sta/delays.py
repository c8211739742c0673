"""Per-gate min/max delay annotations (the hazard filter's sidecar).

The exact hazard classification (:mod:`repro.analysis.hazard_exact`) is
delay-independent: a glitch-proven pair can glitch under *some* delay
assignment.  When realistic per-gate delay intervals are known, many of
those glitches collapse — a pulse only forms at the sink when the
earliest and latest arrival of the source transition differ.  This
module loads those intervals from a sidecar JSON file::

    {
      "default": {"min": 1.0, "max": 1.0},
      "gates": {"u12": {"min": 0.8, "max": 2.5}}
    }

``default`` applies to every gate not listed under ``gates``; both keys
are optional (a missing default is the unit interval).  Gate names refer
to the *sequential* circuit; unknown names are rejected when a circuit
is supplied to :meth:`GateDelays.load`.  Every sidecar problem raises
:class:`DelaySidecarError`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.circuit.netlist import Circuit


class DelaySidecarError(ValueError):
    """An unreadable or invalid delay sidecar (the message is one line)."""


@dataclass(frozen=True)
class DelayInterval:
    """Inclusive ``[min, max]`` propagation-delay bounds of one gate."""

    min: float
    max: float

    def __post_init__(self) -> None:
        if self.min < 0 or self.max < self.min:
            raise ValueError(
                f"invalid delay interval [{self.min}, {self.max}]"
            )


#: The delay-agnostic fallback: every gate takes exactly one unit.
UNIT_DELAY = DelayInterval(1.0, 1.0)


@dataclass
class GateDelays:
    """Per-gate delay intervals with a default fallback."""

    default: DelayInterval = UNIT_DELAY
    gates: dict[str, DelayInterval] = field(default_factory=dict)

    def interval(self, name: str) -> DelayInterval:
        """Delay interval of gate ``name`` (the default when unlisted)."""
        return self.gates.get(name, self.default)

    @classmethod
    def from_payload(cls, payload: object) -> GateDelays:
        """Build from a decoded sidecar payload (see module docstring)."""
        if not isinstance(payload, dict):
            raise DelaySidecarError("delay sidecar must be a JSON object")
        default = _interval(
            payload.get("default", {"min": 1.0, "max": 1.0}), "default"
        )
        raw_gates = payload.get("gates", {})
        if not isinstance(raw_gates, dict):
            raise DelaySidecarError('"gates" must map gate names to intervals')
        gates = {
            str(name): _interval(entry, str(name))
            for name, entry in raw_gates.items()
        }
        return cls(default=default, gates=gates)

    @classmethod
    def load(cls, path: Path, circuit: Circuit | None = None) -> GateDelays:
        """Load a sidecar file, validating gate names against ``circuit``.

        A missing or unreadable file, invalid JSON, a malformed entry and
        an unknown gate name all raise :class:`DelaySidecarError` naming
        ``path``.
        """
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise DelaySidecarError(
                f"{path}: cannot read delay sidecar: {exc.strerror or exc}"
            ) from None
        except ValueError as exc:  # bad JSON syntax or text encoding
            raise DelaySidecarError(
                f"{path}: delay sidecar is not valid JSON: {exc}"
            ) from None
        try:
            delays = cls.from_payload(payload)
        except DelaySidecarError as exc:
            raise DelaySidecarError(f"{path}: {exc}") from None
        if circuit is not None:
            unknown = sorted(set(delays.gates) - set(circuit.names))
            if unknown:
                raise DelaySidecarError(
                    f"{path}: delay sidecar names unknown gates: "
                    + ", ".join(unknown)
                )
        return delays


def _interval(entry: object, context: str) -> DelayInterval:
    if not isinstance(entry, dict):
        raise DelaySidecarError(f"delay entry for {context!r} must be an object")
    try:
        return DelayInterval(float(entry["min"]), float(entry["max"]))
    except KeyError as missing:
        raise DelaySidecarError(
            f"delay entry for {context!r} lacks key {missing}"
        ) from None
    except (TypeError, ValueError) as exc:
        raise DelaySidecarError(f"delay entry for {context!r}: {exc}") from None
