"""Reader/writer for the ISCAS89 ``.bench`` netlist format.

The format is line oriented::

    # comment
    INPUT(G0)
    OUTPUT(G17)
    G10 = DFF(G14)
    G14 = NAND(G0, G10)
    G17 = NOT(G11)

Supported functions: AND, NAND, OR, NOR, XOR, XNOR, NOT, BUF/BUFF, DFF, MUX
(three operands: select, d0, d1) and the constants VSS/GND (0) and VDD (1).
Signals may be used before they are defined; OUTPUT may name any signal.
"""

from __future__ import annotations

import io
import re
from pathlib import Path

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, CircuitError, validate

_ASSIGN_RE = re.compile(
    r"^(?P<lhs>[^\s=]+)\s*=\s*(?P<func>[A-Za-z01]+)\s*\((?P<args>[^)]*)\)\s*$"
)
_DECL_RE = re.compile(r"^(?P<kind>INPUT|OUTPUT)\s*\((?P<name>[^)]+)\)\s*$")

_FUNC_TO_TYPE = {
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "DFF": GateType.DFF,
    "MUX": GateType.MUX,
}

_TYPE_TO_FUNC = {
    GateType.AND: "AND",
    GateType.NAND: "NAND",
    GateType.OR: "OR",
    GateType.NOR: "NOR",
    GateType.XOR: "XOR",
    GateType.XNOR: "XNOR",
    GateType.NOT: "NOT",
    GateType.BUF: "BUFF",
    GateType.DFF: "DFF",
    GateType.MUX: "MUX",
}


class BenchFormatError(CircuitError):
    """Raised on malformed ``.bench`` input."""


def loads(text: str, name: str = "bench", check: bool = True) -> Circuit:
    """Parse ``.bench`` source text into a validated :class:`Circuit`.

    Every malformed construct raises :class:`BenchFormatError` (a
    :class:`~repro.circuit.netlist.CircuitError`) carrying the 1-based
    source line it came from.  ``check=False`` skips the final structural
    validation — the lint pass uses it to report *all* problems of a
    parseable-but-broken netlist instead of the first.
    """
    inputs: list[tuple[str, int]] = []
    outputs: list[tuple[str, int]] = []
    assigns: dict[str, tuple[str, list[str], int]] = {}

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        decl = _DECL_RE.match(line)
        if decl:
            target = inputs if decl.group("kind") == "INPUT" else outputs
            target.append((decl.group("name").strip(), line_no))
            continue
        assign = _ASSIGN_RE.match(line)
        if assign:
            lhs = assign.group("lhs")
            func = assign.group("func").upper()
            args = [a.strip() for a in assign.group("args").split(",") if a.strip()]
            if lhs in assigns:
                raise BenchFormatError(f"line {line_no}: {lhs!r} defined twice")
            if func in ("VDD", "1"):
                assigns[lhs] = ("CONST1", args, line_no)
            elif func in ("VSS", "GND", "0"):
                assigns[lhs] = ("CONST0", args, line_no)
            elif func in _FUNC_TO_TYPE:
                assigns[lhs] = (func, args, line_no)
            else:
                raise BenchFormatError(f"line {line_no}: unknown function {func!r}")
            continue
        raise BenchFormatError(f"line {line_no}: cannot parse {raw_line!r}")

    circuit = Circuit(name)
    ids: dict[str, int] = {}

    for signal, line_no in inputs:
        if signal in ids:
            raise BenchFormatError(
                f"line {line_no}: {signal!r} declared INPUT twice"
            )
        ids[signal] = circuit.add_node(GateType.INPUT, (), signal)

    # First pass: create every defined node with empty fanins so forward
    # references resolve; second pass wires them up.
    for signal, (func, _args, line_no) in assigns.items():
        if signal in ids:
            raise BenchFormatError(
                f"line {line_no}: {signal!r} defined as both INPUT and gate"
            )
        if func == "CONST0":
            gate_type = GateType.CONST0
        elif func == "CONST1":
            gate_type = GateType.CONST1
        else:
            gate_type = _FUNC_TO_TYPE[func]
        ids[signal] = circuit.add_node(gate_type, (), signal)

    for signal, (func, args, line_no) in assigns.items():
        if func in ("CONST0", "CONST1"):
            if args:
                raise BenchFormatError(
                    f"line {line_no}: {signal!r}: constants take no operands"
                )
            continue
        try:
            fanins = tuple(ids[a] for a in args)
        except KeyError as exc:
            raise BenchFormatError(
                f"line {line_no}: {signal!r}: undefined signal {exc.args[0]!r}"
            ) from None
        circuit.set_fanins(ids[signal], fanins)

    seen_po: set[str] = set()
    for signal, line_no in outputs:
        if signal not in ids:
            raise BenchFormatError(
                f"line {line_no}: OUTPUT names undefined signal {signal!r}"
            )
        if signal in seen_po:
            raise BenchFormatError(
                f"line {line_no}: {signal!r} declared OUTPUT twice"
            )
        seen_po.add(signal)
        circuit.add_node(GateType.OUTPUT, (ids[signal],), f"{signal}_po")

    if check:
        validate(circuit)
    return circuit


def load(path: str | Path, check: bool = True) -> Circuit:
    """Read a ``.bench`` file from disk.

    Parse and validation errors are re-raised with the file name
    prefixed, so ``file: line N: ...`` locates the defect exactly; a file
    that cannot be read, or is not UTF-8 text, raises ``file: cannot read
    (reason)``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BenchFormatError(
            f"{path.name}: cannot read ({exc.strerror or exc})"
        ) from None
    except UnicodeDecodeError as exc:
        raise BenchFormatError(
            f"{path.name}: cannot read (not UTF-8 text: byte "
            f"0x{exc.object[exc.start]:02x} at offset {exc.start})"
        ) from None
    try:
        return loads(text, name=path.stem, check=check)
    except CircuitError as exc:
        raise BenchFormatError(f"{path.name}: {exc}") from None


def dumps(circuit: Circuit) -> str:
    """Serialise a circuit to ``.bench`` text (MUX kept as-is)."""
    out = io.StringIO()
    out.write(f"# {circuit.name}\n")
    stats = circuit.stats()
    out.write(
        f"# {stats['inputs']} inputs, {stats['outputs']} outputs, "
        f"{stats['dffs']} flip-flops, {stats['gates']} gates\n"
    )
    for node_id in circuit.inputs:
        out.write(f"INPUT({circuit.names[node_id]})\n")
    for node_id in circuit.outputs:
        driver = circuit.fanins[node_id][0]
        out.write(f"OUTPUT({circuit.names[driver]})\n")
    out.write("\n")
    for node_id in circuit.topo_order():
        gate_type = circuit.types[node_id]
        if gate_type in (GateType.INPUT, GateType.OUTPUT):
            continue
        name = circuit.names[node_id]
        if gate_type == GateType.CONST0:
            out.write(f"{name} = VSS()\n")
        elif gate_type == GateType.CONST1:
            out.write(f"{name} = VDD()\n")
        else:
            args = ", ".join(circuit.names[f] for f in circuit.fanins[node_id])
            out.write(f"{name} = {_TYPE_TO_FUNC[gate_type]}({args})\n")
    return out.getvalue()


def dump(circuit: Circuit, path: str | Path) -> None:
    """Write ``circuit`` to ``path`` in ``.bench`` format."""
    Path(path).write_text(dumps(circuit))
