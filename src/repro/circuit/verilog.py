"""Structural Verilog netlist reader/writer (gate-primitive subset).

Covers the flat, technology-independent structural style that EDA tools
exchange:

* one ``module`` with ``input``/``output``/``wire`` declarations,
* gate primitives ``and/nand/or/nor/xor/xnor/not/buf`` with the output as
  first terminal,
* flip-flops as ``dff <name> (Q, D);`` instances (a common academic
  convention; the clock is implicit, matching the library's single-clock
  model),
* 2:1 muxes as ``mux <name> (Y, S, D0, D1);``,
* ``assign y = 1'b0 / 1'b1;`` for constants and ``assign a = b;`` buffers.

The writer emits exactly this subset, so write→read round-trips.
"""

from __future__ import annotations

import io
import re
from pathlib import Path

from repro.circuit.gates import GateType
from repro.circuit.netlist import Circuit, CircuitError, validate

_PRIMITIVES = {
    "and": GateType.AND,
    "nand": GateType.NAND,
    "or": GateType.OR,
    "nor": GateType.NOR,
    "xor": GateType.XOR,
    "xnor": GateType.XNOR,
    "not": GateType.NOT,
    "buf": GateType.BUF,
    "dff": GateType.DFF,
    "mux": GateType.MUX,
}

_TYPE_TO_PRIMITIVE = {v: k for k, v in _PRIMITIVES.items()}

_MODULE_RE = re.compile(r"module\s+(?P<name>\w+)\s*\((?P<ports>[^)]*)\)\s*;")
_DECL_RE = re.compile(r"(?P<kind>input|output|wire)\s+(?P<names>[^;]+);")
_INSTANCE_RE = re.compile(
    r"(?P<prim>\w+)\s+(?P<inst>[\w$.\[\]]+)\s*\((?P<terms>[^)]*)\)\s*;"
)
_ASSIGN_RE = re.compile(r"assign\s+(?P<lhs>[\w$.\[\]]+)\s*=\s*(?P<rhs>[^;]+);")


class VerilogFormatError(CircuitError):
    """Raised on Verilog text outside the supported structural subset."""


def _blank(match: re.Match[str]) -> str:
    """Replace a match with whitespace of identical shape (newlines kept)."""
    return re.sub(r"[^\n]", " ", match.group(0))


def _strip_comments(text: str) -> str:
    # Comments are blanked rather than removed so every character keeps
    # its original offset — error messages can then name source lines.
    text = re.sub(r"/\*.*?\*/", _blank, text, flags=re.S)
    return re.sub(r"//[^\n]*", _blank, text)


def loads(text: str, name: str | None = None, check: bool = True) -> Circuit:
    """Parse structural Verilog into a validated :class:`Circuit`.

    Text outside the supported subset raises :class:`VerilogFormatError`
    (a :class:`~repro.circuit.netlist.CircuitError`) naming the 1-based
    source line.  ``check=False`` skips the final structural validation
    (used by the lint pass to report all problems at once).
    """
    text = _strip_comments(text)

    def line_of(offset: int) -> int:
        return text.count("\n", 0, offset) + 1

    module = _MODULE_RE.search(text)
    if module is None:
        raise VerilogFormatError("no module declaration found")
    body_start = module.end()
    body = text[body_start:]
    end = body.find("endmodule")
    if end == -1:
        raise VerilogFormatError(
            f"line {line_of(module.start())}: missing endmodule"
        )
    body = body[:end]

    inputs: list[str] = []
    outputs: list[tuple[str, int]] = []
    for decl in _DECL_RE.finditer(body):
        decl_line = line_of(body_start + decl.start())
        names = [n.strip() for n in decl.group("names").split(",") if n.strip()]
        if any("[" in n for n in names):
            raise VerilogFormatError(
                f"line {decl_line}: vector ports/wires are not supported"
            )
        if decl.group("kind") == "input":
            inputs.extend(names)
        elif decl.group("kind") == "output":
            outputs.extend((n, decl_line) for n in names)

    # Collect drivers: signal -> (gate_type, operand names, source line).
    # Declarations and assigns are blanked in place (offsets preserved)
    # before the next scan so one construct is never parsed twice.
    drivers: dict[str, tuple[GateType, list[str], int]] = {}
    body_no_decls = _DECL_RE.sub(_blank, body)
    for assign in _ASSIGN_RE.finditer(body_no_decls):
        assign_line = line_of(body_start + assign.start())
        lhs = assign.group("lhs")
        rhs = assign.group("rhs").strip()
        if lhs in drivers:
            raise VerilogFormatError(f"line {assign_line}: {lhs!r} driven twice")
        if rhs in ("1'b0", "1'd0", "0"):
            drivers[lhs] = (GateType.CONST0, [], assign_line)
        elif rhs in ("1'b1", "1'd1", "1"):
            drivers[lhs] = (GateType.CONST1, [], assign_line)
        elif re.fullmatch(r"[\w$.\[\]]+", rhs):
            drivers[lhs] = (GateType.BUF, [rhs], assign_line)
        else:
            raise VerilogFormatError(
                f"line {assign_line}: unsupported assign expression {rhs!r}"
            )

    body_no_assigns = _ASSIGN_RE.sub(_blank, body_no_decls)
    for instance in _INSTANCE_RE.finditer(body_no_assigns):
        primitive = instance.group("prim")
        if primitive in ("module", "endmodule"):
            continue
        instance_line = line_of(body_start + instance.start())
        if primitive not in _PRIMITIVES:
            raise VerilogFormatError(
                f"line {instance_line}: unknown primitive {primitive!r}"
            )
        terms = [t.strip() for t in instance.group("terms").split(",") if t.strip()]
        if len(terms) < 2:
            raise VerilogFormatError(
                f"line {instance_line}: instance {instance.group('inst')!r} "
                f"needs >= 2 terminals"
            )
        out, operands = terms[0], terms[1:]
        if out in drivers:
            raise VerilogFormatError(
                f"line {instance_line}: {out!r} driven twice"
            )
        drivers[out] = (_PRIMITIVES[primitive], operands, instance_line)

    circuit = Circuit(name or module.group("name"))
    ids: dict[str, int] = {}
    for signal in inputs:
        if signal in ids:
            raise VerilogFormatError(f"input {signal!r} declared twice")
        ids[signal] = circuit.add_node(GateType.INPUT, (), signal)
    for signal, (gate_type, _operands, signal_line) in drivers.items():
        if signal in ids:
            raise VerilogFormatError(
                f"line {signal_line}: input {signal!r} cannot be driven"
            )
        ids[signal] = circuit.add_node(gate_type, (), signal)
    for signal, (gate_type, operands, signal_line) in drivers.items():
        try:
            fanins = tuple(ids[o] for o in operands)
        except KeyError as missing:
            raise VerilogFormatError(
                f"line {signal_line}: {signal!r}: undriven signal "
                f"{missing.args[0]!r}"
            ) from None
        circuit.set_fanins(ids[signal], fanins)
    for signal, decl_line in outputs:
        if signal not in ids:
            raise VerilogFormatError(
                f"line {decl_line}: output {signal!r} is never driven"
            )
        circuit.add_node(GateType.OUTPUT, (ids[signal],), f"{signal}__po")
    if check:
        validate(circuit)
    return circuit


def load(path: str | Path, check: bool = True) -> Circuit:
    """Read a structural Verilog file from disk.

    Parse and validation errors are re-raised with the file name
    prefixed, so ``file: line N: ...`` locates the defect exactly; a file
    that cannot be read, or is not UTF-8 text, raises ``file: cannot read
    (reason)``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise VerilogFormatError(
            f"{path.name}: cannot read ({exc.strerror or exc})"
        ) from None
    except UnicodeDecodeError as exc:
        raise VerilogFormatError(
            f"{path.name}: cannot read (not UTF-8 text: byte "
            f"0x{exc.object[exc.start]:02x} at offset {exc.start})"
        ) from None
    try:
        return loads(text, name=None, check=check)
    except CircuitError as exc:
        raise VerilogFormatError(f"{path.name}: {exc}") from None


def dumps(circuit: Circuit) -> str:
    """Serialise a circuit as structural Verilog (the subset above)."""
    out = io.StringIO()
    input_names = [circuit.names[n] for n in circuit.inputs]
    # A primary output whose driver is itself an input (or is observed
    # twice) gets an aliasing wire so ports stay unique and well-typed.
    output_names: list[str] = []
    aliases: list[tuple[str, str]] = []
    seen_outputs: set[str] = set()
    for po in circuit.outputs:
        driver = circuit.fanins[po][0]
        driver_name = circuit.names[driver]
        if circuit.types[driver] == GateType.INPUT or driver_name in seen_outputs:
            alias = circuit.names[po]
            aliases.append((alias, driver_name))
            driver_name = alias
        seen_outputs.add(driver_name)
        output_names.append(driver_name)
    ports = ", ".join(input_names + output_names)
    out.write(f"module {circuit.name} ({ports});\n")
    if input_names:
        out.write(f"  input {', '.join(input_names)};\n")
    if output_names:
        out.write(f"  output {', '.join(output_names)};\n")
    wires = [
        circuit.names[n]
        for n in range(circuit.num_nodes)
        if circuit.types[n]
        not in (GateType.INPUT, GateType.OUTPUT)
        and circuit.names[n] not in output_names
    ]
    if wires:
        out.write(f"  wire {', '.join(wires)};\n")
    out.write("\n")
    for alias, driver_name in aliases:
        out.write(f"  assign {alias} = {driver_name};\n")
    instance = 0
    for node in circuit.topo_order():
        gate_type = circuit.types[node]
        node_name = circuit.names[node]
        if gate_type in (GateType.INPUT, GateType.OUTPUT):
            continue
        if gate_type == GateType.CONST0:
            out.write(f"  assign {node_name} = 1'b0;\n")
            continue
        if gate_type == GateType.CONST1:
            out.write(f"  assign {node_name} = 1'b1;\n")
            continue
        operands = ", ".join(circuit.names[f] for f in circuit.fanins[node])
        primitive = _TYPE_TO_PRIMITIVE[gate_type]
        out.write(f"  {primitive} u{instance} ({node_name}, {operands});\n")
        instance += 1
    out.write("endmodule\n")
    return out.getvalue()


def dump(circuit: Circuit, path: str | Path) -> None:
    """Write ``circuit`` to ``path`` as structural Verilog."""
    Path(path).write_text(dumps(circuit))
