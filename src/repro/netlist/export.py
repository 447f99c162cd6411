"""Netlist export: structural Verilog and BLIF.

Downstream EDA flows consume either structural Verilog or Berkeley BLIF;
both writers below emit the *combinational* network of a
:class:`~repro.netlist.netlist.Netlist`, and
:func:`controller_to_verilog` wraps a full pipeline controller (Figure 4)
with its registers and clocking into a synthesizable module.

Identifier hygiene: net names may contain characters illegal in Verilog
(``{``, ``,`` from block names); they are sanitised deterministically and
collision-checked.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exceptions import NetlistError
from .netlist import GateKind, Netlist

_VERILOG_OPS = {
    GateKind.AND: " & ",
    GateKind.OR: " | ",
    GateKind.XOR: " ^ ",
}

_IDENT = re.compile(r"[^A-Za-z0-9_]")


def _sanitise(names: List[str]) -> Dict[str, str]:
    mapping: Dict[str, str] = {}
    used = set()
    for name in names:
        clean = _IDENT.sub("_", str(name))
        if not clean or clean[0].isdigit():
            clean = "n_" + clean
        candidate = clean
        counter = 1
        while candidate in used:
            candidate = f"{clean}_{counter}"
            counter += 1
        used.add(candidate)
        mapping[name] = candidate
    return mapping


def netlist_to_verilog(netlist: Netlist, module_name: Optional[str] = None) -> str:
    """Structural Verilog for a combinational netlist."""
    module = _IDENT.sub("_", module_name or netlist.name)
    for net in netlist.outputs:
        if net in netlist.inputs:
            raise NetlistError(
                f"net {net!r} is both input and output; insert a buffer"
            )
    names = _sanitise(netlist.nets())
    inputs = [names[n] for n in netlist.inputs]
    outputs = [names[n] for n in netlist.outputs]
    # An output may also be an internal net; Verilog handles that with
    # plain wire declarations plus assigns.
    lines = [
        f"// generated by repro.netlist.export",
        f"module {module} (",
        "    input  wire " + ", ".join(inputs) + ("," if outputs else ""),
        "    output wire " + ", ".join(outputs),
        ");",
    ]
    internal = [
        names[g.output]
        for g in netlist.gates
        if g.output not in netlist.outputs
    ]
    if internal:
        lines.append("    wire " + ", ".join(internal) + ";")
    for gate in netlist.gates:
        target = names[gate.output]
        operands = [names[n] for n in gate.inputs]
        if gate.kind in _VERILOG_OPS:
            expression = _VERILOG_OPS[gate.kind].join(operands)
        elif gate.kind is GateKind.NOT:
            expression = f"~{operands[0]}"
        elif gate.kind is GateKind.BUF:
            expression = operands[0]
        elif gate.kind is GateKind.CONST0:
            expression = "1'b0"
        elif gate.kind is GateKind.CONST1:
            expression = "1'b1"
        else:  # pragma: no cover - exhaustive over GateKind
            raise NetlistError(f"unsupported gate kind {gate.kind}")
        lines.append(f"    assign {target} = {expression};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def controller_to_verilog(controller: Any, module_name: Optional[str] = None) -> str:
    """Synthesizable Verilog for a Figure-4 pipeline controller.

    Instantiates the C1/C2/lambda blocks as sub-modules and adds the two
    registers with synchronous reset to ``alpha(reset state)``.
    """
    name = _IDENT.sub("_", module_name or f"{controller.machine.name}_pipeline")
    c1 = netlist_to_verilog(controller.c1, f"{name}_c1")
    c2 = netlist_to_verilog(controller.c2, f"{name}_c2")
    lam = netlist_to_verilog(controller.lambda_net, f"{name}_lambda")
    w1, w2 = controller.w1, controller.w2
    xw = controller.input_width
    zw = controller.output_width
    r1_reset, r2_reset = controller.registers(controller.machine.reset_state)

    c1_ports = _port_connections(
        controller.c1, [("r1", w1), ("x", xw)], "next_r2"
    )
    c2_ports = _port_connections(
        controller.c2, [("r2", w2), ("x", xw)], "next_r1"
    )
    lambda_ports = _port_connections(
        controller.lambda_net, [("r1", w1), ("r2", w2), ("x", xw)], "z"
    )
    top = [
        f"module {name} (",
        "    input  wire clk,",
        "    input  wire rst,",
        f"    input  wire [{max(xw - 1, 0)}:0] x,",
        f"    output wire [{max(zw - 1, 0)}:0] z",
        ");",
        f"    reg  [{w1 - 1}:0] r1;",
        f"    reg  [{w2 - 1}:0] r2;",
        f"    wire [{w2 - 1}:0] next_r2;",
        f"    wire [{w1 - 1}:0] next_r1;",
        "",
        f"    {name}_c1 u_c1 ({c1_ports});",
        f"    {name}_c2 u_c2 ({c2_ports});",
        f"    {name}_lambda u_lambda ({lambda_ports});",
        "",
        "    always @(posedge clk) begin",
        "        if (rst) begin",
        f"            r1 <= {w1}'d{r1_reset};",
        f"            r2 <= {w2}'d{r2_reset};",
        "        end else begin",
        "            r1 <= next_r1;",
        "            r2 <= next_r2;",
        "        end",
        "    end",
        "endmodule",
    ]
    return c1 + "\n" + c2 + "\n" + lam + "\n" + "\n".join(top) + "\n"


def _port_connections(
    netlist: Netlist, buses: Sequence[Tuple[str, int]], out_bus: str
) -> str:
    """Named-port hookup: the block's inputs bit by bit, then its outputs."""
    connections = []
    position = 0
    for bus, count in buses:
        for bit in range(count):
            net = netlist.inputs[position]
            connections.append(f".{_IDENT.sub('_', net)}({bus}[{bit}])")
            position += 1
    if position != len(netlist.inputs):
        raise NetlistError(
            f"bus widths cover {position} of {len(netlist.inputs)} inputs"
        )
    for bit, net in enumerate(netlist.outputs):
        connections.append(f".{_IDENT.sub('_', net)}({out_bus}[{bit}])")
    return ", ".join(connections)


def netlist_to_blif(netlist: Netlist, model_name: Optional[str] = None) -> str:
    """Berkeley BLIF for a combinational netlist (one .names per gate)."""
    model = _IDENT.sub("_", model_name or netlist.name)
    names = _sanitise(netlist.nets())
    lines = [
        f".model {model}",
        ".inputs " + " ".join(names[n] for n in netlist.inputs),
        ".outputs " + " ".join(names[n] for n in netlist.outputs),
    ]
    for gate in netlist.gates:
        target = names[gate.output]
        operands = [names[n] for n in gate.inputs]
        if gate.kind is GateKind.AND:
            lines.append(f".names {' '.join(operands)} {target}")
            lines.append("1" * len(operands) + " 1")
        elif gate.kind is GateKind.OR:
            lines.append(f".names {' '.join(operands)} {target}")
            for position in range(len(operands)):
                row = ["-"] * len(operands)
                row[position] = "1"
                lines.append("".join(row) + " 1")
        elif gate.kind is GateKind.XOR:
            lines.append(f".names {' '.join(operands)} {target}")
            for value in range(2 ** len(operands)):
                bits = format(value, f"0{len(operands)}b")
                if bits.count("1") % 2 == 1:
                    lines.append(bits + " 1")
        elif gate.kind is GateKind.NOT:
            lines.append(f".names {operands[0]} {target}")
            lines.append("0 1")
        elif gate.kind is GateKind.BUF:
            lines.append(f".names {operands[0]} {target}")
            lines.append("1 1")
        elif gate.kind is GateKind.CONST1:
            lines.append(f".names {target}")
            lines.append("1")
        elif gate.kind is GateKind.CONST0:
            lines.append(f".names {target}")
        else:  # pragma: no cover
            raise NetlistError(f"unsupported gate kind {gate.kind}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def parse_blif_eval(text: str, pattern: Dict[str, int]) -> Dict[str, int]:
    """Minimal BLIF interpreter (used to verify our own output in tests).

    Supports single-output ``.names`` with on-set cover rows, which is
    exactly what :func:`netlist_to_blif` emits.
    """
    inputs: List[str] = []
    outputs: List[str] = []
    tables: List = []
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(".model"):
            continue
        if line.startswith(".inputs"):
            inputs.extend(line.split()[1:])
        elif line.startswith(".outputs"):
            outputs.extend(line.split()[1:])
        elif line.startswith(".names"):
            tokens = line.split()[1:]
            current = {"inputs": tokens[:-1], "output": tokens[-1], "rows": []}
            tables.append(current)
        elif line.startswith(".end"):
            current = None
        elif current is not None:
            parts = line.split()
            if len(parts) == 2:
                current["rows"].append(parts[0])
            elif len(parts) == 1 and parts[0] == "1":
                current["rows"].append("")  # constant one
    values = dict(pattern)
    for table in tables:
        if not table["inputs"]:
            values[table["output"]] = 1 if table["rows"] else 0
            continue
        operands = [values[name] for name in table["inputs"]]
        result = 0
        for row in table["rows"]:
            if all(
                ch == "-" or int(ch) == operand
                for ch, operand in zip(row, operands)
            ):
                result = 1
                break
        values[table["output"]] = result
    return {name: values[name] for name in outputs}
