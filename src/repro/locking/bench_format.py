"""Reader/writer for the ISCAS ``.bench`` netlist format.

The format the logic-locking literature distributes benchmarks in::

    # comment
    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G1, G3)
    G17 = NOT(G10)
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Union

from repro.locking.netlist import Gate, GateType, Netlist
from repro.persist import write_atomic

_INPUT_RE = re.compile(r"^INPUT\s*\(\s*([^)]+?)\s*\)$", re.IGNORECASE)
_OUTPUT_RE = re.compile(r"^OUTPUT\s*\(\s*([^)]+?)\s*\)$", re.IGNORECASE)
_GATE_RE = re.compile(
    r"^([^\s=]+)\s*=\s*([A-Za-z]+)\s*\(\s*([^)]*?)\s*\)$"
)


def parse_bench(text: str, name: str = "bench") -> Netlist:
    """Parse ``.bench`` text into a :class:`Netlist`."""
    inputs: List[str] = []
    outputs: List[str] = []
    gates: List[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _INPUT_RE.match(line)
        if m:
            inputs.append(m.group(1))
            continue
        m = _OUTPUT_RE.match(line)
        if m:
            outputs.append(m.group(1))
            continue
        m = _GATE_RE.match(line)
        if m:
            out, type_name, arg_text = m.groups()
            try:
                gate_type = GateType[type_name.upper()]
            except KeyError as exc:
                raise ValueError(
                    f"line {lineno}: unknown gate type {type_name!r}"
                ) from exc
            args = tuple(a.strip() for a in arg_text.split(",") if a.strip())
            gates.append(Gate(out, gate_type, args))
            continue
        raise ValueError(f"line {lineno}: cannot parse {raw!r}")
    return Netlist(inputs, outputs, gates, name=name)


def load_bench(path: Union[str, Path]) -> Netlist:
    """Load a ``.bench`` file."""
    path = Path(path)
    return parse_bench(path.read_text(), name=path.stem)


def write_bench(netlist: Netlist) -> str:
    """Serialise a :class:`Netlist` to ``.bench`` text."""
    lines = [f"# {netlist.name}"]
    lines.extend(f"INPUT({i})" for i in netlist.inputs)
    lines.extend(f"OUTPUT({o})" for o in netlist.outputs)
    for gate in netlist.gates:
        args = ", ".join(gate.inputs)
        lines.append(f"{gate.output} = {gate.gate_type.value}({args})")
    return "\n".join(lines) + "\n"


def save_bench(netlist: Netlist, path: Union[str, Path]) -> None:
    """Write a ``.bench`` file."""
    write_atomic(path, write_bench(netlist))
