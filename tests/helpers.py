"""Shared test helpers."""

import numpy as np

from repro.sim import (bits_to_int, compile_netlist, evaluate_packed,
                       int_to_bits)
from repro.synth import synthesize_netlist


def run_netlist(component, lib, operands, netlist=None):
    """Evaluate a component's (synthesized) netlist on integer operands."""
    if netlist is None:
        netlist = synthesize_netlist(component, lib, effort="high")
    parts = [int_to_bits(np.asarray(vals), width)
             for vals, width in zip(operands, component.operand_widths)]
    bits = np.concatenate(parts, axis=1)
    out = evaluate_packed(compile_netlist(netlist, lib), bits)
    return bits_to_int(out)
