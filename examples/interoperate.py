#!/usr/bin/env python
"""Interoperating with standard EDA formats.

Round-trips one synthesized, aging-analyzed component through the
bundled interchange formats:

1. synthesize an adder and export it as flat structural Verilog,
2. run aging-aware STA and export the aged delays as an SDF file (the
   artifact the paper feeds to its gate-level simulator),
3. export the cell library itself as Liberty-style text for the same
   aging corner,
4. read everything back and prove the loop is closed: the re-imported
   netlist computes the same function and the SDF delays drive the
   event-driven simulator to the same settle times STA predicted.

Run:  python examples/interoperate.py [output_dir]
"""

import os
import sys

import numpy as np

from repro import (Adder, default_library, synthesize_netlist, worst_case)
from repro.cells import to_liberty
from repro.netlist import from_verilog, to_verilog
from repro.sim import (bits_to_int, compile_netlist, evaluate_packed,
                       int_to_bits)
from repro.sta import analyze, gate_delays_from_sdf, to_sdf
from repro.verify import EventSimulator

WIDTH = 12
SCENARIO = worst_case(10)


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "interop_out"
    os.makedirs(out_dir, exist_ok=True)
    lib = default_library()
    component = Adder(WIDTH)
    netlist = synthesize_netlist(component, lib)

    paths = {
        "verilog": os.path.join(out_dir, "adder.v"),
        "sdf": os.path.join(out_dir, "adder_10y_worst.sdf"),
        "liberty": os.path.join(out_dir, "repro45_10y_worst.lib"),
    }
    with open(paths["verilog"], "w") as handle:
        handle.write(to_verilog(netlist))
    with open(paths["sdf"], "w") as handle:
        handle.write(to_sdf(netlist, lib, scenario=SCENARIO))
    with open(paths["liberty"], "w") as handle:
        handle.write(to_liberty(lib, scenario=SCENARIO))
    for kind, path in paths.items():
        print("wrote %-8s %s (%d bytes)"
              % (kind, path, os.path.getsize(path)))

    # -- close the loop -------------------------------------------------
    with open(paths["verilog"]) as handle:
        reloaded = from_verilog(handle.read())
    a, b = component.random_operands(2000, rng=42)
    bits = np.concatenate([int_to_bits(a, WIDTH), int_to_bits(b, WIDTH)],
                          axis=1)
    original = bits_to_int(evaluate_packed(compile_netlist(netlist, lib),
                                           bits))
    roundtrip = bits_to_int(evaluate_packed(compile_netlist(reloaded, lib),
                                            bits))
    print("verilog round-trip functional match: %s"
          % bool(np.array_equal(original, roundtrip)))

    with open(paths["sdf"]) as handle:
        sdf_delays = gate_delays_from_sdf(handle.read())
    report = analyze(netlist, lib, scenario=SCENARIO)
    worst_gate = max(sdf_delays, key=sdf_delays.get)
    print("SDF parses %d instances; worst IOPATH %.1f ps (STA gate "
          "delay %.1f ps)" % (len(sdf_delays), sdf_delays[worst_gate],
                              report.gate_delays[worst_gate]))

    # Event-driven simulation honours the aged SDF timing: settle times
    # never exceed the STA arrival of the corresponding output.
    simulator = EventSimulator(netlist, lib, scenario=SCENARIO)
    pis = netlist.primary_inputs
    worst_settle = 0.0
    for i in range(1, 50):
        waves = simulator.settle(dict(zip(pis, bits[i - 1].tolist())),
                                 dict(zip(pis, bits[i].tolist())))
        worst_settle = max(worst_settle,
                           max(waves[po].settle_time
                               for po in netlist.primary_outputs))
    print("event-driven worst settle over 49 cycles: %.1f ps "
          "(STA bound %.1f ps)" % (worst_settle,
                                   report.critical_path_ps))
    assert worst_settle <= report.critical_path_ps + 1e-6
    print("loop closed: formats round-trip and timing is consistent")


if __name__ == "__main__":
    main()
