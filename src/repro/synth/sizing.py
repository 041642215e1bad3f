"""Sizing report and the scalar slack definitions.

The production sizer is :func:`repro.synth.fastsize.upsize_fast`; its
dict-based oracle is :mod:`repro.verify.sizing`. Both report a
:class:`SizingReport`; :func:`required_times` / :func:`gate_slacks`
are the scalar slack definitions the oracle and :mod:`repro.sta.stats`
use.
"""

from dataclasses import dataclass


@dataclass
class SizingReport:
    """Outcome of a sizing pass.

    Attributes
    ----------
    met:
        True when the final critical path is within the target.
    target_ps / achieved_ps:
        The goal and the resulting critical-path delay.
    upsized:
        Number of cell-upsize operations applied.
    rounds:
        STA/upsizing rounds executed.
    """

    met: bool
    target_ps: float
    achieved_ps: float
    upsized: int
    rounds: int = 0


def required_times(netlist, report, constraint_ps):
    """Backward-propagated required arrival time of every net.

    Primary outputs are required at *constraint_ps*; a net feeding a
    gate must arrive early enough for that gate's output to meet its own
    requirement.
    """
    required = {}
    for net in netlist.primary_outputs:
        required[net] = min(required.get(net, constraint_ps), constraint_ps)
    for gate in reversed(netlist.topological_gates()):
        r_out = required.get(gate.output)
        if r_out is None:
            continue
        budget = r_out - report.gate_delays[gate.uid]
        for net in gate.inputs:
            prev = required.get(net)
            if prev is None or budget < prev:
                required[net] = budget
    return required


def gate_slacks(netlist, report, constraint_ps):
    """Per-gate slack (required - arrival of its output) in ps."""
    required = required_times(netlist, report, constraint_ps)
    return {g.uid: required.get(g.output, float("inf"))
            - report.arrivals[g.output]
            for g in netlist.gates}
