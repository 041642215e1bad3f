"""Cross-check of timed-simulation vs static-STA violation reports.

The faultload generator trusts static STA arrivals; the timed simulator
(:class:`repro.sim.timing.TimedSimulator`) derives *dynamic* per-vector
arrivals. The contract between them is containment: static arrivals
upper-bound dynamic ones (static sensitization can only drop
contributing inputs, never add delay), so every primary output the
timed simulator flags as violating at some clock must also be past that
clock statically. Both engines propagate float64 and add the identical
per-gate delay floats, so the bound is *exact* — no epsilon.

Historically the timed simulator accumulated arrivals in float32, which
let a dynamic arrival drift past the static bound and produced
violation reports static STA disproved. :func:`crosscheck_violations`
pins the repaired agreement; :func:`minimize_disagreement` shrinks any
future regression to a minimal netlist with the delta-debugging
machinery of :mod:`repro.verify.shrink`.
"""

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..sim.timing import TimedSimulator
from ..sta.engine import analyze_batch
from ..verify.oracles import default_stimulus
from ..verify.shrink import shrink_netlist


@dataclass(frozen=True)
class Disagreement:
    """One PO bit where dynamic and static timing verdicts conflict."""

    net: int
    column: int
    vectors: int
    dynamic_arrival_ps: float
    static_arrival_ps: float
    clock_ps: float

    def describe(self):
        return ("output %d (net %d): dynamic arrival %.6f ps exceeds "
                "static bound %.6f ps at clock %.6f ps on %d vector(s)"
                % (self.column, self.net, self.dynamic_arrival_ps,
                   self.static_arrival_ps, self.clock_ps, self.vectors))


@dataclass
class CrosscheckReport:
    """Violating-PO sets of both engines at one clock, plus conflicts.

    ``static_violating`` / ``dynamic_violating`` are PO column tuples;
    the containment ``dynamic <= static`` (as sets, and per-vector as
    arrival bounds) is the checked invariant. ``disagreements`` lists
    every breach.
    """

    name: str
    clock_ps: float
    scenario_label: str
    vectors: int
    static_violating: Tuple[int, ...]
    dynamic_violating: Tuple[int, ...]
    disagreements: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.disagreements

    def describe(self):
        lines = ["crosscheck %s @ %.3f ps (%s, %d vectors): "
                 "static flags %d PO(s), dynamic flags %d PO(s)"
                 % (self.name, self.clock_ps, self.scenario_label,
                    self.vectors, len(self.static_violating),
                    len(self.dynamic_violating))]
        for item in self.disagreements:
            lines.append("  " + item.describe())
        if self.passed:
            lines.append("  dynamic violations are a subset of static "
                         "ones; arrivals within the static bound")
        return "\n".join(lines)


def crosscheck_violations(netlist, library, clock_ps=None, scenario=None,
                          vectors=None, rng=None, glitch_model="sensitization"):
    """Compare which POs each engine reports violating at *clock_ps*.

    The clock defaults to the *fresh* critical path — the guardband-free
    operating point — while *scenario* ages the gates, which is the
    regime campaigns inject in. Checks two facts per PO bit:

    * every dynamic arrival is ``<=`` the static arrival (exactly);
    * consequently every dynamically-violating PO is statically
      violating too.
    """
    corners = ([None] if scenario is None or scenario.is_fresh
               else [None, scenario])
    batch = analyze_batch(netlist, library, corners)
    if clock_ps is None:
        clock_ps = batch.critical_paths_ps[0]
    clock_ps = float(clock_ps)
    static = np.array([batch.arrival_ps(n, len(corners) - 1)
                       for n in netlist.primary_outputs], dtype=np.float64)
    pi_bits = default_stimulus(netlist, vectors=vectors, rng=rng)
    sim = TimedSimulator(netlist, library, clock_ps, scenario=scenario,
                         glitch_model=glitch_model)
    result = sim.run_stream(pi_bits)

    static_violating = tuple(np.flatnonzero(static > clock_ps).tolist())
    dynamic_cols = np.flatnonzero(result.violations.any(axis=0))
    disagreements = []
    for col in dynamic_cols.tolist():
        over = result.arrivals[:, col] > static[col]
        bad = over | (result.violations[:, col]
                      & ~(static[col] > clock_ps))
        if bad.any():
            disagreements.append(Disagreement(
                net=int(netlist.primary_outputs[col]), column=col,
                vectors=int(bad.sum()),
                dynamic_arrival_ps=float(result.arrivals[bad, col].max()),
                static_arrival_ps=float(static[col]),
                clock_ps=clock_ps))
    label = "fresh" if scenario is None else scenario.label
    return CrosscheckReport(
        name=netlist.name, clock_ps=clock_ps, scenario_label=label,
        vectors=int(pi_bits.shape[0]),
        static_violating=static_violating,
        dynamic_violating=tuple(dynamic_cols.tolist()),
        disagreements=disagreements)


def minimize_disagreement(netlist, library, scenario=None, vectors=None,
                          rng=None, max_rounds=40):
    """Shrink a crosschecking failure to a minimal reproducing netlist.

    Returns ``(minimal netlist, its report)``; raises ``ValueError``
    when the input netlist does not disagree in the first place. The
    predicate re-derives the guardband-free clock per candidate, so
    shrinking keeps exercising the same operating point.
    """
    base = crosscheck_violations(netlist, library, scenario=scenario,
                                 vectors=vectors, rng=rng)
    if base.passed:
        raise ValueError("netlist %s shows no timed/static disagreement"
                         % netlist.name)

    def still_disagrees(candidate):
        return not crosscheck_violations(candidate, library,
                                         scenario=scenario, vectors=vectors,
                                         rng=rng).passed

    small = shrink_netlist(netlist, still_disagrees, max_rounds=max_rounds)
    return small, crosscheck_violations(small, library, scenario=scenario,
                                        vectors=vectors, rng=rng)
