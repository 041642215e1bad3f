"""Aging-aware synthesis baseline (reproduction of [4]).

The state of the art the paper compares against synthesizes the circuit
*against the degradation-aware cell library*: timing optimization sees
aged delays, so the tool strengthens cells along aging-critical paths
until the design still meets its fresh-clock constraint at end of life.
The resilience is bought with area, leakage and dynamic power — the cost
axis of the paper's Fig. 8(c) comparison.
"""

from dataclasses import dataclass

from ..aging.bti import DEFAULT_BTI
from .fastsize import critical_path, propagate_full, upsize_fast
from .sizing import SizingReport
from .sweep import optimized


@dataclass
class AgingAwareResult:
    """Outcome of :func:`aging_aware_synthesize`.

    Attributes
    ----------
    netlist:
        The hardened netlist.
    fresh_delay_ps / aged_delay_ps:
        Critical-path delay before and after the target lifetime.
    target_ps:
        The timing constraint the aged design had to meet.
    sizing:
        The :class:`~repro.synth.sizing.SizingReport` of the hardening
        pass.
    """

    netlist: object
    fresh_delay_ps: float
    aged_delay_ps: float
    target_ps: float
    sizing: SizingReport


def aging_aware_synthesize(source, library, scenario, target_ps=None,
                           bti=DEFAULT_BTI, degradation=None,
                           effort_rounds=8, area_budget_ratio=1.15):
    """Synthesize *source* so that its **aged** timing meets the target.

    Parameters
    ----------
    source:
        RTL component or netlist (not mutated).
    library:
        Cell library (with multiple drive strengths).
    scenario:
        The end-of-life :class:`~repro.aging.scenario.AgingScenario` the
        design must survive (the paper hardens for 10 years worst case).
    target_ps:
        Timing constraint. Defaults to the *fresh* critical path of the
        plainly optimized netlist — i.e. "keep the no-aging clock for
        the whole lifetime", the guardband-free goal.
    area_budget_ratio:
        Bound on the hardening pass's area overhead relative to the
        plain netlist (aging-aware synthesis trades bounded area/power
        for resilience; any delay it cannot close within the budget
        remains as a — reduced — guardband, as in [4]).
    """
    netlist, program = optimized(source, library, effort_rounds)
    if target_ps is None:
        target_ps = critical_path(program, propagate_full(program))
    area_budget = None
    if area_budget_ratio is not None:
        area_budget = area_budget_ratio * netlist.area(library)
    sizing, __, aged = upsize_fast(netlist, library, target_ps, program,
                                   scenario=scenario, bti=bti,
                                   degradation=degradation,
                                   max_area_um2=area_budget)
    return AgingAwareResult(
        netlist=netlist,
        fresh_delay_ps=critical_path(program, propagate_full(program)),
        aged_delay_ps=aged, target_ps=target_ps, sizing=sizing)
