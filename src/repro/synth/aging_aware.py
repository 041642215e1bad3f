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
from .fastsize import fresh_critical_path, sizer_for, upsize_fast
from .optimize import lower, run
from .sizing import SizingReport
from .sweep import memoized_base
from .synthesize import seal


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

    When a memoized sweep base of the full-precision component ran the
    same *effort_rounds* (:func:`repro.synth.sweep.sweep_for`), the
    result is memoized on that base, keyed on the scenario, target,
    rounds, area budget, BTI model and degradation library, and evicted
    with it: a repeat call returns the same object, whose netlist is
    shared. Other sources (a raw netlist, or no such base) are optimized
    and hardened afresh. Either way the hardened netlist is read-only
    (:meth:`~repro.netlist.netlist.Netlist.freeze`) and arrives with its
    timing program seeded.
    """
    sweep = memoized_base(source, library, effort_rounds)
    if sweep is None:
        opt = run(lower(source.build() if hasattr(source, "_build_core")
                        else source, library), effort_rounds)
        netlist = opt.netlist()
        program = sizer_for(opt, library)
        program.netlist = netlist
        return _harden(netlist, program, library, scenario, target_ps, bti,
                       degradation, area_budget_ratio)
    from ..core.cache import (bti_fingerprint, degradation_fingerprint,
                              scenario_fingerprint)

    key = (None if scenario is None else scenario_fingerprint(scenario),
           repr(target_ps), effort_rounds, repr(area_budget_ratio),
           bti_fingerprint(bti), degradation_fingerprint(degradation))
    return sweep.hardened(key, lambda: _harden(
        *sweep.presized_copy(), library, scenario, target_ps, bti,
        degradation, area_budget_ratio))


def _harden(netlist, program, library, scenario, target_ps, bti,
            degradation, area_budget_ratio):
    """Size the optimized *netlist* (on its pre-sizing *program*, rows in
    gate order) against aged timing, then freeze it and seed its timing
    program."""
    if target_ps is None:
        target_ps = fresh_critical_path(program)
    area_budget = None
    if area_budget_ratio is not None:
        area_budget = area_budget_ratio * program.area()
    sizing, __, aged = upsize_fast(netlist, library, target_ps, program,
                                   scenario=scenario, bti=bti,
                                   degradation=degradation,
                                   max_area_um2=area_budget)
    netlist.freeze(program.token())
    seal(netlist, program, library)
    return AgingAwareResult(
        netlist=netlist,
        fresh_delay_ps=fresh_critical_path(program),
        aged_delay_ps=aged, target_ps=target_ps, sizing=sizing)
