"""Adaptive precision scheduling over a design's lifetime.

The paper concludes: "By applying approximations adaptively we can
envision future systems that gradually degrade in quality as they age
over time." This module turns that vision into an API: given a
microarchitecture and a grid of lifetime checkpoints, plan the precision
each block must adopt *at that age* to stay timing-clean at the fresh
clock, producing a monotone schedule a runtime (or a maintenance
firmware update) could follow.
"""

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..aging.bti import DEFAULT_BTI
from ..aging.scenario import AgingScenario, worst_case
from .library import AgingApproximationLibrary
from .microarch import apply_aging_approximations


@dataclass
class PrecisionSchedule:
    """A lifetime plan: which precision each block runs at, per age.

    Attributes
    ----------
    design_name:
        The scheduled microarchitecture.
    constraint_ps:
        The (never-relaxed) fresh clock every checkpoint honours.
    checkpoints:
        Sorted ``(years, {block: precision})`` entries. The entry at
        year Y is valid from Y until the next checkpoint.
    """

    design_name: str
    constraint_ps: float
    checkpoints: List[Tuple[float, Dict[str, int]]]

    def precisions_at(self, years):
        """Precision map in effect at age *years*.

        Before the first checkpoint every block is at full precision as
        characterized at year 0 (the first checkpoint's map applies from
        its own age onward).
        """
        ages = [age for age, __ in self.checkpoints]
        idx = bisect.bisect_right(ages, years) - 1
        if idx < 0:
            raise ValueError(
                "no checkpoint covers age %r (first is %r)"
                % (years, ages[0] if ages else None))
        return self.checkpoints[idx][1]

    def adaptation_ages(self):
        """Ages at which at least one block changes precision."""
        ages = []
        previous = None
        for age, precisions in self.checkpoints:
            if precisions != previous:
                ages.append(age)
            previous = precisions
        return ages

    def total_bits_dropped(self, years):
        """Sum of truncated bits across blocks at age *years*."""
        first = self.checkpoints[0][1]
        now = self.precisions_at(years)
        return sum(first[name] - now[name] for name in now)


def plan_graceful_degradation(micro, library, years_grid,
                              approx_library=None, effort="ultra",
                              bti=DEFAULT_BTI, degradation=None,
                              scenario_factory=worst_case):
    """Build a :class:`PrecisionSchedule` for *micro*.

    Parameters
    ----------
    micro:
        The microarchitecture to protect over its lifetime.
    years_grid:
        Increasing lifetime checkpoints (years). Year 0 (full precision)
        is added implicitly.
    scenario_factory:
        Maps a lifetime to an :class:`~repro.aging.scenario.
        AgingScenario`; defaults to worst-case stress (the guaranteed
        schedule). Pass :func:`~repro.aging.scenario.balance_case` for a
        typical-stress plan.

    Notes
    -----
    Characterizations are shared across checkpoints through the supplied
    (or an internal) :class:`~repro.core.library.
    AgingApproximationLibrary`, so the sweep costs one synthesis per
    precision, not per (precision x lifetime). An entry the flow's
    search creates reaches only as deep as the oldest checkpoint needs.
    """
    years_grid = sorted(float(y) for y in years_grid)
    if not years_grid or years_grid[0] <= 0:
        raise ValueError("years_grid must contain positive lifetimes")
    if approx_library is None:
        approx_library = AgingApproximationLibrary()

    constraint = micro.timing_constraint_ps(library, effort)
    checkpoints = [(0.0, {blk.name: blk.component.precision
                          for blk in micro.blocks})]
    previous = checkpoints[0][1]
    for years in years_grid:
        scenario = scenario_factory(years)
        outcome = apply_aging_approximations(
            micro, library, scenario, approx_library, effort=effort,
            bti=bti, degradation=degradation)
        precisions = outcome.precision_map
        # Enforce monotonicity: precision can only shrink as the part
        # ages (a deployed system never regains precision).
        precisions = {name: min(previous[name], precisions[name])
                      for name in precisions}
        checkpoints.append((years, precisions))
        previous = precisions
    return PrecisionSchedule(design_name=micro.name,
                             constraint_ps=constraint,
                             checkpoints=checkpoints)
