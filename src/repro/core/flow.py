"""End-to-end convenience flows.

Glues the pieces together for the paper's evaluation:

* :func:`remove_guardband` — take a microarchitecture, convert its aging
  guardband into precision reductions, and report the resulting delays
  (the Fig. 8(a) comparison).
* :func:`compare_with_baseline` — efficiency comparison of the
  guardband-free approximated design against the aging-aware-synthesis
  baseline [4] (the Fig. 8(c) savings).
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..aging.bti import DEFAULT_BTI
from ..obs import logs, trace as obs_trace
from ..power.power import PowerReport, dynamic_power_uw
from ..sim.activity import operand_stream_bits, simulate_activity
from ..sta.engine import analyze_batch, compile_timing
from ..synth.aging_aware import aging_aware_synthesize
from .library import AgingApproximationLibrary
from .microarch import ApproximationOutcome, apply_aging_approximations

_log = logs.get_logger("core.flow")


@dataclass
class GuardbandRemovalReport:
    """Everything :func:`remove_guardband` learned.

    Attributes
    ----------
    outcome:
        The :class:`~repro.core.microarch.ApproximationOutcome` (chosen
        precisions, validation status).
    constraint_ps:
        The fresh-design timing constraint (the clock both designs keep).
    original_delays_ps / approximated_delays_ps:
        Design-level delay (max over blocks) per scenario label, for the
        aging-unaware original and the approximated design — the two
        Fig. 8(a) bar groups.
    """

    outcome: ApproximationOutcome
    constraint_ps: float
    original_delays_ps: Dict[str, float]
    approximated_delays_ps: Dict[str, float]

    @property
    def meets_constraint(self):
        """True when the approximated design never exceeds the fresh clock."""
        return all(d <= self.constraint_ps * (1 + 1e-9)
                   for d in self.approximated_delays_ps.values())


def design_delay_ps(micro, library, scenario=None, effort="ultra",
                    bti=DEFAULT_BTI, degradation=None):
    """Design-level delay: the slowest block under *scenario*."""
    return max(analyze_batch(blk.synthesized(library, effort), library,
                             [scenario], bti=bti,
                             degradation=degradation).critical_paths_ps[0]
               for blk in micro.blocks)


def design_delays_ps(micro, library, scenarios, effort="ultra",
                     bti=DEFAULT_BTI, degradation=None):
    """Design-level delay per corner, batched.

    Analyzes every block once under *all* corners through one compiled
    timing program per block (:func:`repro.sta.engine.analyze_batch`)
    instead of one scalar STA per ``(block, scenario)`` pair. ``None``
    entries denote the fresh corner. Returns a map from scenario label
    to the max-over-blocks delay, bit-identical to calling
    :func:`design_delay_ps` per scenario.
    """
    corners, labels, seen = [], [], set()
    for scenario in scenarios:
        label = scenario.label if scenario is not None else "fresh"
        if label in seen:
            continue
        seen.add(label)
        corners.append(scenario)
        labels.append(label)
    delays = dict.fromkeys(labels, 0.0)
    for blk in micro.blocks:
        batch = analyze_batch(blk.synthesized(library, effort), library,
                              corners, bti=bti, degradation=degradation)
        for label, cp in zip(labels, batch.critical_paths_ps):
            if cp > delays[label]:
                delays[label] = cp
    return delays


def remove_guardband(micro, library, design_scenario, report_scenarios=(),
                     approx_library=None, effort="ultra", bti=DEFAULT_BTI,
                     degradation=None, quality_check=None, jobs=None):
    """Convert *micro*'s aging guardband into approximations and report.

    Parameters
    ----------
    micro:
        The microarchitecture to protect.
    design_scenario:
        The end-of-life scenario the approximations must compensate
        (the paper designs for 10 years of worst-case aging).
    report_scenarios:
        Additional scenarios to tabulate delays for (Fig. 8(a) shows
        Initial / 1y WC / 10y WC / 10y AC).
    approx_library:
        Pre-built :class:`~repro.core.library.
        AgingApproximationLibrary`; a fresh one is created when omitted.
        Missing delays are characterized on demand by the top-down Eq. 2
        search of :func:`~repro.core.microarch.apply_aging_approximations`:
        a supplied entry is searched over its own precisions and gains
        none; an entry the search creates holds exactly
        ``width .. chosen``.
    jobs:
        Worker processes for on-demand characterizations; the search
        characterizes this many precisions per window (None defers to
        ``REPRO_JOBS``; 1 is the deterministic serial default).

    Returns
    -------
    GuardbandRemovalReport
    """
    if approx_library is None:
        approx_library = AgingApproximationLibrary()
    _log.info("removing guardband of %s (%d blocks) for %s",
              micro.name, len(micro.blocks), design_scenario.label)
    with obs_trace.span("flow.remove_guardband", design=micro.name,
                        blocks=len(micro.blocks),
                        scenario=design_scenario.label):
        with obs_trace.span("flow.approximate"):
            outcome = apply_aging_approximations(
                micro, library, design_scenario, approx_library,
                effort=effort, bti=bti, degradation=degradation,
                quality_check=quality_check, jobs=jobs)

        scenarios = [None, design_scenario] + list(report_scenarios)
        with obs_trace.span("flow.report_delays",
                            scenarios=len(scenarios)):
            original = design_delays_ps(
                micro, library, scenarios, effort=effort, bti=bti,
                degradation=degradation)
            approximated = design_delays_ps(
                outcome.design, library, scenarios, effort=effort,
                bti=bti, degradation=degradation)
    _log.info("guardband removal %s: residual %.2f ps after %d "
              "iteration(s)",
              "validated" if outcome.validated else "NOT validated",
              outcome.residual_guardband_ps, outcome.iterations)
    return GuardbandRemovalReport(
        outcome=outcome, constraint_ps=outcome.constraint_ps,
        original_delays_ps=original, approximated_delays_ps=approximated)


# ---------------------------------------------------------------------------
# Efficiency comparison against the aging-aware synthesis baseline [4]
# ---------------------------------------------------------------------------

def microarchitecture_power(blocks_netlists, library, clock_ps,
                            activity_vectors):
    """Aggregate a :class:`~repro.power.power.PowerReport` over blocks.

    Parameters
    ----------
    blocks_netlists:
        List of ``(block, netlist)`` pairs; each block contributes
        ``block.instances`` copies.
    clock_ps:
        Clock period for dynamic power.
    activity_vectors:
        Map block name -> PI bit matrix used to extract toggle rates.
    """
    area = leakage = dynamic = 0.0
    for block, netlist in blocks_netlists:
        report = simulate_activity(netlist, library,
                                   activity_vectors[block.name])
        dyn = dynamic_power_uw(netlist, library, report.toggle_rate,
                               clock_ps)
        # Per-row cells of the (memo-served) timing program, summed in
        # gate order: the floats of Netlist.area / Netlist.leakage.
        block_area, block_leakage = compile_timing(
            netlist, library).cell_totals()
        area += block.instances * block_area
        leakage += block.instances * block_leakage
        dynamic += block.instances * dyn
    return PowerReport(area_um2=area, leakage_nw=leakage,
                       dynamic_uw=dynamic, clock_ps=clock_ps)


@dataclass
class BaselineComparison:
    """Fig. 8(c): our approximated design vs aging-aware synthesis [4].

    ``ratios`` holds ours/baseline for frequency, leakage, dynamic,
    energy, area (frequency > 1 and the rest < 1 reproduce the paper's
    savings).
    """

    ours: PowerReport
    baseline: PowerReport
    ratios: Dict[str, float]
    baseline_guardband_ps: float


def compare_with_baseline(micro, outcome, library, scenario, effort="ultra",
                          bti=DEFAULT_BTI, degradation=None,
                          activity_count=512, rng_seed=2017,
                          area_budget_ratio=1.15):
    """Build the [4]-style hardened baseline and compare efficiency.

    The baseline hardens each block by gate sizing against aged timing
    (bounded area budget) and must still clock at its aged critical path
    (its residual guardband). Our design clocks at the original fresh
    constraint with precision-reduced blocks.

    Both sides' netlists are memo-served once synthesized: ours by the
    sweep derivations, the hardened blocks by their sweep base
    (:func:`~repro.synth.aging_aware.aging_aware_synthesize`). A repeat
    comparison, for another *rng_seed*, synthesizes nothing and only
    re-simulates the activity.
    """
    from ..power.power import savings

    constraint = outcome.constraint_ps
    rng = np.random.default_rng(rng_seed)

    with obs_trace.span("flow.compare_with_baseline", design=micro.name,
                        scenario=scenario.label):
        activity = {}
        for blk in micro.blocks:
            operands = blk.component.random_operands(activity_count,
                                                     rng=rng)
            activity[blk.name] = operand_stream_bits(
                operands, blk.component.operand_widths)

        # Ours: the approximated blocks at the fresh clock.
        ours_pairs = [(blk, blk.synthesized(library, effort))
                      for blk in outcome.design.blocks]
        ours = microarchitecture_power(ours_pairs, library, constraint,
                                       activity)

        # Baseline: every original block hardened for the scenario;
        # clocked at its end-of-life critical path (the remaining
        # guardband).
        baseline_pairs = []
        baseline_aged = 0.0
        for blk in micro.blocks:
            hardened = aging_aware_synthesize(
                blk.component, library, scenario, target_ps=constraint,
                bti=bti, degradation=degradation,
                area_budget_ratio=area_budget_ratio)
            baseline_pairs.append((blk, hardened.netlist))
            baseline_aged = max(baseline_aged, hardened.aged_delay_ps)
        baseline_clock = max(constraint, baseline_aged)
        baseline = microarchitecture_power(baseline_pairs, library,
                                           baseline_clock, activity)

    return BaselineComparison(
        ours=ours, baseline=baseline, ratios=savings(ours, baseline),
        baseline_guardband_ps=baseline_clock - constraint)
