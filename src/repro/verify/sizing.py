"""Dict-based timing-driven sizing: the oracle of the production sizer.

:func:`upsize_critical_paths` is the plain sizing loop — one freshly
compiled STA per round, scalar slack dictionaries, cells mutated round
by round. :func:`repro.synth.fastsize.upsize_fast` must match it bit for
bit. :func:`reference_synthesize` is scratch synthesis by the dict
optimization passes sized by it, the reference
:func:`repro.verify.invariants.check_synth_sweep` uses.
"""

from ..aging.bti import DEFAULT_BTI
from ..obs import metrics as obs_metrics
from ..sta.engine import analyze_batch, compile_timing
from ..synth.sizing import SizingReport, gate_slacks
from ..synth.synthesize import EFFORTS, SynthesisResult
from .optimize import reference_optimize


def _analyze(netlist, library, scenario, bti, degradation):
    """One-corner STA through a freshly compiled timing program."""
    return analyze_batch(netlist, library, [scenario], bti=bti,
                         degradation=degradation,
                         program=compile_timing(netlist, library,
                                                memo=False)).report(0)


def upsize_critical_paths(netlist, library, target_ps, scenario=None,
                          bti=DEFAULT_BTI, degradation=None, max_rounds=40,
                          max_area_um2=None, slack_margin=0.05,
                          stall_rounds=3):
    """Upsize near-critical cells until the critical path meets *target_ps*.

    Parameters
    ----------
    target_ps:
        Timing goal; pass 0 to size for maximum performance (stops when
        no upsizable near-critical gate remains or progress stalls).
    scenario:
        When given, slack is measured under *aged* delays (the baseline
        [4] hardening mode).
    max_area_um2:
        Optional area budget; the pass stops (met=False) once exceeded.
    slack_margin:
        Gates with slack below ``slack_margin * critical_path`` are
        considered near-critical and upsized together each round.
    stall_rounds:
        Abort after this many consecutive rounds without critical-path
        improvement.
    """
    gates_by_uid = {g.uid: g for g in netlist.gates}
    upsized = 0
    best_cp = float("inf")
    stalled = 0
    rounds = 0
    report = _analyze(netlist, library, scenario, bti, degradation)
    while rounds < max_rounds:
        cp = report.critical_path_ps
        if cp <= target_ps:
            return _record(SizingReport(met=True, target_ps=target_ps,
                                        achieved_ps=cp, upsized=upsized,
                                        rounds=rounds))
        if max_area_um2 is not None and netlist.area(library) >= max_area_um2:
            return _record(SizingReport(met=False, target_ps=target_ps,
                                        achieved_ps=cp, upsized=upsized,
                                        rounds=rounds))
        if cp < best_cp - 1e-9:
            best_cp = cp
            stalled = 0
        else:
            stalled += 1
            if stalled >= stall_rounds:
                break
        slacks = gate_slacks(netlist, report, cp)
        margin = slack_margin * cp
        changed = 0
        # Candidates are visited in sorted-uid order so the upsize
        # sequence is a pure function of netlist *content*, independent
        # of gate-list or dict-iteration order (required for bit-exact
        # sweep-vs-scratch equality in repro.synth.sweep).
        for uid in sorted(slacks):
            slack = slacks[uid]
            if slack > margin:
                continue
            gate = gates_by_uid[uid]
            stronger = library.next_drive_up(gate.cell)
            if stronger is not None:
                gate.cell = stronger
                changed += 1
        if changed == 0:
            break
        upsized += changed
        rounds += 1
        netlist._topo_cache = None  # cell changes keep the topology
        report = _analyze(netlist, library, scenario, bti, degradation)
    return _record(SizingReport(met=report.critical_path_ps <= target_ps,
                                target_ps=target_ps,
                                achieved_ps=report.critical_path_ps,
                                upsized=upsized, rounds=rounds))


def _record(report):
    """Count sizing work in the ambient metrics registry."""
    obs_metrics.inc(obs_metrics.SYNTH_SIZING_ROUNDS, report.rounds)
    obs_metrics.inc(obs_metrics.SYNTH_SIZING_UPSIZES, report.upsized)
    return report


def reference_synthesize(component, library, effort="ultra", target_ps=None):
    """Scratch synthesis by the dict passes
    (:func:`repro.verify.optimize.reference_optimize`), sized by
    :func:`upsize_critical_paths` and timed by a fresh compile: no
    number comes from the array optimizer or :mod:`repro.synth.fastsize`.
    """
    rounds, do_sizing = EFFORTS[effort]
    netlist = component.build().copy()
    source_gates = netlist.num_gates
    reference_optimize(netlist, library, max_rounds=rounds)
    if do_sizing:
        upsize_critical_paths(netlist, library,
                              0.0 if target_ps is None else target_ps)
    return SynthesisResult(
        netlist=netlist,
        delay_ps=_analyze(netlist, library, None, DEFAULT_BTI,
                          None).critical_path_ps,
        area_um2=netlist.area(library), leakage_nw=netlist.leakage(library),
        source_gates=source_gates, final_gates=netlist.num_gates)
