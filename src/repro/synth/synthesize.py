"""Top-level synthesis entry point (the Design Compiler stand-in).

``synthesize`` takes an RTL component (or a raw netlist) and produces an
optimized gate-level netlist. The paper synthesizes every circuit "under
the highest optimization effort ('ultra compile')"; the *effort* knob
here controls how many optimization rounds run and whether a timing-
driven sizing pass polishes the critical path.
"""

from dataclasses import dataclass

from ..obs import logs, metrics as obs_metrics, trace as obs_trace
from ..sta.engine import seed_timing
from .fastsize import (fresh_critical_path, sizer_for, timing_program,
                       upsize_fast)
from .optimize import lower, run

_log = logs.get_logger("synth")

#: effort name -> (optimization rounds, timing-driven sizing enabled)
EFFORTS = {
    "low": (1, False),
    "medium": (4, False),
    "high": (8, False),
    "ultra": (8, True),
}


@dataclass
class SynthesisResult:
    """Synthesized netlist plus headline metrics.

    Attributes
    ----------
    netlist:
        The optimized netlist.
    delay_ps:
        Fresh critical-path delay.
    area_um2 / leakage_nw:
        Totals under the synthesis library.
    source_gates / final_gates:
        Gate counts before/after optimization.
    """

    netlist: object
    delay_ps: float
    area_um2: float
    leakage_nw: float
    source_gates: int
    final_gates: int


def synthesize(source, library, effort="ultra", target_ps=None):
    """Synthesize *source* and return a :class:`SynthesisResult`.

    Parameters
    ----------
    source:
        An :class:`~repro.rtl.component.RTLComponent` (its ``build()``
        netlist is used) or a :class:`~repro.netlist.netlist.Netlist`
        (read, not mutated).
    library:
        Target :class:`~repro.cells.library.CellLibrary`.
    effort:
        One of ``"low" | "medium" | "high" | "ultra"``.
    target_ps:
        Optional timing target for the sizing pass at ``"ultra"``
        effort; by default it sizes for maximum performance.

    The result's netlist is read-only (:meth:`~repro.netlist.netlist.
    Netlist.freeze`) and arrives with its timing program seeded.
    """
    if effort not in EFFORTS:
        raise ValueError("unknown effort %r (have %s)"
                         % (effort, sorted(EFFORTS)))
    netlist = source.build() if hasattr(source, "_build_core") else source
    source_gates = netlist.num_gates
    with obs_trace.span("synth.synthesize", design=netlist.name,
                        effort=effort, source_gates=source_gates) as s:
        opt = run(lower(netlist, library), EFFORTS[effort][0])
        result = finish(opt, library, effort, target_ps)
        if s is not None:
            s.attrs["final_gates"] = result.final_gates
    _log.debug("synthesized %s: %d -> %d gates, %.1f ps, %.1f um^2 "
               "(effort=%s)", netlist.name, source_gates,
               result.final_gates, result.delay_ps, result.area_um2,
               effort)
    return result


def finish(opt, library, effort, target_ps, name=None, program=None):
    """Size an optimizer result (at "ultra", on its pre-sizing sizer
    *program*, built if omitted), wrap it as a read-only netlist named
    *name* (default: the source's) that builds its gates on first read,
    and seed its timing program, lowered from the sizer, into
    :func:`repro.sta.engine.compile_timing`'s memo."""
    if program is None:
        program = sizer_for(opt, library)
    if EFFORTS[effort][1]:
        goal = 0.0 if target_ps is None else target_ps
        __, __, delay = upsize_fast(None, library, goal, program)
    else:
        delay = fresh_critical_path(program)
    netlist = opt.netlist(program.cell.copy(), name=name,
                          token=program.token())
    area, leakage = seal(netlist, program, library).cell_totals()
    result = SynthesisResult(
        netlist=netlist, delay_ps=delay, area_um2=area, leakage_nw=leakage,
        source_gates=opt.low.n, final_gates=len(opt.rows))
    obs_metrics.inc(obs_metrics.SYNTH_RUNS)
    obs_metrics.observe(obs_metrics.SYNTH_DELAY_PS, delay)
    obs_metrics.observe(obs_metrics.SYNTH_AREA_UM2, result.area_um2)
    return result


def seal(netlist, program, library):
    """Seed the timing program of read-only *netlist*, timed by sizer
    *program*; returns that program."""
    program.netlist = netlist
    timing = timing_program(program)
    seed_timing(netlist, library, timing)
    return timing


def synthesize_netlist(source, library, effort="ultra", target_ps=None):
    """Like :func:`synthesize` but returns only the netlist."""
    return synthesize(source, library, effort=effort,
                      target_ps=target_ps).netlist
