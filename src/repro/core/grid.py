"""The timing grid: the deterministic half of the statistical arms.

Fault-injection campaigns, Monte Carlo analyses and the truncation
screen share one piece of work: synthesize the component, lower its
timing program, analyze every corner in one batched STA pass, and
answer the paper's Eq. 2 (the deepest precision whose aged critical
path meets a clock) by replaying, per precision, the cone of the gates
its truncation drops. A
:class:`TimingGrid` does it once; :func:`timing_grid` shares grids per
process, keyed by content, so runs that differ only in seed, vectors,
samples, sweep depth or clocks reuse one grid.
"""

from collections import OrderedDict, namedtuple

from ..aging.bti import DEFAULT_BTI
from ..sta.engine import (_critical_paths, analyze_batch, compile_timing,
                          cone_plan, corner_label, delta_plan, replay_cone,
                          truncated_input_nets)
from . import cache as cache_mod
from .parallel import map_tasks, resolve_jobs
from .specs import corner_grid, parse_component, parse_scenario

#: Grids kept per process; the least recently used is evicted first.
GRID_MEMO_LIMIT = 4

_GRID_MEMO = OrderedDict()


class GridPoint(namedtuple("GridPoint",
                           "label corner years clock_scale clock_ps")):
    """One ``(scenario, clock)`` point of a grid: the corner's label and
    index, its lifetime, and the clock as a scale of the fresh clock and
    in picoseconds."""

    __slots__ = ()

    def fields(self):
        """The leading JSON fields of every row at this point."""
        return {"scenario": self.label, "years": self.years,
                "clock_scale": self.clock_scale, "clock_ps": self.clock_ps}


class TimingGrid:
    """Synthesis, timing program and batched corner STA of one component,
    plus per-precision truncation timing computed on first use. Corner 0
    is fresh and defines the guardband-free clock. Shared: read-only.
    """

    def __init__(self, component, library, corners, labels, effort="high",
                 bti=DEFAULT_BTI, degradation=None):
        self.component = component
        self.library = library
        self.corners = tuple(corners)
        self.labels = tuple(labels)
        self.netlist = cache_mod.synthesize_netlist_memoized(
            component, library, effort=effort)
        self.program = compile_timing(self.netlist, library)
        self.batch = analyze_batch(self.netlist, library, self.corners,
                                   bti=bti, degradation=degradation,
                                   program=self.program)
        self.fresh_clock_ps = float(self.batch.critical_path_ps[0])
        self._plans = {}
        self._cps = {}

    def plan(self, precision):
        """Cone plan of the component truncated to *precision* (``None``
        at full precision, where no input is tied)."""
        if precision not in self._plans:
            tied = truncated_input_nets(self.component, self.netlist,
                                        precision)
            self._plans[precision] = \
                cone_plan(self.program, tied) if tied else None
        return self._plans[precision]

    def critical_paths(self, precision):
        """``(C,)`` aged critical paths of every corner at *precision*."""
        cps = self._cps.get(precision)
        if cps is None:
            plan = self.plan(precision)
            if plan is None:
                cps = self.batch.critical_path_ps.copy()
            else:
                arr = self.batch.arrivals.copy()
                replay_cone(delta_plan(self.program, None, plan), arr,
                            self.batch.delays)
                cps = _critical_paths(self.program, arr)
            self._cps[precision] = cps
        return cps

    def alive(self, precision):
        """Gates that survive truncation to *precision*."""
        plan = self.plan(precision)
        dropped = 0 if plan is None else int(plan.dropped.sum())
        return self.program.n_gates - dropped

    def deepest_precision(self, corner, clock_ps, precisions):
        """Eq. 2: the first of the descending *precisions* whose aged
        critical path at *corner* meets *clock_ps*, or ``None``."""
        return next((int(p) for p in precisions
                     if self.critical_paths(p)[corner] <= clock_ps), None)

    def points(self, scenarios, clock_scales):
        """The :class:`GridPoint` of every textual scenario x clock
        scale, scenario major."""
        for text in scenarios:
            label = corner_label(parse_scenario(text))
            corner = self.labels.index(label)
            years = float(self.corners[corner].years)
            for scale in clock_scales:
                scale = float(scale)
                yield GridPoint(label, corner, years, scale,
                                self.fresh_clock_ps * scale)


def timing_grid(component, width=None, effort="high", scenarios=(),
                library=None):
    """The process's shared :class:`TimingGrid` of a textual spec.

    *component* and *scenarios* use the :mod:`repro.core.specs`
    spellings; ``library=None`` means the default library. Grids are
    keyed by content (component fingerprint, effort, corner scenario
    fingerprints, library fingerprint), never by ``id()``, and the
    :data:`GRID_MEMO_LIMIT` most recently used are kept.
    """
    from ..cells.library import default_library

    component = parse_component(component, width=width)
    library = library if library is not None else default_library()
    corners, labels = corner_grid(scenarios)
    key = (cache_mod.component_fingerprint(component), effort,
           tuple(cache_mod.scenario_fingerprint(c) for c in corners),
           cache_mod.library_fingerprint(library))
    grid = _GRID_MEMO.get(key)
    if grid is None:
        grid = _GRID_MEMO[key] = TimingGrid(component, library, corners,
                                            labels, effort=effort)
        while len(_GRID_MEMO) > GRID_MEMO_LIMIT:
            _GRID_MEMO.popitem(last=False)
    else:
        _GRID_MEMO.move_to_end(key)
    return grid


def map_chunks(worker, tasks, jobs=None, pool=None):
    """:func:`repro.core.parallel.map_tasks` over one contiguous chunk
    of *tasks* per worker, so a worker builds a run's per-seed inputs
    once. *worker* takes ``{"tasks": [...]}`` and returns one result
    per task; results come back flattened, in task order."""
    tasks = list(tasks)
    workers = pool.jobs if pool is not None else resolve_jobs(jobs)
    n = min(workers, len(tasks))
    bounds = [len(tasks) * i // n for i in range(n + 1)]
    chunks = [{"tasks": tasks[lo:hi]}
              for lo, hi in zip(bounds, bounds[1:])]
    return [result for results in map_tasks(worker, chunks, jobs=jobs,
                                             pool=pool)
            for result in results]


def stat_arms():
    """The statistical arms by kind: ``{kind: (spec class, runner,
    response field)}``, shared by the CLI and the server."""
    from ..inject.campaign import CampaignSpec, run_campaign
    from ..mc.yield_curves import MCSpec, run_mc

    return {"inject": (CampaignSpec, run_campaign, "campaign"),
            "mc": (MCSpec, run_mc, "mc")}
