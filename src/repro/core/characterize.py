"""Component characterization (Section IV, Fig. 3).

For one RTL component, sweep the precision, synthesize each variant, and
run aging-aware STA under every requested scenario. The result — a
:class:`ComponentCharacterization` — relates every precision to its fresh
and aged delays, from which the flow derives:

* the **required precision** ``K_j``: the largest precision whose aged
  delay still meets the fresh-design timing constraint (Eq. 2),
* **guardband narrowing**: how much of the aging guardband each
  truncated bit removes (the 31% / 29% / 80% numbers in the paper),
* area/leakage per precision (for the efficiency results).

Actual-case aging is supported via :class:`ActualCaseSpec`: the given
stimulus operands are gate-level simulated on *each* precision variant
(a one-time effort, as the paper stresses) to extract per-gate stress
annotations.

The sweep itself runs through the characterization engine: every
``(precision, scenarios)`` point is an independent task that consults
the content-addressed result cache (:mod:`repro.core.cache`), records
its stages as :mod:`repro.obs.trace` spans (``synthesize``,
``stress_extraction``, ``sta``), and can fan out over a process pool
(:mod:`repro.core.parallel`, ``jobs=1`` serial default).
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..aging.bti import DEFAULT_BTI
from ..aging.scenario import AgingScenario
from ..obs import logs, metrics as obs_metrics, trace as obs_trace
from ..sim.activity import extract_stress, operand_stream_bits
from ..sta.engine import analyze_batch, compile_timing
from ..synth.sweep import synthesize_variant
from . import cache as cache_mod
from .parallel import map_tasks, resolve_jobs

_log = logs.get_logger("core.characterize")


@dataclass(frozen=True)
class ActualCaseSpec:
    """Actual-case aging request for characterization.

    Attributes
    ----------
    years:
        Lifetime in years.
    label:
        Stimulus name; the resulting scenario label is
        ``"<years>y_<label>"`` (e.g. ``"10y_actual_nd"``).
    operands:
        Tuple of integer arrays, one stream per component operand, used
        to extract per-gate stress factors by gate-level simulation.
    """

    years: float
    label: str
    operands: Tuple

    @property
    def scenario_label(self):
        return "%gy_%s" % (self.years, self.label)


@dataclass
class ComponentCharacterization:
    """Pre-characterized aging/precision table of one component.

    The central artifact of the paper's Section IV: everything the
    microarchitecture-level flow needs to know about a component without
    ever simulating it again.
    """

    key: str
    family: str
    width: int
    precisions: List[int]
    scenario_labels: List[str]
    #: precision -> fresh critical-path delay (ps)
    fresh_ps: Dict[int, float]
    #: (precision, scenario label) -> aged critical-path delay (ps)
    aged_ps: Dict[Tuple[int, str], float]
    #: precision -> area (um^2)
    area_um2: Dict[int, float]
    #: precision -> leakage (nW)
    leakage_nw: Dict[int, float]
    #: precision -> gate count
    gates: Dict[int, int]
    #: precision -> logic depth (levels)
    depth: Dict[int, int]

    # -- queries ---------------------------------------------------------
    def fresh_delay_ps(self, precision=None):
        """``t_Cj(noAging, P)``; full precision when omitted."""
        if precision is None:
            precision = self.width
        return self.fresh_ps[precision]

    def aged_delay_ps(self, precision, scenario_label):
        """``t_Cj(Aging, P)`` under a characterized scenario."""
        try:
            return self.aged_ps[(precision, scenario_label)]
        except KeyError:
            raise KeyError(
                "scenario %r / precision %r not characterized for %s"
                % (scenario_label, precision, self.key))

    def guardband_ps(self, scenario_label, precision=None):
        """Guardband still needed at *precision* against the full-precision
        fresh constraint: ``max(0, t(Aging, P) - t(noAging, N))``."""
        if precision is None:
            precision = self.width
        return max(0.0, self.aged_delay_ps(precision, scenario_label)
                   - self.fresh_delay_ps())

    def guardband_narrowing(self, scenario_label, precision):
        """Fraction of the full-precision guardband removed at *precision*.

        The paper's headline numbers: a 2-bit adder reduction narrows
        the guardband by 31%, 1 bit narrows the multiplier/MAC guardband
        by 29% / 80%.
        """
        full = self.guardband_ps(scenario_label, self.width)
        if full == 0:
            return 1.0
        return 1.0 - self.guardband_ps(scenario_label, precision) / full

    def required_precision(self, scenario_label, target_ps=None):
        """Largest precision whose aged delay meets *target_ps* (Eq. 2).

        Defaults to the full-precision fresh delay — i.e. "remove the
        guardband entirely". Returns None when no characterized
        precision satisfies the target. Reads top down and stops at the
        answer, as the flow's search does, so an entry that search
        filled only down to its answer answers too.
        """
        if target_ps is None:
            target_ps = self.fresh_delay_ps()
        for precision in sorted(self.precisions, reverse=True):
            if self.aged_delay_ps(precision, scenario_label) <= target_ps:
                return precision
        return None

    def merge(self, other):
        """Fold another characterization of the *same component* in.

        Used when new scenarios (or precisions) are characterized later:
        tables are unioned, with *other* winning on conflicts. Raises
        ``ValueError`` for a different component key.
        """
        if other.key != self.key:
            raise ValueError("cannot merge %s into %s"
                             % (other.key, self.key))
        self.precisions = sorted(set(self.precisions)
                                 | set(other.precisions), reverse=True)
        for label in other.scenario_labels:
            if label not in self.scenario_labels:
                self.scenario_labels.append(label)
        self.fresh_ps.update(other.fresh_ps)
        self.aged_ps.update(other.aged_ps)
        self.area_um2.update(other.area_um2)
        self.leakage_nw.update(other.leakage_nw)
        self.gates.update(other.gates)
        self.depth.update(other.depth)
        return self

    def discard(self, precisions=(), points=()):
        """Drop whole *precisions* and single ``(precision, label)``
        aged *points*; labels stay (the inverse of :meth:`merge`)."""
        drop = set(precisions)
        self.precisions = [p for p in self.precisions if p not in drop]
        for table in (self.fresh_ps, self.area_um2, self.leakage_nw,
                      self.gates, self.depth):
            for precision in drop:
                table.pop(precision, None)
        points = set(points)
        self.aged_ps = {key: delay for key, delay in self.aged_ps.items()
                        if key[0] not in drop and key not in points}
        return self

    def has_scenario(self, scenario_label):
        """True when every precision has an entry for *scenario_label*."""
        return all((p, scenario_label) in self.aged_ps
                   for p in self.precisions)

    def to_rows(self):
        """Flat table (list of dicts) for printing/serialization; a delay
        a scenario was not characterized at (see :meth:`merge`) is None."""
        rows = []
        for p in self.precisions:
            row = {
                "precision": p,
                "fresh_ps": self.fresh_ps[p],
                "area_um2": self.area_um2[p],
                "leakage_nw": self.leakage_nw[p],
                "gates": self.gates[p],
                "depth": self.depth[p],
            }
            for label in self.scenario_labels:
                row[label + "_ps"] = self.aged_ps.get((p, label))
            rows.append(row)
        return rows

    def to_dict(self):
        """JSON-serializable form (see :meth:`from_dict`)."""
        return {
            "key": self.key,
            "family": self.family,
            "width": self.width,
            "precisions": list(self.precisions),
            "scenario_labels": list(self.scenario_labels),
            "fresh_ps": {str(k): v for k, v in self.fresh_ps.items()},
            "aged_ps": {"%d|%s" % k: v for k, v in self.aged_ps.items()},
            "area_um2": {str(k): v for k, v in self.area_um2.items()},
            "leakage_nw": {str(k): v for k, v in self.leakage_nw.items()},
            "gates": {str(k): v for k, v in self.gates.items()},
            "depth": {str(k): v for k, v in self.depth.items()},
        }

    @classmethod
    def from_dict(cls, data):
        aged = {}
        for key, value in data["aged_ps"].items():
            precision, label = key.split("|", 1)
            aged[(int(precision), label)] = value
        return cls(
            key=data["key"], family=data["family"], width=data["width"],
            precisions=list(data["precisions"]),
            scenario_labels=list(data["scenario_labels"]),
            fresh_ps={int(k): v for k, v in data["fresh_ps"].items()},
            aged_ps=aged,
            area_um2={int(k): v for k, v in data["area_um2"].items()},
            leakage_nw={int(k): v for k, v in data["leakage_nw"].items()},
            gates={int(k): v for k, v in data["gates"].items()},
            depth={int(k): v for k, v in data["depth"].items()},
        )


def component_key(component):
    """Library key of a component: family + base width."""
    return "%s_w%d" % (component.family, component.width)


def precision_range(width, bits=12):
    """Precisions ``width`` down to ``width - bits`` (at least 1),
    descending: the default sweep of :func:`characterize`,
    :func:`truncation_screen` and the flow's Eq. 2 search."""
    return list(range(width, max(width - bits, 1) - 1, -1))


def _characterize_point(task):
    """Characterize one ``(component, precision)`` point.

    Module-level so the process-pool path can pickle it; ``jobs=1`` runs
    it inline. Consults the on-disk cache when a root is given and
    reports its cache accounting back to the parent, which merges it
    into the caller's :class:`~repro.core.cache.CacheStats` (spans and
    metrics travel through :func:`repro.core.parallel.traced`).
    """
    with obs_trace.span(
            "characterize.point",
            component=task["component"].family,
            width=task["component"].width,
            precision=task["precision"],
            scenarios=[label for __s, label, __fp
                       in task["scenarios"]]) as point_span:
        return _characterize_point_inner(task, point_span)


def _characterize_point_inner(task, point_span):
    component = task["component"]
    precision = task["precision"]
    library = task["library"]
    effort = task["effort"]
    bti = task["bti"]
    degradation = task["degradation"]
    scenarios = task["scenarios"]        # [(spec, label, fingerprint)]
    key = task["key"]
    cache_root = task["cache_root"]

    attrs = point_span.attrs if point_span is not None else {}
    store = (cache_mod.CharacterizationCache(
        cache_root, shards=task.get("cache_shards", 0))
        if cache_root else None)
    entry = store.load(key) if store is not None else None
    if entry is not None \
            and all(fp in entry["aged"] for __s, __l, fp in scenarios):
        # Full hit: every requested scenario already characterized.
        attrs["cache"] = "hit"
        metrics = entry["metrics"]
        aged = [(label, entry["aged"][fp]["delay_ps"])
                for __spec, label, fp in scenarios]
        return {"precision": precision, "metrics": metrics, "aged": aged,
                "cache_stats": store.stats.as_dict()}

    if store is not None:
        if entry is not None:
            # Partial entry: the netlist must be rebuilt for the missing
            # scenarios, so reclassify load()'s optimistic hit.
            store.stats.hits -= 1
            store.stats.misses += 1
            obs_metrics.inc(obs_metrics.CACHE_HITS, -1)
            obs_metrics.inc(obs_metrics.CACHE_MISSES)
    attrs["cache"] = "miss" if store is not None else "off"

    variant = component.with_precision(precision)
    with obs_trace.span("synthesize"):
        # One base synthesis per worker process (memoized on the
        # full-precision content), every truncated point derived by
        # cone-restricted replay — bit-identical to from-scratch.
        result = synthesize_variant(component, precision, library,
                                    effort=effort)
    netlist = result.netlist
    # Synthesis seeded the memo with this netlist's timing program, so
    # its levels give the logic depth without another netlist walk.
    program = compile_timing(netlist, library)
    metrics = {
        "delay_ps": result.delay_ps,
        "area_um2": result.area_um2,
        "leakage_nw": result.leakage_nw,
        "gates": result.final_gates,
        "depth": program.depth,
    }
    aged = []
    new_aged = {}
    pending = []                         # (slot in aged, label, fp, corner)
    for spec, label, fp in scenarios:
        if entry is not None and fp in entry["aged"]:
            aged.append((label, entry["aged"][fp]["delay_ps"]))
            continue
        if isinstance(spec, ActualCaseSpec):
            with obs_trace.span("stress_extraction"):
                bits = operand_stream_bits(spec.operands,
                                           variant.operand_widths)
                annotation = extract_stress(netlist, library, bits,
                                            label=spec.label)
            scenario = AgingScenario(spec.years, annotation)
        else:
            scenario = spec
        aged.append(None)
        pending.append((len(aged) - 1, label, fp, scenario))
    if pending:
        # All corners of this grid point share one compiled timing
        # program (seeded by synthesis); the batched engine is
        # bit-identical to per-corner scalar analyze.
        with obs_trace.span("sta"):
            delays = analyze_batch(
                netlist, library, [corner for __, __, __, corner in pending],
                bti=bti, degradation=degradation,
                program=program).critical_paths_ps
        for (slot, label, fp, __), delay in zip(pending, delays):
            aged[slot] = (label, delay)
            new_aged[fp] = {"label": label, "delay_ps": delay}
    if store is not None:
        store.store(key, metrics, new_aged,
                    meta={"component": variant.name,
                          "precision": precision, "effort": effort})
    return {"precision": precision, "metrics": metrics, "aged": aged,
            "cache_stats": store.stats.as_dict()
            if store is not None else None}


def _scenario_label(spec):
    """Characterization-table label of a scenario or actual-case spec."""
    return (spec.scenario_label if isinstance(spec, ActualCaseSpec)
            else spec.label)


def scenario_specs(scenarios):
    """Fingerprint scenarios once: ``[(spec, label, fingerprint)]``.

    Shared input of every point task; hoisted out of the per-point loop
    because actual-case operand streams can be large to fingerprint.
    """
    return [(spec, _scenario_label(spec),
             cache_mod.scenario_fingerprint(spec))
            for spec in scenarios]


def make_point_task(component, precision, library, specs, effort="ultra",
                    bti=DEFAULT_BTI, degradation=None, cache_root=None,
                    cache_shards=0):
    """Build one picklable ``(component, precision)`` point task.

    *specs* is a :func:`scenario_specs` list. The task is the unit both
    :func:`characterize` and the serving layer (:mod:`repro.serve`)
    dispatch to :func:`_characterize_point` — building it here keeps the
    two entry points bit-identical by construction.
    """
    return {
        "component": component,
        "precision": precision,
        "library": library,
        "effort": effort,
        "bti": bti,
        "degradation": degradation,
        "scenarios": specs,
        "key": cache_mod.point_key(component, precision, effort, library,
                                   bti, degradation),
        "cache_root": cache_root,
        "cache_shards": cache_shards,
    }


def characterize(component, library, scenarios, precisions=None,
                 effort="ultra", bti=DEFAULT_BTI, degradation=None,
                 jobs=None, cache=cache_mod.AMBIENT, pool=None):
    """Characterize *component* across precisions and aging scenarios.

    Parameters
    ----------
    component:
        The full-precision component instance (its ``precision`` is the
        sweep's upper end).
    library:
        Cell library.
    scenarios:
        Iterable of :class:`~repro.aging.scenario.AgingScenario`
        (uniform stress) and/or :class:`ActualCaseSpec` (per-variant
        stress extraction from stimulus operands).
    precisions:
        Precisions to sweep; default :func:`precision_range`
        (``width .. width-12``, descending).
    effort:
        Synthesis effort for every variant.
    jobs:
        Worker processes for the sweep. None defers to ``REPRO_JOBS``
        (default 1, the deterministic serial path); 0 means one per
        CPU. The parallel result is identical to the serial one.
    cache:
        Result cache: the ambient cache by default (see
        :func:`repro.core.cache.set_cache` / ``REPRO_CACHE_DIR``), an
        explicit :class:`~repro.core.cache.CharacterizationCache` or
        directory path, or None to bypass caching.
    pool:
        Optional persistent :class:`~repro.core.parallel.WorkerPool`
        to fan out over (overrides *jobs*); repeated sweeps reuse its
        worker processes instead of spawning a pool per call.

    Returns
    -------
    ComponentCharacterization
    """
    width = component.width
    if precisions is None:
        precisions = precision_range(width)
    precisions = sorted(set(precisions), reverse=True)
    scenarios = list(scenarios)

    store = cache_mod.resolve_cache(cache)
    cache_root = store.root if store is not None else None
    cache_shards = store.shards if store is not None else 0
    specs = scenario_specs(scenarios)
    tasks = [make_point_task(component, precision, library, specs,
                             effort=effort, bti=bti,
                             degradation=degradation,
                             cache_root=cache_root,
                             cache_shards=cache_shards)
             for precision in precisions]

    jobs = pool.jobs if pool is not None else resolve_jobs(jobs)
    _log.info("characterizing %s: %d precision points x %d scenarios "
              "(effort=%s, jobs=%d, cache=%s)",
              component_key(component), len(tasks), len(scenarios),
              effort, jobs, "on" if store is not None else "off")

    fresh_ps, area, leakage, gates, depth = {}, {}, {}, {}, {}
    aged_ps = {}
    labels = []
    with obs_trace.span("characterize",
                        component=component_key(component), width=width,
                        points=len(tasks), scenarios=len(scenarios),
                        jobs=jobs):
        results = map_tasks(_characterize_point, tasks, jobs=jobs,
                            pool=pool)
        for point in results:
            precision = point["precision"]
            metrics = point["metrics"]
            fresh_ps[precision] = metrics["delay_ps"]
            area[precision] = metrics["area_um2"]
            leakage[precision] = metrics["leakage_nw"]
            gates[precision] = metrics["gates"]
            depth[precision] = metrics["depth"]
            for label, delay in point["aged"]:
                if label not in labels:
                    labels.append(label)
                aged_ps[(precision, label)] = delay
            if store is not None and point["cache_stats"] is not None:
                store.stats.merge(point["cache_stats"])

    return ComponentCharacterization(
        key=component_key(component), family=component.family, width=width,
        precisions=precisions, scenario_labels=labels, fresh_ps=fresh_ps,
        aged_ps=aged_ps, area_um2=area, leakage_nw=leakage, gates=gates,
        depth=depth)


# ---------------------------------------------------------------------------
# fast truncation screening (incremental cone re-analysis)
# ---------------------------------------------------------------------------

@dataclass
class TruncationScreen:
    """Precision/delay estimates from one netlist, no re-synthesis.

    Produced by :func:`truncation_screen` on a
    :class:`~repro.core.grid.TimingGrid`: the full-precision netlist is
    synthesized once, analyzed under all corners in one batched pass,
    and every lower precision is then re-analyzed incrementally by
    tying operand LSBs low and re-propagating only their fan-out cone.

    Delays are *exact* STA results of the tied netlist, but the netlist
    is the constant-swept full-precision one rather than the
    re-synthesized variant :func:`characterize` would build, so screen
    delays conservatively bound the characterization table (re-synthesis
    can only shrink the surviving logic further). At full precision the
    two agree exactly. Use the screen to rank precisions cheaply before
    paying for a full characterization.
    """

    key: str
    family: str
    width: int
    precisions: List[int]
    scenario_labels: List[str]
    #: (precision, scenario label) -> critical-path delay (ps)
    delays_ps: Dict[Tuple[int, str], float]
    #: precision -> fraction of gates re-propagated
    cone_fraction: Dict[int, float]
    #: precision -> gates removed by the constant sweep
    dropped_gates: Dict[int, int]

    def delay_ps(self, precision, scenario_label):
        try:
            return self.delays_ps[(precision, scenario_label)]
        except KeyError:
            raise KeyError("scenario %r / precision %r not screened for %s"
                           % (scenario_label, precision, self.key))

    def required_precision(self, scenario_label, target_ps=None):
        """Largest screened precision meeting *target_ps* (Eq. 2 analog).

        Defaults to the full-precision fresh delay. Because screen
        delays upper-bound characterized delays, the screen's required
        precision never exceeds the characterized one.
        """
        if target_ps is None:
            target_ps = self.delay_ps(self.width, "fresh")
        feasible = [p for p in self.precisions
                    if self.delay_ps(p, scenario_label) <= target_ps]
        return max(feasible) if feasible else None

    def to_rows(self):
        """Flat table (list of dicts) for printing/serialization."""
        rows = []
        for p in self.precisions:
            row = {"precision": p,
                   "cone_fraction": self.cone_fraction[p],
                   "dropped_gates": self.dropped_gates[p]}
            for label in self.scenario_labels:
                row[label + "_ps"] = self.delays_ps[(p, label)]
            rows.append(row)
        return rows


def truncation_screen(component, library, scenarios, precisions=None,
                      effort="ultra", bti=DEFAULT_BTI, degradation=None):
    """Screen a precision sweep by incremental cone re-analysis.

    One synthesis + one batched corner analysis + one incremental
    re-propagation per precision, instead of a synthesis and a full STA
    grid per precision — the cheap first pass of a characterization
    campaign.

    Parameters
    ----------
    scenarios:
        Uniform-stress :class:`~repro.aging.scenario.AgingScenario`
        objects (actual-case specs need per-variant stress extraction —
        use :func:`characterize` for those). The fresh corner is always
        included.

    Returns
    -------
    TruncationScreen
    """
    from .grid import TimingGrid

    width = component.width
    if precisions is None:
        precisions = precision_range(width)
    precisions = sorted(set(precisions), reverse=True)
    corners = [None]
    for spec in scenarios:
        if isinstance(spec, ActualCaseSpec):
            raise ValueError(
                "truncation_screen supports uniform-stress scenarios "
                "only; characterize() handles actual-case specs")
        if spec is not None and not spec.is_fresh:
            corners.append(spec)
    labels = ["fresh"] + [s.label for s in corners[1:]]

    with obs_trace.span("characterize.screen",
                        component=component_key(component),
                        precisions=len(precisions),
                        corners=len(corners)):
        grid = TimingGrid(component, library, corners, labels,
                          effort=effort, bti=bti, degradation=degradation)
        gates = grid.program.n_gates
        delays, cone, dropped = {}, {}, {}
        for precision in precisions:
            for label, cp in zip(labels, grid.critical_paths(precision)):
                delays[(precision, label)] = float(cp)
            plan = grid.plan(precision)
            cone[precision] = \
                0.0 if plan is None else plan.cone_gates / max(gates, 1)
            dropped[precision] = gates - grid.alive(precision)
    _log.info("screened %s: %d precisions x %d corners from one netlist",
              component_key(component), len(precisions), len(corners))
    return TruncationScreen(
        key=component_key(component), family=component.family, width=width,
        precisions=precisions, scenario_labels=labels, delays_ps=delays,
        cone_fraction=cone, dropped_gates=dropped)
