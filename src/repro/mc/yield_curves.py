"""Yield curves and the yield-constrained precision K (stochastic Eq. 2).

The paper's Eq. 2 picks the deepest precision whose *deterministic*
aged critical path still meets the clock. Under per-gate process
variation that single worst case becomes a distribution, and the right
question is **yield**: per precision point, ``P(aged critical path <=
clock)`` over the variation ensemble — and the deepest precision K
whose yield still clears a target (``min_yield``). This module turns
:func:`repro.mc.engine.analyze_mc` into that report:

* one deterministic prelude per spec (synthesize once, compile one
  timing program, one cone plan per precision — the same structural
  plans the truncation sweeps replay);
* sample blocks fan out over ``--jobs`` workers; each block propagates
  the full ``(gates, corners, block)`` tensor *and* replays every
  requested precision's cone against it, so a whole sweep costs one
  propagation plus cheap cone replays per block;
* the optional surrogate screen (``surrogate="screen"``) evaluates
  anchor precisions exactly, fits the cross-validated least-squares
  model of :mod:`repro.mc.surrogate`, and spends full sampled STA only
  on candidates near a feasibility boundary — refusing to report a K
  that was not exactly evaluated.

Determinism: results are bit-identical across ``--jobs N``, worker
pools and the served ``/v1/mc`` path. Draws are keyed by ``(seed, gate
uid, absolute sample index)`` (:mod:`repro.mc.variation`), blocks are
assembled in absolute order, the screen's anchor choice / fold split /
refinement walk are pure functions of the spec, and ``sigma = 0``
routes through the deterministic memoized engine so it *equals*
:func:`repro.sta.engine.analyze_batch` rather than approximating it.
"""

import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..aging.bti import SECONDS_PER_YEAR
from ..cells.library import default_library
from ..core.cache import memoized_prelude, synthesize_netlist_memoized
from ..core.parallel import map_tasks
from ..core.specs import (GridSpec, SpecError, corner_grid,
                          parse_component, parse_scenario)
from ..obs import logs, metrics as obs_metrics, trace as obs_trace
from ..sta.engine import (_critical_paths, _propagate, analyze_batch,
                          compile_timing, cone_plan, corner_delays,
                          corner_label, corner_stress, replay_cone,
                          truncated_input_nets)
from .engine import DEFAULT_BLOCK, sample_blocks
from .surrogate import cross_validate, fit_surrogate, pick_degree
from .variation import VariationModel

_log = logs.get_logger("mc.yield")

#: Surrogate feature/target vocabularies (see :func:`_features`).
_FEATURES = ("det_cp_ps", "alive_gates", "stress_mean", "stress_rms",
             "age_factor", "sigma_v")
_TARGETS = ("q_ps", "p50_ps")


@dataclass(frozen=True)
class MCSpec(GridSpec):
    """One reproducible Monte Carlo yield analysis.

    ``scenarios`` are textual corner specs (``fresh``, ``worst10y``,
    ``10y_worst``); ``clock_scales`` multiply the deterministic fresh
    full-precision critical path, so ``1.0`` is the guardband-free
    clock. ``sweep_bits`` truncation depths below full width are
    analyzed; ``min_yield`` is the yield floor defining K.
    """

    component: str
    scenarios: Tuple[str, ...] = ("worst10y",)
    clock_scales: Tuple[float, ...] = (1.0,)
    sigma_mv: float = 30.0
    samples: int = 2000
    seed: int = 20170618
    sweep_bits: int = 8
    min_yield: float = 0.99
    effort: str = "high"
    width: Optional[int] = None
    block: int = DEFAULT_BLOCK
    surrogate: str = "off"

    KIND = "mc spec"

    def validated(self):
        """Parse/normalize every field; raises :class:`SpecError`."""
        super().validated()
        if not (0.0 <= float(self.sigma_mv) <= 50.0):
            raise SpecError("sigma_mv must be in [0, 50] mV, got %r"
                            % (self.sigma_mv,))
        if int(self.samples) < 1:
            raise SpecError("samples must be >= 1, got %r"
                            % (self.samples,))
        if int(self.sweep_bits) < 0:
            raise SpecError("sweep_bits must be >= 0, got %r"
                            % (self.sweep_bits,))
        if not (0.0 < float(self.min_yield) <= 1.0):
            raise SpecError("min_yield must be in (0, 1], got %r"
                            % (self.min_yield,))
        if int(self.block) < 1:
            raise SpecError("block must be >= 1, got %r" % (self.block,))
        if self.surrogate not in ("off", "screen"):
            raise SpecError("surrogate must be 'off' or 'screen', got %r"
                            % (self.surrogate,))
        return self

    def variation(self):
        """The :class:`VariationModel` this spec draws from."""
        return VariationModel(sigma_mv=float(self.sigma_mv),
                              seed=int(self.seed))


@dataclass
class MCResult:
    """Yield curves + K table of one spec.

    Deterministic given the spec (no wall-clock fields): equality of
    ``to_dict()`` outputs is the ``--jobs`` reproducibility check.
    ``rows`` carry one entry per (precision, scenario, clock scale)
    with ``exact`` marking full sampled evaluation vs surrogate
    estimates; ``k_rows`` one entry per (scenario, clock scale).
    """

    spec: MCSpec
    component: str
    gates: int
    samples: int
    fresh_clock_ps: float
    labels: Tuple[str, ...]
    precisions: Tuple[int, ...]
    rows: list = field(default_factory=list)
    k_rows: list = field(default_factory=list)
    surrogate: Optional[dict] = None

    def to_dict(self):
        return {
            "schema": "repro.mc/1",
            "spec": self.spec.to_dict(),
            "component": self.component,
            "gates": int(self.gates),
            "samples": int(self.samples),
            "fresh_clock_ps": float(self.fresh_clock_ps),
            "labels": list(self.labels),
            "precisions": [int(p) for p in self.precisions],
            "rows": self.rows,
            "k_rows": self.k_rows,
            "surrogate": self.surrogate,
        }


# ---------------------------------------------------------------------------
# per-process prelude (synthesis + deterministic STA + cone plans)
# ---------------------------------------------------------------------------

@dataclass
class _Prelude:
    component: object
    netlist: object
    program: object
    corners: tuple
    labels: tuple
    batch: object
    fresh_clock_ps: float
    precisions: tuple
    plans: dict         # precision -> ConePlan (None at full precision)
    det_cp: dict        # precision -> (C,) deterministic aged CPs
    alive: dict         # precision -> surviving gate count
    stress_mean: np.ndarray   # (C,) mean per-gate stress duty
    stress_rms: np.ndarray    # (C,) rms per-gate stress duty
    age_factor: np.ndarray    # (C,) lifetime feature t_sec**(1/6)
    library: object


_PRELUDE_MEMO = {}


def _build_prelude(spec, library):
    component = parse_component(spec.component, width=spec.width)
    lib = library if library is not None else default_library()
    netlist = synthesize_netlist_memoized(component, lib, effort=spec.effort)
    program = compile_timing(netlist, lib)
    corners, labels = corner_grid(spec.scenarios)
    batch = analyze_batch(netlist, lib, corners, program=program)
    fresh_clock = float(batch.critical_path_ps[0])
    low = max(1, component.width - int(spec.sweep_bits))
    precisions = tuple(range(component.width, low - 1, -1))
    plans, det_cp, alive = {}, {}, {}
    for precision in precisions:
        tied = truncated_input_nets(component, netlist, precision)
        if not tied:
            plans[precision] = None
            det_cp[precision] = batch.critical_path_ps.copy()
            alive[precision] = program.n_gates
        else:
            plan = cone_plan(program, tied)
            plans[precision] = plan
            arr = replay_cone(plan, batch.arrivals, batch.delays)
            det_cp[precision] = _critical_paths(program, arr)
            alive[precision] = program.n_gates - int(plan.dropped.sum())
    sp, sn, years = corner_stress(program, corners)
    duty = (sp + sn) / 2.0
    if program.n_gates:
        stress_mean = duty.mean(axis=0)
        stress_rms = np.sqrt((duty * duty).mean(axis=0))
    else:
        stress_mean = np.zeros(len(corners))
        stress_rms = np.zeros(len(corners))
    age_factor = (years * SECONDS_PER_YEAR) ** (1.0 / 6.0)
    return _Prelude(component=component, netlist=netlist, program=program,
                    corners=corners, labels=labels, batch=batch,
                    fresh_clock_ps=fresh_clock, precisions=precisions,
                    plans=plans, det_cp=det_cp, alive=alive,
                    stress_mean=stress_mean, stress_rms=stress_rms,
                    age_factor=age_factor, library=lib)


def _prelude(spec, library=None):
    """Per-process memoized prelude (see
    :func:`repro.core.cache.memoized_prelude`)."""
    return memoized_prelude(_PRELUDE_MEMO, spec, library, _build_prelude)


# ---------------------------------------------------------------------------
# sample-block worker
# ---------------------------------------------------------------------------

def _mc_block(task):
    """Module-level sample-block worker (shared by every path).

    One propagation of the full tensor block plus one cone replay per
    requested truncation depth; returns ``{precision: (C, count)
    critical paths}`` (blocks come back in task order, which is
    absolute sample order).
    """
    spec = MCSpec.from_dict(task["spec"])
    with obs_trace.span("mc.block", start=task["start"],
                        count=task["count"],
                        precisions=len(task["precisions"])):
        prelude = _prelude(spec, library=task.get("library"))
        program = prelude.program
        dvth = spec.variation().gate_dvth(
            program.gate_uids, task["start"], task["count"])
        delays = corner_delays(program, prelude.corners, dvth=dvth)
        arr = _propagate(program, delays)
        cp = {}
        for precision in task["precisions"]:
            plan = prelude.plans[precision]
            if plan is None:
                cp[int(precision)] = _critical_paths(program, arr)
            else:
                arr_p = replay_cone(plan, arr, delays)
                cp[int(precision)] = _critical_paths(program, arr_p)
    return cp


def _exact_cp(spec, library, precisions, jobs, pool, prelude):
    """Sampled ``(C, samples)`` critical paths per requested precision.

    ``sigma = 0`` tiles the deterministic per-precision CPs (exact
    equality with the memoized engine by construction); otherwise the
    sample blocks are mapped over workers and concatenated in absolute
    order, so the result is independent of ``jobs``.
    """
    precisions = sorted({int(p) for p in precisions}, reverse=True)
    if not precisions:
        return {}
    if spec.variation().is_zero:
        return {p: np.repeat(prelude.det_cp[p][:, None], spec.samples,
                             axis=1) for p in precisions}
    tasks = [{"spec": spec.to_dict(), "start": start, "count": count,
              "precisions": precisions, "library": library}
             for start, count in sample_blocks(spec.samples, spec.block)]
    blocks = map_tasks(_mc_block, tasks, jobs=jobs, pool=pool)
    obs_metrics.inc(obs_metrics.MC_SAMPLES,
                    int(spec.samples) * len(precisions))
    obs_metrics.inc(obs_metrics.MC_BLOCKS, len(tasks))
    return {p: np.concatenate([cp[p] for cp in blocks], axis=1)
            for p in precisions}


# ---------------------------------------------------------------------------
# surrogate screen
# ---------------------------------------------------------------------------

def _features(prelude, spec, precision, corner):
    """Feature vector of one (precision, corner) point — netlist stats,
    stress moments, lifetime and sigma (see module doc)."""
    return [float(prelude.det_cp[precision][corner]),
            float(prelude.alive[precision]),
            float(prelude.stress_mean[corner]),
            float(prelude.stress_rms[corner]),
            float(prelude.age_factor[corner]),
            spec.variation().sigma_v]


def _yield_fraction(cp_samples, clock_ps):
    return float(np.count_nonzero(cp_samples <= clock_ps)
                 / cp_samples.size)


def _screened_evaluation(spec, library, jobs, pool, prelude, ladder):
    """Anchor -> fit -> predict -> boundary-refine evaluation plan.

    Returns ``(exact, info, predictions)``: exactly evaluated sample
    tensors, the JSON-ready screen summary, and per ``(precision,
    corner)`` surrogate estimates for the rows that stayed screened.
    The refinement loop re-evaluates any would-be K that is not yet
    exact, so reported K values never rest on an estimate.
    """
    precisions = list(prelude.precisions)
    step = max(1, (len(precisions) - 1) // 3)
    anchors = sorted({precisions[0], precisions[-1],
                      *precisions[::step]}, reverse=True)
    exact = _exact_cp(spec, library, anchors, jobs, pool, prelude)

    X, Y = [], []
    corners = range(len(prelude.labels))
    for p in sorted(exact, reverse=True):
        for c in corners:
            X.append(_features(prelude, spec, p, c))
            Y.append([float(np.quantile(exact[p][c], spec.min_yield)),
                      float(np.quantile(exact[p][c], 0.5))])
    degree = pick_degree(len(X), len(_FEATURES))
    cv = cross_validate(X, Y, _FEATURES, _TARGETS, degree=degree)
    fit = fit_surrogate(X, Y, _FEATURES, _TARGETS, degree=degree)
    margin = max(2.0 * cv["targets"]["q_ps"]["max_abs_err"],
                 0.005 * prelude.fresh_clock_ps)

    rest = [p for p in precisions if p not in exact]
    predictions = {}
    if rest:
        Xr = [_features(prelude, spec, p, c) for p in rest for c in corners]
        pred = fit.predict(np.asarray(Xr))
        for i, (p, c) in enumerate((p, c) for p in rest for c in corners):
            predictions[(p, c)] = {"q_ps": float(pred[i, 0]),
                                   "p50_ps": float(pred[i, 1])}

    clocks = [prelude.fresh_clock_ps * float(s)
              for s in spec.clock_scales]
    ladder_corners = [prelude.labels.index(label) for label in ladder]
    boundary = [
        p for p in rest
        if any(abs(predictions[(p, c)]["q_ps"] - clock) <= margin
               for c in ladder_corners for clock in clocks)]
    if boundary:
        exact.update(_exact_cp(spec, library, boundary, jobs, pool,
                               prelude))

    # A reported K must be exact: walk each (corner, clock) ladder with
    # current knowledge and evaluate any screened would-be K.
    for _ in range(len(precisions)):
        need = set()
        for c in ladder_corners:
            for clock in clocks:
                for p in precisions:
                    if p in exact:
                        feasible = (_yield_fraction(exact[p][c], clock)
                                    >= spec.min_yield)
                    else:
                        feasible = predictions[(p, c)]["q_ps"] <= clock
                    if feasible:
                        if p not in exact:
                            need.add(p)
                        break
        if not need:
            break
        exact.update(_exact_cp(spec, library, sorted(need, reverse=True),
                               jobs, pool, prelude))

    skipped = [p for p in precisions if p not in exact]
    obs_metrics.inc(obs_metrics.MC_SURROGATE_FITS)
    obs_metrics.inc(obs_metrics.MC_SURROGATE_SKIPPED,
                    len(skipped) * len(ladder_corners))
    info = {
        "anchors": [int(p) for p in anchors],
        "degree": int(degree),
        "cv": cv,
        "margin_ps": float(margin),
        "evaluated": sorted((int(p) for p in exact), reverse=True),
        "skipped": [int(p) for p in skipped],
    }
    return exact, info, predictions


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_mc(spec, library=None, jobs=None, pool=None):
    """Run one Monte Carlo yield analysis; bit-identical across jobs.

    *jobs*/*pool* follow :func:`repro.core.parallel.map_tasks`
    semantics; results do not depend on either (see module doc).

    Returns
    -------
    MCResult
    """
    spec.validated()
    with obs_trace.span("mc.run", component=spec.component,
                        scenarios=len(spec.scenarios),
                        samples=int(spec.samples),
                        sigma_mv=float(spec.sigma_mv)):
        started = time.perf_counter()
        prelude = _prelude(spec, library=library)
        ladder = [corner_label(parse_scenario(s)) for s in spec.scenarios]
        precisions = prelude.precisions
        surrogate_info = None
        predictions = {}
        if (spec.surrogate == "screen" and not spec.variation().is_zero
                and len(precisions) > 3):
            exact, surrogate_info, predictions = _screened_evaluation(
                spec, library, jobs, pool, prelude, ladder)
        else:
            exact = _exact_cp(spec, library, precisions, jobs, pool,
                              prelude)

        rows = []
        for precision in precisions:
            for label in ladder:
                corner = prelude.labels.index(label)
                scenario = prelude.corners[corner]
                for scale in spec.clock_scales:
                    clock_ps = prelude.fresh_clock_ps * float(scale)
                    row = {
                        "precision": int(precision),
                        "scenario": label,
                        "years": float(scenario.years),
                        "clock_scale": float(scale),
                        "clock_ps": clock_ps,
                        "det_cp_ps": float(
                            prelude.det_cp[precision][corner]),
                    }
                    if precision in exact:
                        cps = exact[precision][corner]
                        y = _yield_fraction(cps, clock_ps)
                        row.update({
                            "exact": True,
                            "yield_fraction": y,
                            "feasible": y >= spec.min_yield,
                            "p50_ps": float(np.quantile(cps, 0.5)),
                            "mean_ps": float(cps.mean()),
                            "q_ps": float(np.quantile(cps,
                                                      spec.min_yield)),
                            "p99_ps": float(np.quantile(cps, 0.99)),
                        })
                        obs_metrics.observe(
                            obs_metrics.MC_YIELD_FRACTION, y,
                            boundaries=obs_metrics.FRACTION_BOUNDARIES)
                    else:
                        pred = predictions[(precision, corner)]
                        row.update({
                            "exact": False,
                            "yield_fraction": None,
                            "feasible": pred["q_ps"] <= clock_ps,
                            "p50_ps": pred["p50_ps"],
                            "q_ps": pred["q_ps"],
                        })
                    rows.append(row)

        k_rows = []
        for label in ladder:
            corner = prelude.labels.index(label)
            scenario = prelude.corners[corner]
            for scale in spec.clock_scales:
                clock_ps = prelude.fresh_clock_ps * float(scale)
                det_k = next(
                    (int(p) for p in precisions
                     if prelude.det_cp[p][corner] <= clock_ps), None)
                yield_k = None
                yield_at_k = None
                for p in precisions:
                    if p in exact:
                        y = _yield_fraction(exact[p][corner], clock_ps)
                        if y >= spec.min_yield:
                            yield_k, yield_at_k = int(p), y
                            break
                    elif predictions[(p, corner)]["q_ps"] <= clock_ps:
                        # Screened rows can only be K candidates before
                        # refinement; after it, a feasible screened row
                        # never outranks the exact K (see
                        # _screened_evaluation).
                        break
                k_rows.append({
                    "scenario": label,
                    "years": float(scenario.years),
                    "clock_scale": float(scale),
                    "clock_ps": clock_ps,
                    "min_yield": float(spec.min_yield),
                    "det_precision": det_k,
                    "yield_precision": yield_k,
                    "yield_at_k": yield_at_k,
                })

        obs_metrics.inc(obs_metrics.MC_RUNS)
        obs_metrics.inc(obs_metrics.MC_POINTS,
                        sum(1 for row in rows if row["exact"]))
        _log.info(
            "mc %s: %d precisions x %d corners x %d samples in %.2fs",
            spec.component, len(precisions), len(prelude.labels),
            spec.samples, time.perf_counter() - started)
        return MCResult(
            spec=spec, component=prelude.component.name,
            gates=prelude.program.n_gates, samples=int(spec.samples),
            fresh_clock_ps=prelude.fresh_clock_ps, labels=prelude.labels,
            precisions=precisions, rows=rows, k_rows=k_rows,
            surrogate=surrogate_info)
