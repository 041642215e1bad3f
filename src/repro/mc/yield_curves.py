"""Yield curves and the yield-constrained precision K (stochastic Eq. 2).

The paper's Eq. 2 picks the deepest precision whose *deterministic*
aged critical path still meets the clock. Under per-gate process
variation that single worst case becomes a distribution, and the right
question is **yield**: per precision point, ``P(aged critical path <=
clock)`` over the variation ensemble — and the deepest precision K
whose yield still clears a target (``min_yield``). This module turns
:func:`repro.mc.engine.analyze_mc` into that report:

* one deterministic :class:`~repro.core.grid.TimingGrid` shared by
  every spec of the same component, effort and scenarios (synthesize
  once, compile one timing program, one cone plan per precision — the
  same structural plans the truncation screen uses);
* sample blocks fan out over ``--jobs`` workers; each block propagates
  the full ``(gates, corners, block)`` tensor once, then walks the
  requested precisions in descending order, updating the arrivals in
  place over the fan-out of the gates each step drops, so a whole
  sweep costs one propagation plus small in-place replays per block;
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
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..aging.bti import SECONDS_PER_YEAR
from ..core.grid import map_chunks, timing_grid
from ..core.specs import GridResult, GridSpec, SpecError
from ..obs import logs, metrics as obs_metrics, trace as obs_trace
from ..sta.engine import corner_stress, sampled_delays
from .engine import DEFAULT_BLOCK, mc_block, sample_blocks
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
class MCResult(GridResult):
    """Yield curves + K table of one spec.

    ``rows`` carry one entry per (precision, scenario, clock scale)
    with ``exact`` marking full sampled evaluation vs surrogate
    estimates; ``k_rows`` one entry per (scenario, clock scale).
    """

    SCHEMA = "repro.mc/1"

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


# ---------------------------------------------------------------------------
# per-run prelude (sampled delays + surrogate features on the shared grid)
# ---------------------------------------------------------------------------

#: An analysis's own inputs on its shared timing grid: the swept
#: precisions, the surrogate's (C,) stress-duty mean/rms and lifetime
#: t_sec**(1/6) features, and the sampled_delays function.
_Sampling = namedtuple("_Sampling", "grid precisions stress_mean "
                       "stress_rms age_factor delays_of")


def _build_prelude(spec, library):
    """The analysis's own inputs, built on its shared timing grid: the
    swept precisions, the sampled delay function and the surrogate's
    stress features."""
    grid = timing_grid(spec.component, spec.width, spec.effort,
                       spec.scenarios, library)
    program = grid.program
    width = grid.component.width
    low = max(1, width - int(spec.sweep_bits))
    precisions = tuple(range(width, low - 1, -1))
    sp, sn, years = corner_stress(program, grid.corners)
    duty = (sp + sn) / 2.0
    if program.n_gates:
        stress_mean = duty.mean(axis=0)
        stress_rms = np.sqrt((duty * duty).mean(axis=0))
    else:
        stress_mean = np.zeros(len(grid.corners))
        stress_rms = np.zeros(len(grid.corners))
    age_factor = (years * SECONDS_PER_YEAR) ** (1.0 / 6.0)
    return _Sampling(grid=grid, precisions=precisions,
                     stress_mean=stress_mean, stress_rms=stress_rms,
                     age_factor=age_factor,
                     delays_of=sampled_delays(program, grid.corners))


# ---------------------------------------------------------------------------
# sample-block worker
# ---------------------------------------------------------------------------

def _mc_blocks(chunk):
    """Module-level sample-block worker (shared by every path).

    Runs :func:`~repro.mc.engine.mc_block` once per block task of
    *chunk*, walking the requested truncation depths down from the
    block's propagation; returns one ``{precision: (C,
    count) critical paths}`` per block (in task order, which is
    absolute sample order). The chunk's blocks share one prelude.
    """
    tasks = chunk["tasks"]
    spec = MCSpec.from_dict(tasks[0]["spec"])
    prelude = _build_prelude(spec, tasks[0].get("library"))
    grid = prelude.grid
    results = []
    for task in tasks:
        with obs_trace.span("mc.block", start=task["start"],
                            count=task["count"],
                            precisions=len(task["precisions"])):
            __, cps = mc_block(grid.program, prelude.delays_of,
                               spec.variation(), task["start"],
                               task["count"],
                               [grid.plan(p) for p in task["precisions"]])
        results.append({int(p): cp
                        for p, cp in zip(task["precisions"], cps)})
    return results


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
        return {p: np.repeat(prelude.grid.critical_paths(p)[:, None],
                             spec.samples, axis=1) for p in precisions}
    tasks = [{"spec": spec.to_dict(), "start": start, "count": count,
              "precisions": precisions, "library": library}
             for start, count in sample_blocks(spec.samples, spec.block)]
    blocks = map_chunks(_mc_blocks, tasks, jobs=jobs, pool=pool)
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
    grid = prelude.grid
    return [float(grid.critical_paths(precision)[corner]),
            float(grid.alive(precision)),
            float(prelude.stress_mean[corner]),
            float(prelude.stress_rms[corner]),
            float(prelude.age_factor[corner]),
            spec.variation().sigma_v]


def _yield_fraction(cp_samples, clock_ps):
    return float(np.count_nonzero(cp_samples <= clock_ps)
                 / cp_samples.size)


def _yield_k(spec, precisions, exact, predictions, point):
    """The stochastic Eq. 2 walk at one grid point: the first precision
    whose yield clears ``min_yield`` (or, when not exactly evaluated,
    whose surrogate quantile meets the clock) and its yield (``None``
    when screened); ``(None, None)`` when none is feasible."""
    for p in precisions:
        if p in exact:
            y = _yield_fraction(exact[p][point.corner], point.clock_ps)
            if y >= spec.min_yield:
                return int(p), y
        elif predictions[(p, point.corner)]["q_ps"] <= point.clock_ps:
            return int(p), None
    return None, None


def _screened_evaluation(spec, library, jobs, pool, prelude, points):
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
    corners = range(len(prelude.grid.labels))
    for p in sorted(exact, reverse=True):
        for c in corners:
            X.append(_features(prelude, spec, p, c))
            Y.append([float(np.quantile(exact[p][c], spec.min_yield)),
                      float(np.quantile(exact[p][c], 0.5))])
    degree = pick_degree(len(X), len(_FEATURES))
    cv = cross_validate(X, Y, _FEATURES, _TARGETS, degree=degree)
    fit = fit_surrogate(X, Y, _FEATURES, _TARGETS, degree=degree)
    margin = max(2.0 * cv["targets"]["q_ps"]["max_abs_err"],
                 0.005 * prelude.grid.fresh_clock_ps)

    rest = [p for p in precisions if p not in exact]
    predictions = {}
    if rest:
        Xr = [_features(prelude, spec, p, c) for p in rest for c in corners]
        pred = fit.predict(np.asarray(Xr))
        for i, (p, c) in enumerate((p, c) for p in rest for c in corners):
            predictions[(p, c)] = {"q_ps": float(pred[i, 0]),
                                   "p50_ps": float(pred[i, 1])}

    boundary = [
        p for p in rest
        if any(abs(predictions[(p, pt.corner)]["q_ps"] - pt.clock_ps)
               <= margin for pt in points)]
    if boundary:
        exact.update(_exact_cp(spec, library, boundary, jobs, pool,
                               prelude))

    # A reported K must be exact: walk each grid point's ladder with
    # current knowledge and evaluate any screened would-be K.
    for _ in range(len(precisions)):
        need = {p for p, y in (_yield_k(spec, precisions, exact,
                                        predictions, pt) for pt in points)
                if p is not None and y is None}
        if not need:
            break
        exact.update(_exact_cp(spec, library, sorted(need, reverse=True),
                               jobs, pool, prelude))

    skipped = [p for p in precisions if p not in exact]
    obs_metrics.inc(obs_metrics.MC_SURROGATE_FITS)
    obs_metrics.inc(obs_metrics.MC_SURROGATE_SKIPPED,
                    len(skipped) * len(spec.scenarios))
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
        prelude = _build_prelude(spec, library)
        grid = prelude.grid
        points = list(grid.points(spec.scenarios, spec.clock_scales))
        precisions = prelude.precisions
        surrogate_info = None
        predictions = {}
        if (spec.surrogate == "screen" and not spec.variation().is_zero
                and len(precisions) > 3):
            exact, surrogate_info, predictions = _screened_evaluation(
                spec, library, jobs, pool, prelude, points)
        else:
            exact = _exact_cp(spec, library, precisions, jobs, pool,
                              prelude)

        rows = []
        for precision in precisions:
            for point in points:
                row = {"precision": int(precision)}
                row.update(point.fields())
                row["det_cp_ps"] = float(
                    grid.critical_paths(precision)[point.corner])
                if precision in exact:
                    cps = exact[precision][point.corner]
                    y = _yield_fraction(cps, point.clock_ps)
                    row.update({
                        "exact": True,
                        "yield_fraction": y,
                        "feasible": y >= spec.min_yield,
                        "p50_ps": float(np.quantile(cps, 0.5)),
                        "mean_ps": float(cps.mean()),
                        "q_ps": float(np.quantile(cps, spec.min_yield)),
                        "p99_ps": float(np.quantile(cps, 0.99)),
                    })
                    obs_metrics.observe(
                        obs_metrics.MC_YIELD_FRACTION, y,
                        boundaries=obs_metrics.FRACTION_BOUNDARIES)
                else:
                    pred = predictions[(precision, point.corner)]
                    row.update({
                        "exact": False,
                        "yield_fraction": None,
                        "feasible": pred["q_ps"] <= point.clock_ps,
                        "p50_ps": pred["p50_ps"],
                        "q_ps": pred["q_ps"],
                    })
                rows.append(row)

        k_rows = []
        for point in points:
            # After refinement a screened precision never outranks the
            # exact K (see _screened_evaluation): K is exact or None.
            yield_k, yield_at_k = _yield_k(spec, precisions, exact,
                                           predictions, point)
            if yield_at_k is None:
                yield_k = None
            k_row = point.fields()
            k_row.update({
                "min_yield": float(spec.min_yield),
                "det_precision": grid.deepest_precision(
                    point.corner, point.clock_ps, precisions),
                "yield_precision": yield_k,
                "yield_at_k": yield_at_k,
            })
            k_rows.append(k_row)

        obs_metrics.inc(obs_metrics.MC_RUNS)
        obs_metrics.inc(obs_metrics.MC_POINTS,
                        sum(1 for row in rows if row["exact"]))
        _log.info(
            "mc %s: %d precisions x %d corners x %d samples in %.2fs",
            spec.component, len(precisions), len(grid.labels),
            spec.samples, time.perf_counter() - started)
        return MCResult(
            spec=spec, component=grid.component.name,
            gates=grid.program.n_gates, samples=int(spec.samples),
            fresh_clock_ps=grid.fresh_clock_ps, labels=grid.labels,
            precisions=precisions, rows=rows, k_rows=k_rows,
            surrogate=surrogate_info)
