"""Campaign runner: clock x lifetime x stress fault-injection grids.

A campaign quantifies the paper's baseline question — what happens to a
guardband-free circuit that keeps its fresh clock while aging, *without*
approximation — and puts the answer next to the two alternatives:

* **guardband-free + faults** — the error-rate ladder. Every grid
  point ``(scenario, clock scale)`` derives a faultload from batched
  STA arrivals (:mod:`repro.inject.faultload`), samples per-gate XOR
  masks (:mod:`repro.inject.masks`; a gate's bit-planes are drawn once
  for every point of a worker's chunk) and replays, with those masks,
  only the fan-out cone of the point's violating gates
  (:func:`repro.sim.logic.replay_words`): every other gate reads
  unchanged inputs, so it keeps the value the chunk's one clean
  evaluation gave it. That evaluation keeps the *frontier* slots the
  chunk's cones read but do not write, within
  :data:`KEPT_FRONTIER_BYTES`; a point whose frontier does not fit
  re-runs every gate from the primary inputs. Either way the outputs
  are bit-identical to a full replay
  (:func:`repro.sim.logic.evaluate_words` with the masks).
* **guardband-free + aging-induced approximation** — the paper's
  answer: the deepest precision whose *aged* critical path still meets
  the same clock (Eq. 2 on the shared :class:`~repro.core.grid.TimingGrid`,
  by cone-restricted re-analysis), with the deterministic quality cost
  of truncating those inputs.
* **guardbanded** — slow the clock to the aged critical path: zero
  faults, full precision, and the clock penalty that motivates the
  whole exercise.

Determinism
-----------
``run_campaign`` produces bit-identical :class:`CampaignResult` values
for the same spec + seed regardless of ``jobs``, worker pools, or the
in-process vs served path. Three mechanisms carry that guarantee:

1. Fault masks come from per-``(seed, gate uid, chunk)`` Philox
   streams (see :mod:`repro.inject.masks`) — independent of which
   process draws them.
2. Every grid point is computed by the same module-level worker
   (:func:`_inject_points`) on inputs re-derived deterministically from
   the spec; serial and pooled paths run the identical float
   operations in the identical order, whichever chunk a point falls in.
3. :func:`repro.core.grid.map_chunks` returns results in task order,
   and task order is a pure function of the spec (scenario major,
   clock scale minor).
"""

import time
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..core.grid import map_chunks, timing_grid
from ..core.specs import GridResult, GridSpec, SpecError, parse_scenario
from ..obs import logs, metrics as obs_metrics, trace as obs_trace
from ..quality.metrics import error_summary
from ..sim.activity import operand_stream_words
from ..sim.bitpack import unpack_ints, word_count
from ..sim.logic import (compile_netlist, cone_frontier, evaluate_words,
                         replay_words)
from ..sim.stimuli import STIMULUS_NAMES, make_stimulus
from ..sta.engine import corner_label, fanout_rows
from .faultload import DEFAULT_ACTIVITY, build_faultload, point_masks
from .inject_sim import count_mask_bits

_log = logs.get_logger("inject.campaign")


@dataclass(frozen=True)
class CampaignSpec(GridSpec):
    """One reproducible campaign: everything a result depends on.

    ``scenarios`` are textual corner specs (``fresh``, ``worst10y``,
    ``balance1y``, ``10y_worst``); ``clock_scales`` multiply the fresh
    (guardband-free) critical path, so ``1.0`` is "keep the fresh
    clock" and ``0.9`` overclocks by 10%. The ladder covers the full
    scenario x scale grid.
    """

    component: str
    scenarios: Tuple[str, ...] = ("fresh", "worst10y")
    clock_scales: Tuple[float, ...] = (1.0,)
    vectors: int = 4096
    seed: int = 20170618
    stimulus: str = "normal"
    activity: float = DEFAULT_ACTIVITY
    effort: str = "high"
    width: Optional[int] = None

    KIND = "campaign spec"

    def validated(self):
        """Parse/normalize every field; raises :class:`SpecError`."""
        super().validated()
        if int(self.vectors) < 1:
            raise SpecError("vectors must be >= 1, got %r" % (self.vectors,))
        if not (0.0 < float(self.activity) <= 1.0):
            raise SpecError("activity must be in (0, 1], got %r"
                            % (self.activity,))
        if self.stimulus not in STIMULUS_NAMES:
            raise SpecError("unknown stimulus %r (choose from %s)"
                            % (self.stimulus, ", ".join(STIMULUS_NAMES)))
        return self


@dataclass
class CampaignResult(GridResult):
    """Ladder + comparison arms of one campaign."""

    SCHEMA = "repro.inject/1"

    spec: CampaignSpec
    component: str
    gates: int
    vectors: int
    fresh_clock_ps: float
    labels: Tuple[str, ...]
    rows: list = field(default_factory=list)
    approximation: list = field(default_factory=list)
    guardbanded: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# per-run prelude (stimulus + clean reference outputs on the shared grid)
# ---------------------------------------------------------------------------

#: A campaign chunk's per-seed inputs on its shared timing grid: clean
#: PO words and integers, the clean words of the *kept* frontier slots,
#: and each point's faultload and replay rows.
_Prelude = namedtuple("_Prelude", "grid compiled pi_words clean_words "
                      "clean_ints kept peak points faultloads replays")

#: Bytes of clean gate-output words a campaign chunk keeps for its
#: points' cone replays (:func:`_replay_rows`). A point whose frontier
#: does not fit re-runs every gate from the primary inputs instead.
KEPT_FRONTIER_BYTES = 16 << 20


def _stimulus_operands(spec, component):
    widths = component.operand_widths
    if len(widths) == 2 and widths[0] == widths[1]:
        a, b = make_stimulus(spec.stimulus, widths[0], spec.vectors,
                             seed=spec.seed)
        return [a, b]
    if spec.stimulus in ("normal", "uniform"):
        rng = np.random.default_rng(spec.seed)
        return list(component.random_operands(
            spec.vectors, rng=rng, distribution=spec.stimulus))
    raise SpecError(
        "stimulus %r needs two equal-width operands; %s has widths %s "
        "(use normal or uniform)"
        % (spec.stimulus, component.name, list(widths)))


def _build_prelude(spec, library, keys=()):
    """The campaign's per-seed inputs, built on its shared timing grid:
    the faultload and replay rows of each ``(scenario label, clock
    scale)`` in *keys*, packed stimulus, clean outputs (keeping the
    frontier those replays read) and the PSNR peak."""
    grid = timing_grid(spec.component, spec.width, spec.effort,
                       spec.scenarios, library)
    component = grid.component
    compiled = compile_netlist(grid.netlist, grid.library)
    by_key = {(p.label, p.clock_scale): p for p in
              grid.points(spec.scenarios, spec.clock_scales)}
    points = [by_key[key] for key in keys]
    faultloads = [build_faultload(grid.program, grid.batch, point.label,
                                  point.clock_ps, activity=spec.activity)
                  for point in points]
    replays, keep = _replay_rows(grid.program, compiled, faultloads,
                                 word_count(spec.vectors))
    operands = _stimulus_operands(spec, component)
    # Stimulus stays packed from operands to metrics: a (vectors, n_pi)
    # byte matrix (and its transposes) would dominate peak memory.
    pi_words = operand_stream_words(operands, component.operand_widths)
    clean_words, kept = evaluate_words(compiled, pi_words, keep=keep)
    clean_ints = unpack_ints(clean_words, spec.vectors)
    peak = float(2 ** (component.output_width - 1))
    return _Prelude(grid=grid, compiled=compiled, pi_words=pi_words,
                    clean_words=clean_words, clean_ints=clean_ints,
                    kept=kept, peak=peak, points=points,
                    faultloads=faultloads, replays=replays)


def _replay_rows(program, compiled, faultloads, words):
    """Each faultload's replay rows, and the frontier slots the clean
    evaluation keeps for them.

    A point replays the fan-out cone of its faultload rows, the only
    gates its masks can reach (:func:`repro.sta.engine.fanout_rows`;
    timing rows are simulator rows). Points are
    taken in order while the union of their frontiers
    (:func:`repro.sim.logic.cone_frontier`) fits in
    :data:`KEPT_FRONTIER_BYTES` at *words* words a slot; a point that
    does not fit replays every gate, which reads no frontier.
    """
    room = KEPT_FRONTIER_BYTES // (8 * max(words, 1))
    keep = set()
    replays = []
    for load in faultloads:
        rows = fanout_rows(program, load.rows).tolist()
        new = cone_frontier(compiled, rows) - keep
        if len(keep) + len(new) <= room:
            keep |= new
        else:
            rows = list(range(program.n_gates))
        replays.append(rows)
    return replays, keep


def _replay(prelude, index, masks):
    """Packed PO words of the chunk's point *index* under *masks*: a
    replay of its rows over the clean words the prelude kept."""
    rows = prelude.replays[index]
    obs_metrics.inc(obs_metrics.INJECT_REPLAY_OPS, len(rows))
    return replay_words(prelude.compiled, prelude.pi_words, prelude.kept,
                        rows, masks, prelude.clean_words)


# ---------------------------------------------------------------------------
# grid-point worker
# ---------------------------------------------------------------------------

def _quality_row(clean_ints, observed_ints, peak):
    summary = error_summary(clean_ints, observed_ints, peak=peak)
    return {
        "word_error_rate": summary["error_rate"],
        "mean_abs_error": summary["mean_abs_error"],
        "max_abs_error": summary["max_abs_error"],
        "psnr_db": summary["psnr_db"],
    }


def _point_row(spec, prelude, index, masks_iter):
    """The ladder row of the chunk's point *index*: masks -> injected
    replay -> metrics. The point's masks are the next of *masks_iter*
    and are dropped after the replay."""
    started = time.perf_counter()
    point = prelude.points[index]
    faultload = prelude.faultloads[index]
    masks = next(masks_iter)
    injected, faulted = count_mask_bits(masks, spec.vectors)
    if masks:
        observed = unpack_ints(_replay(prelude, index, masks),
                               spec.vectors)
    else:
        observed = prelude.clean_ints
    del masks
    elapsed = time.perf_counter() - started
    if elapsed > 0.0:
        obs_metrics.set_gauge(obs_metrics.INJECT_VECTORS_PER_SEC,
                              spec.vectors / elapsed)
    obs_metrics.inc(obs_metrics.INJECT_VECTORS, spec.vectors)
    obs_metrics.inc(obs_metrics.INJECT_FAULTS, injected)
    obs_metrics.inc(obs_metrics.INJECT_FAULTED_VECTORS, faulted)
    obs_metrics.observe(obs_metrics.INJECT_VIOLATING_FRACTION,
                        faultload.violating_fraction,
                        boundaries=obs_metrics.FRACTION_BOUNDARIES)
    row = point.fields()
    row.update({
        "aged_cp_ps": float(
            prelude.grid.batch.critical_path_ps[point.corner]),
        "violating_gates": faultload.n_violating,
        "total_gates": faultload.n_gates,
        "violating_fraction": faultload.violating_fraction,
        "mean_flip_probability": faultload.mean_flip_probability,
        "injected_faults": int(injected),
        "faults_per_vector": injected / spec.vectors,
        "faulted_vectors": int(faulted),
        "faulted_vector_rate": faulted / spec.vectors,
    })
    row.update(_quality_row(prelude.clean_ints, observed, prelude.peak))
    return row


def _truncated_ints(prelude, precision):
    """Packed replay of the *precision*-truncated circuit.

    Zeroing the tied PI rows is functionally identical to the
    :func:`repro.sta.engine.tie_low` netlist transform (the gates only
    ever see constant 0 on those nets), so the full-precision compiled
    netlist can be reused.
    """
    plan = prelude.grid.plan(precision)
    if plan is None:
        return prelude.clean_ints
    tied = set(plan.tied)
    pi_words = prelude.pi_words.copy()
    for row, net in enumerate(prelude.grid.netlist.primary_inputs):
        if net in tied:
            pi_words[row] = 0
    return unpack_ints(evaluate_words(prelude.compiled, pi_words),
                       len(prelude.clean_ints))


def _approximation(prelude, point, truncated):
    """The approximation arm at one aged grid point: the Eq. 2
    precision at the point's clock and the quality cost of truncating
    the inputs to it (*truncated* memoizes replays by precision)."""
    grid = prelude.grid
    width = grid.component.width
    chosen = grid.deepest_precision(point.corner, point.clock_ps,
                                    range(width, 0, -1))
    entry = point.fields()
    entry.update({
        "feasible": chosen is not None,
        "precision": chosen,
        "dropped_bits": None if chosen is None else width - chosen,
    })
    if chosen is not None:
        entry["aged_cp_ps"] = float(
            grid.critical_paths(chosen)[point.corner])
        if chosen not in truncated:
            truncated[chosen] = _truncated_ints(prelude, chosen)
        entry.update(_quality_row(prelude.clean_ints, truncated[chosen],
                                  prelude.peak))
    return entry


def _inject_points(chunk):
    """Module-level grid worker (shared by every execution path).

    For each point task of *chunk* (see :func:`make_point_tasks`),
    returns ``(ladder row, approximation entry)``; the entry is
    ``None`` at fresh points. The chunk's points share one prelude,
    whose clean evaluation keeps the frontier of every point's cone
    replay, and each gate's fault-mask planes are drawn once for all of
    the chunk's points that find it violating (:func:`point_masks`).
    """
    tasks = chunk["tasks"]
    spec = CampaignSpec.from_dict(tasks[0]["spec"])
    prelude = _build_prelude(
        spec, tasks[0].get("library"),
        [(task["scenario"], task["clock_scale"]) for task in tasks])
    masks_iter = point_masks(prelude.faultloads, spec.seed,
                             prelude.pi_words.shape[1])
    truncated = {}
    results = []
    for index, point in enumerate(prelude.points):
        with obs_trace.span("inject.point", scenario=point.label,
                            clock_scale=point.clock_scale):
            row = _point_row(spec, prelude, index, masks_iter)
        entry = None
        if point.label != "fresh":
            with obs_trace.span("inject.arms", scenario=point.label,
                                clock_scale=point.clock_scale):
                entry = _approximation(prelude, point, truncated)
        results.append((row, entry))
    return results


def _guardbanded(spec, grid):
    """The guardbanded arm: every aged corner clocked at its own aged
    critical path (zero faults by construction, a clock penalty)."""
    entries = []
    for corner, (label, scenario) in enumerate(zip(grid.labels,
                                                   grid.corners)):
        if label == "fresh":
            continue
        aged_cp = float(grid.batch.critical_path_ps[corner])
        faultload = build_faultload(grid.program, grid.batch, label,
                                    aged_cp, activity=spec.activity)
        entries.append({
            "scenario": label,
            "years": float(scenario.years),
            "clock_ps": aged_cp,
            "clock_penalty_pct":
                100.0 * (aged_cp / grid.fresh_clock_ps - 1.0),
            "violating_gates": faultload.n_violating,
            "injected_faults": 0,
            "word_error_rate": 0.0,
        })
    return entries


# ---------------------------------------------------------------------------
# campaign drivers
# ---------------------------------------------------------------------------

def make_point_tasks(spec, library=None):
    """The campaign's task list (scenario major, clock scale minor)."""
    return [{"spec": spec.to_dict(),
             "scenario": corner_label(parse_scenario(text)),
             "clock_scale": float(scale), "library": library}
            for text in spec.scenarios for scale in spec.clock_scales]


def run_campaign(spec, library=None, jobs=None, pool=None):
    """Run one campaign; same spec + seed -> bit-identical result.

    *jobs*/*pool* follow :func:`repro.core.parallel.map_tasks`
    semantics; results do not depend on either (see module doc).
    """
    spec.validated()
    with obs_trace.span("inject.campaign", component=spec.component,
                        scenarios=len(spec.scenarios),
                        clock_scales=len(spec.clock_scales),
                        vectors=spec.vectors):
        started = time.perf_counter()
        # Built before the fan-out, so forked pool workers inherit it.
        grid = timing_grid(spec.component, spec.width, spec.effort,
                       spec.scenarios, library)
        results = map_chunks(_inject_points,
                             make_point_tasks(spec, library=library),
                             jobs=jobs, pool=pool)
        rows = [row for row, __ in results]
        approximation = [entry for __, entry in results
                         if entry is not None]
        with obs_trace.span("inject.arms", component=spec.component):
            guardbanded = _guardbanded(spec, grid)
        obs_metrics.inc(obs_metrics.INJECT_CAMPAIGNS)
        obs_metrics.inc(obs_metrics.INJECT_POINTS, len(rows))
        _log.info(
            "campaign %s: %d points x %d vectors in %.2fs",
            spec.component, len(rows), spec.vectors,
            time.perf_counter() - started)
        return CampaignResult(
            spec=spec, component=grid.component.name,
            gates=grid.program.n_gates, vectors=int(spec.vectors),
            fresh_clock_ps=grid.fresh_clock_ps, labels=grid.labels,
            rows=rows, approximation=approximation, guardbanded=guardbanded)
