"""Campaign runner: clock x lifetime x stress fault-injection grids.

A campaign quantifies the paper's baseline question — what happens to a
guardband-free circuit that keeps its fresh clock while aging, *without*
approximation — and puts the answer next to the two alternatives:

* **guardband-free + faults** — the error-rate ladder. Every grid
  point ``(scenario, clock scale)`` derives a faultload from batched
  STA arrivals (:mod:`repro.inject.faultload`), samples per-gate XOR
  masks (:mod:`repro.inject.masks`) and replays the packed stimulus
  through the packed evaluator with those masks
  (:func:`repro.sim.logic.evaluate_words`).
* **guardband-free + aging-induced approximation** — the paper's
  answer: the deepest precision whose *aged* critical path still meets
  the same clock (found with cone-restricted incremental STA), with
  the deterministic quality cost of truncating those inputs.
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
   (:func:`_inject_point`) on inputs re-derived deterministically from
   the spec; serial and pooled paths run the identical float
   operations in the identical order.
3. :func:`repro.core.parallel.map_tasks` returns results in task
   order, and task order is a pure function of the spec (scenario
   major, clock scale minor).
"""

import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..cells.library import default_library
from ..core.cache import memoized_prelude, synthesize_netlist_memoized
from ..core.parallel import map_tasks
from ..core.specs import (GridSpec, SpecError, corner_grid,
                          parse_component, parse_scenario)
from ..obs import logs, metrics as obs_metrics, trace as obs_trace
from ..quality.metrics import error_summary
from ..sim.activity import operand_stream_words
from ..sim.bitpack import unpack_ints
from ..sim.logic import compile_netlist, evaluate_words
from ..sim.stimuli import STIMULUS_NAMES, make_stimulus
from ..sta.engine import (analyze_batch, analyze_incremental, compile_timing,
                          corner_label, truncated_input_nets)
from .faultload import DEFAULT_ACTIVITY, build_faultload
from .inject_sim import check_alignment, count_mask_bits

_log = logs.get_logger("inject.campaign")


def component_spec(component):
    """The registry spelling of a component instance (inverse of
    :func:`repro.core.specs.parse_component`, width passed separately)."""
    from ..core.specs import component_registry
    for name, cls in component_registry().items():
        if type(component) is cls:
            return name
    raise SpecError("component %s has no registry spelling"
                    % getattr(component, "name", type(component).__name__))


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
class CampaignResult:
    """Ladder + comparison arms of one campaign.

    Everything here is deterministic given the spec (no wall-clock
    fields), so equality of ``to_dict()`` outputs *is* the
    reproducibility check the determinism tests perform.
    """

    spec: CampaignSpec
    component: str
    gates: int
    vectors: int
    fresh_clock_ps: float
    labels: Tuple[str, ...]
    rows: list = field(default_factory=list)
    approximation: list = field(default_factory=list)
    guardbanded: list = field(default_factory=list)

    def to_dict(self):
        return {
            "schema": "repro.inject/1",
            "spec": self.spec.to_dict(),
            "component": self.component,
            "gates": int(self.gates),
            "vectors": int(self.vectors),
            "fresh_clock_ps": float(self.fresh_clock_ps),
            "labels": list(self.labels),
            "rows": self.rows,
            "approximation": self.approximation,
            "guardbanded": self.guardbanded,
        }


# ---------------------------------------------------------------------------
# per-process prelude (synthesis + STA + clean reference outputs)
# ---------------------------------------------------------------------------

@dataclass
class _Prelude:
    component: object
    netlist: object
    compiled: object
    program: object
    corners: tuple
    labels: tuple
    batch: object
    fresh_clock_ps: float
    pi_words: np.ndarray
    clean_ints: np.ndarray
    peak: float
    library: object


_PRELUDE_MEMO = {}


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


def _build_prelude(spec, library):
    component = parse_component(spec.component, width=spec.width)
    lib = library if library is not None else default_library()
    netlist = synthesize_netlist_memoized(component, lib, effort=spec.effort)
    compiled = compile_netlist(netlist, lib)
    program = compile_timing(netlist, lib)
    check_alignment(compiled, program)
    corners, labels = corner_grid(spec.scenarios)
    batch = analyze_batch(netlist, lib, corners, program=program)
    fresh_clock = float(batch.critical_path_ps[0])
    operands = _stimulus_operands(spec, component)
    # Stimulus stays packed from operands to metrics: a (vectors, n_pi)
    # byte matrix (and its transposes) would dominate peak memory.
    pi_words = operand_stream_words(operands, component.operand_widths)
    clean_ints = unpack_ints(evaluate_words(compiled, pi_words),
                             spec.vectors)
    peak = float(2 ** (component.output_width - 1))
    return _Prelude(component=component, netlist=netlist, compiled=compiled,
                    program=program, corners=corners, labels=labels,
                    batch=batch, fresh_clock_ps=fresh_clock,
                    pi_words=pi_words, clean_ints=clean_ints, peak=peak,
                    library=lib)


def _prelude(spec, library=None):
    """Per-process memoized prelude (see
    :func:`repro.core.cache.memoized_prelude`)."""
    return memoized_prelude(_PRELUDE_MEMO, spec, library, _build_prelude)


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


def _point_row(spec, prelude, scenario_label, clock_scale):
    """One ladder row: faultload -> masks -> injected replay -> metrics."""
    clock_ps = prelude.fresh_clock_ps * float(clock_scale)
    corner = prelude.labels.index(scenario_label)
    scenario = prelude.corners[corner]
    faultload = build_faultload(prelude.program, prelude.batch,
                                scenario_label, clock_ps,
                                activity=spec.activity)
    started = time.perf_counter()
    masks = faultload.masks(spec.seed, prelude.pi_words.shape[1])
    injected, faulted = count_mask_bits(masks, spec.vectors)
    if masks:
        observed = unpack_ints(
            evaluate_words(prelude.compiled, prelude.pi_words, masks),
            spec.vectors)
    else:
        observed = prelude.clean_ints
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
    row = {
        "scenario": scenario_label,
        "years": float(scenario.years),
        "clock_scale": float(clock_scale),
        "clock_ps": clock_ps,
        "aged_cp_ps": float(prelude.batch.critical_path_ps[corner]),
        "violating_gates": faultload.n_violating,
        "total_gates": faultload.n_gates,
        "violating_fraction": faultload.violating_fraction,
        "mean_flip_probability": faultload.mean_flip_probability,
        "injected_faults": int(injected),
        "faults_per_vector": injected / spec.vectors,
        "faulted_vectors": int(faulted),
        "faulted_vector_rate": faulted / spec.vectors,
    }
    row.update(_quality_row(prelude.clean_ints, observed, prelude.peak))
    return row


def _inject_point(task):
    """Module-level grid-point worker (shared by every execution path):
    the ladder row of one ``(scenario, clock scale)`` point."""
    spec = CampaignSpec.from_dict(task["spec"])
    with obs_trace.span("inject.point", scenario=task["scenario"],
                        clock_scale=task["clock_scale"]):
        prelude = _prelude(spec, library=task.get("library"))
        return _point_row(spec, prelude, task["scenario"],
                          task["clock_scale"])


# ---------------------------------------------------------------------------
# comparison arms
# ---------------------------------------------------------------------------

def _approximation_cp(prelude, precision):
    """Aged CPs (all corners) of the component truncated to *precision*."""
    tied = truncated_input_nets(prelude.component, prelude.netlist, precision)
    if not tied:
        return prelude.batch.critical_paths_ps
    report = analyze_incremental(prelude.netlist, prelude.library, tied,
                                 baseline=prelude.batch,
                                 program=prelude.program)
    return report.critical_paths_ps


def _truncated_ints(prelude, precision):
    """Packed replay of the *precision*-truncated circuit.

    Zeroing the tied PI rows is functionally identical to the
    :func:`repro.sta.engine.tie_low` netlist transform (the gates only
    ever see constant 0 on those nets), so the full-precision compiled
    netlist can be reused.
    """
    tied = set(truncated_input_nets(prelude.component, prelude.netlist,
                                    precision))
    if not tied:
        return prelude.clean_ints
    pi_words = prelude.pi_words.copy()
    for row, net in enumerate(prelude.netlist.primary_inputs):
        if net in tied:
            pi_words[row] = 0
    return unpack_ints(evaluate_words(prelude.compiled, pi_words),
                       len(prelude.clean_ints))


def _arms(spec, prelude):
    """The two alternatives next to the fault ladder (see module doc)."""
    width = prelude.component.width
    cp_by_precision = {}
    approximation = []
    truncated_cache = {}
    for label, scenario in zip(prelude.labels, prelude.corners):
        if label == "fresh":
            continue
        corner = prelude.labels.index(label)
        for scale in spec.clock_scales:
            clock_ps = prelude.fresh_clock_ps * float(scale)
            chosen = None
            for precision in range(width, 0, -1):
                if precision not in cp_by_precision:
                    cp_by_precision[precision] = _approximation_cp(
                        prelude, precision)
                if cp_by_precision[precision][corner] <= clock_ps:
                    chosen = precision
                    break
            entry = {
                "scenario": label,
                "years": float(scenario.years),
                "clock_scale": float(scale),
                "clock_ps": clock_ps,
                "feasible": chosen is not None,
                "precision": chosen,
                "dropped_bits": None if chosen is None else width - chosen,
            }
            if chosen is not None:
                entry["aged_cp_ps"] = float(cp_by_precision[chosen][corner])
                if chosen not in truncated_cache:
                    truncated_cache[chosen] = _truncated_ints(prelude, chosen)
                entry.update(_quality_row(prelude.clean_ints,
                                          truncated_cache[chosen],
                                          prelude.peak))
            approximation.append(entry)
    guardbanded = []
    for label, scenario in zip(prelude.labels, prelude.corners):
        if label == "fresh":
            continue
        corner = prelude.labels.index(label)
        aged_cp = float(prelude.batch.critical_path_ps[corner])
        faultload = build_faultload(prelude.program, prelude.batch, label,
                                    aged_cp, activity=spec.activity)
        guardbanded.append({
            "scenario": label,
            "years": float(scenario.years),
            "clock_ps": aged_cp,
            "clock_penalty_pct":
                100.0 * (aged_cp / prelude.fresh_clock_ps - 1.0),
            "violating_gates": faultload.n_violating,
            "injected_faults": 0,
            "word_error_rate": 0.0,
        })
    return approximation, guardbanded


# ---------------------------------------------------------------------------
# campaign drivers
# ---------------------------------------------------------------------------

def make_point_tasks(spec, library=None):
    """The campaign's task list (scenario major, clock scale minor)."""
    ladder_labels = [corner_label(parse_scenario(s)) for s in spec.scenarios]
    tasks = []
    for label in ladder_labels:
        for scale in spec.clock_scales:
            tasks.append({"spec": spec.to_dict(), "scenario": label,
                          "clock_scale": float(scale),
                          "library": library})
    return tasks


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
        tasks = make_point_tasks(spec, library=library)
        rows = map_tasks(_inject_point, tasks, jobs=jobs, pool=pool)
        prelude = _prelude(spec, library=library)
        with obs_trace.span("inject.arms", component=spec.component):
            approximation, guardbanded = _arms(spec, prelude)
        obs_metrics.inc(obs_metrics.INJECT_CAMPAIGNS)
        obs_metrics.inc(obs_metrics.INJECT_POINTS, len(rows))
        _log.info(
            "campaign %s: %d points x %d vectors in %.2fs",
            spec.component, len(rows), spec.vectors,
            time.perf_counter() - started)
        return CampaignResult(
            spec=spec, component=prelude.component.name,
            gates=prelude.program.n_gates, vectors=int(spec.vectors),
            fresh_clock_ps=prelude.fresh_clock_ps, labels=prelude.labels,
            rows=rows, approximation=approximation, guardbanded=guardbanded)
