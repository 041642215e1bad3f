"""Workload ``paper_idct``: the paper's own pipeline, cold then warm, one
process per repetition.

Why: it is what the paper evaluates (Section V) and what a design-space
search repeats per candidate: characterize components on demand,
remove the guardband of the 32-bit IDCT at 10 years worst case
(reporting 1 year worst case and 10 years balanced), compare against
the aging-aware-synthesis baseline (Fig. 8(c)) and check PSNR on all
nine images (Fig. 8(b)). Every repetition is a fresh process with an
empty cache directory, so in-process memos start cold and the cache is
written, as on a first run (the cold pipeline). The same process then
re-runs the pipeline for other activity seeds on its filled cache and
memos (the warm pipelines), as a search does when it re-evaluates a
design under another workload profile.

End-to-end metrics: ``work_s`` is the wall time of the cold pipeline;
``rate_per_s`` is warm pipelines per second, one over the median warm
pipeline wall. Both are medians over the run's pipelines, each scaled to
the reference host speed (see ``harness.HostSpeed``).

Stresses: synthesis (base, sweep derive, sizing, the hardened
baseline), timing-program compile and batched STA, characterization
and its cache writes (cold) and reads (warm), activity simulation, the
RTL image codec. Bypasses: ``serve``, ``inject`` and ``mc``.

The workload seed picks, per repetition, the seeds of the random
operand stream that drives the activity (dynamic power) of Fig. 8(c),
from the recorded pool in ``expected.json``.
"""

import contextlib
import json
import random
import time

import harness

#: Paper values of Fig. 8 (Amrouch et al., DAC 2017), printed beside the
#: reproduced ones. No silicon reference exists in the repo, so no error
#: figure is derived from them.
PAPER_FIG8 = {
    "mult_precision": 29,
    "psnr_db": {"akiyo": 38, "carphone": 33, "foreman": 30, "grand": 34,
                "miss": 40, "mobile": 28, "mother": 38, "salesman": 36,
                "suzie": 36},
    "ratios": {"frequency": 1.11, "leakage": 0.86, "dynamic": 0.96,
               "energy": 0.87, "area": 0.87},
}

#: Fig. 8(c) ratios that depend on the activity operands.
SEEDED_RATIOS = ("dynamic", "energy")

#: Warm pipelines per repetition, about 0.5 s each on a 2-vCPU VM. A
#: repetition's cold pipeline takes about 3 s and varies far more from
#: process to process, so the run goes to as many repetitions as fit.
WARM_PIPELINES = 1

#: Host-speed kernel runs after each pipeline (timed runs only).
KERNEL_REPEAT = 2

#: A repetition that outlives this is a hang, not a slow run.
REP_TIMEOUT_S = 150.0
#: A set-up-only child exits right after ``ready``. One follows each
#: repetition, so ``setup_s`` is a median over twice as many spawns,
#: spread through the run.
READY_WAIT_S = 30.0


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

def child_setup(config):
    import repro
    from repro.core import cache as cache_mod
    return {"repro": repro, "cache_mod": cache_mod,
            "library": repro.default_library()}


def psnr_check(precision, size=64):
    """Fig. 8(b): fresh vs approximated PSNR of every image."""
    from repro.approx import ComponentArithmetic
    from repro.media import IMAGE_NAMES, TransformCodec, make_image
    from repro.quality import psnr_db
    from repro.rtl import Multiplier

    arithmetic = ComponentArithmetic(
        mul_component=Multiplier(32, precision=precision))
    out = {}
    for name in IMAGE_NAMES:
        image = make_image(name, size)
        fresh = psnr_db(image, TransformCodec().roundtrip(image))
        approx = psnr_db(image, TransformCodec(
            decode_arithmetic=arithmetic).roundtrip(image))
        out[name] = [fresh, approx]
    return out


def pipeline(repro, library, activity_seed):
    """The four steps; returns every output the correctness gate checks."""
    from repro.obs import trace as obs_trace

    with obs_trace.span("bench.idct_microarchitecture"):
        micro = repro.idct_microarchitecture(width=32)
    with obs_trace.span("bench.remove_guardband"):
        report = repro.remove_guardband(
            micro, library, repro.worst_case(10),
            report_scenarios=[repro.worst_case(1), repro.balance_case(10)],
            approx_library=repro.AgingApproximationLibrary(), jobs=1)
    with obs_trace.span("bench.compare_with_baseline"):
        comparison = repro.compare_with_baseline(
            micro, report.outcome, library, repro.worst_case(10),
            rng_seed=activity_seed)
    precision = report.outcome.decisions["mult"].chosen_precision
    with obs_trace.span("bench.psnr_check"):
        psnr = psnr_check(precision)
    return {
        "precisions": {name: d.chosen_precision
                       for name, d in report.outcome.decisions.items()},
        "constraint_ps": report.constraint_ps,
        "original_ps": report.original_delays_ps,
        "approximated_ps": report.approximated_delays_ps,
        "ratios": comparison.ratios,
        "psnr_db": psnr,
    }


def child_work(state, config):
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    traced = config["trace"]
    if traced:
        harness.wrap_in_spans()
    with contextlib.ExitStack() as stack:
        stack.enter_context(state["cache_mod"].cache_enabled(
            config["cache_dir"]))
        tracer = stack.enter_context(obs_trace.capture()) if traced else None
        registry = stack.enter_context(obs_metrics.scoped()) \
            if traced else None
        # The first pipeline is cold; then the same process re-runs it
        # warm, for other activity seeds, on its filled cache and memos.
        # The host-speed kernel runs before and after each one, outside
        # its time.
        values, walls, peaks = [], [], []
        speed = harness.HostSpeed(
            lambda: harness.run_kernel(KERNEL_REPEAT, peaks))
        if not traced:
            speed.mark()
        for seed in config["activity_seeds"]:
            t0 = time.perf_counter()
            with obs_trace.span("bench.unit"):
                values.append(pipeline(state["repro"], state["library"],
                                       seed))
            walls.append(time.perf_counter() - t0)
            if not traced:
                speed.unit()
    scaled = [wall * factor for wall, factor in zip(walls, speed.factors())]
    result = {"values": values, "pipeline_s": walls[0],
              "warm_walls": walls[1:], "scaled_walls": scaled,
              "kernel_walls": speed.walls,
              "peak_rss_mb": max(peaks + [harness.self_peak_rss_mb()])}
    if traced:
        result["trace"] = tracer.to_dicts()
        result["metrics"] = registry.snapshot()
    return result


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def expected_values(expected, activity_seed):
    """The recorded outputs for one activity seed."""
    table = expected["paper_idct"]
    values = json.loads(json.dumps(table["common"]))
    values["ratios"].update(table["by_activity_seed"][str(activity_seed)])
    return values


def mismatches(values, expected, activity_seed):
    """Names of the output groups that differ from the recorded ones."""
    want = expected_values(expected, activity_seed)
    got = json.loads(json.dumps(values))
    return sorted(key for key in want
                  if harness.canonical(got.get(key))
                  != harness.canonical(want[key]))


def fig8_table(values):
    """Reproduced Fig. 8 values beside the paper's."""
    rows = ["Fig. 8 (paper vs reproduced; model unvalidated, no error "
            "figure)",
            "  (a) IDCT multiplier precision: paper %d/32, reproduced "
            "%d/32" % (PAPER_FIG8["mult_precision"],
                       values["precisions"]["mult"]),
            "  (a) constraint %.2f ps; scenario: original -> approximated"
            % values["constraint_ps"]]
    for label, orig in values["original_ps"].items():
        rows.append("      %-12s %8.2f ps -> %8.2f ps"
                    % (label, orig, values["approximated_ps"][label]))
    rows.append("  (b) image       paper   reproduced (approximated PSNR, "
                "dB)")
    for name, (__fresh, approx) in values["psnr_db"].items():
        rows.append("      %-10s %6d %10.2f"
                    % (name, PAPER_FIG8["psnr_db"][name], approx))
    rows.append("  (c) ratio       paper   reproduced (ours / baseline)")
    for key, paper in PAPER_FIG8["ratios"].items():
        rows.append("      %-10s %6.2f %10.3f"
                    % (key, paper, values["ratios"][key]))
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def measure(ctx):
    """Repeat the cold and warm pipelines in fresh processes for
    ``ctx.seconds``; a repetition is not started unless one as long as
    the median so far still fits.

    ``work_s`` is the median cold wall and ``rate_per_s`` one over the
    median warm wall, each pipeline scaled to the reference host speed
    by the kernel runs near it (:class:`harness.HostSpeed`);
    ``setup_s`` is the median spawn, scaled by the run's median kernel
    wall.

    In the traced run, repetitions alternate untraced / traced, so the
    tracing overhead is the difference of their median cold walls.
    """
    pool = sorted(int(s) for s in
                  ctx.expected["paper_idct"]["by_activity_seed"])
    rng = random.Random(ctx.seed)
    min_reps = 2 if ctx.trace else 1
    setup, cold, warm, kernel_walls, rss, imports, took = \
        [], [], [], [], [], [], []
    untraced_walls, traced_walls = [], []
    attribution = harness.Attribution()
    reps = attempted = failed = 0
    last_values = None
    deadline = time.monotonic() + ctx.seconds
    while reps < min_reps or (
            time.monotonic() + harness.median(took) < deadline):
        started = time.monotonic()
        seeds = rng.sample(pool, WARM_PIPELINES + 1)
        traced = bool(ctx.trace) and reps % 2 == 1
        tag = "rep%d" % reps
        reps += 1
        config = {"cache_dir": str(ctx.work / ("cache-" + tag)),
                  "activity_seeds": seeds, "trace": traced,
                  "out": str(ctx.work / (tag + ".json"))}
        child = harness.spawn_worker("paper_idct", config,
                                     ctx.work / (tag + ".stderr"))
        child.wait(REP_TIMEOUT_S)
        with open(config["out"]) as handle:
            result = json.load(handle)
        if not ctx.trace:
            spare = harness.spawn_worker("paper_idct", {"setup_only": True},
                                         ctx.work / (tag + "-setup.stderr"))
            spare.wait(READY_WAIT_S)
            setup.append(spare.setup_s)
        took.append(time.monotonic() - started)
        attempted += len(result["values"])
        wrong = [(seed, mismatches(values, ctx.expected, seed))
                 for seed, values in zip(seeds, result["values"])]
        wrong = [(seed, groups) for seed, groups in wrong if groups]
        if wrong:
            failed += len(wrong)
            for seed, groups in wrong:
                ctx.log("paper_idct %s: outputs for activity seed %d "
                        "differ from the recorded values in %s"
                        % (tag, seed, ", ".join(groups)))
            continue
        last_values = result["values"][0]
        imports.append(result["import_s"])
        if traced:
            traced_walls.append(result["pipeline_s"])
            attribution.add_spans(harness.flatten(result["trace"]))
            attribution.add_counters(result["metrics"])
            attribution.add_unit(result["pipeline_s"]
                                 + sum(result["warm_walls"]))
            continue
        ctx.log("paper_idct %s: cold %.3f s, warm %s s" % (
            tag, result["pipeline_s"],
            " ".join("%.3f" % w for w in result["warm_walls"])))
        untraced_walls.append(result["pipeline_s"])
        setup.append(child.setup_s)
        cold.append(result["scaled_walls"][0])
        warm.extend(result["scaled_walls"][1:])
        kernel_walls.extend(result["kernel_walls"])
        rss.append(result["peak_rss_mb"])

    if last_values is not None:
        ctx.say(fig8_table(last_values))
    if ctx.trace:
        metrics = attribution.metrics() if attribution.units else {}
        if imports:
            metrics["import.s"] = (harness.median(imports), "s")
        if traced_walls and untraced_walls:
            metrics["trace.overhead_s"] = (
                harness.median(traced_walls)
                - harness.median(untraced_walls), "s")
    elif not untraced_walls:
        metrics = {}
    else:
        ctx.log("paper_idct samples:")
        harness.describe(ctx.log, "setup", setup)
        harness.describe(ctx.log, "cold", untraced_walls)
        harness.describe(ctx.log, "kernel", kernel_walls)
        harness.describe(ctx.log, "cold scaled", cold)
        harness.describe(ctx.log, "warm scaled", warm)
        metrics = {
            "setup_s": (harness.host_scale(kernel_walls)
                        * harness.median(setup), "s"),
            "peak_rss_mb": (harness.median(rss), "MB"),
            "work_s": (harness.median(cold), "s"),
            "rate_per_s": (1.0 / harness.median(warm), "1/s"),
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}
