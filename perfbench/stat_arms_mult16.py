"""Workload ``stat_arms_mult16``: the two statistical arms, one process.

Why: a sensitivity study of the paper's argument reruns fault-injection
campaigns (``run_campaign``) and Monte Carlo yield analyses (``run_mc``)
on one component, changing only the seed and the clock grid. The runs
share component (mult16), effort and scenarios, so most of their set-up
is common work that is redone today: every new spec rebuilds its
prelude (netlist lowering, batched STA, stimulus, clean outputs).

Stresses: packed fault injection and mask sampling, sample-axis STA,
yield curves, and synthesis: every run's prelude calls the unmemoized
``synthesize_netlist``, so each campaign and each Monte Carlo run
synthesizes mult16 afresh and both end-to-end figures include one
synthesis per run. Bypasses ``serve`` and the characterization result
cache.

Each round runs one campaign and one Monte Carlo analysis from the
recorded pool in ``expected.json``: 2 scenarios x 2 clocks each, in an
order the workload seed chooses (see :func:`plan`). The first round is
an untimed warm-up that pays the process's first-use costs (lazy
imports and first-touch memos). Every
result's ``to_dict()`` must hash to the recorded digest.

End-to-end metrics: ``rate_per_s`` is campaign vectors x grid points
per second of a timed campaign, and ``work_s`` the wall time of one
timed Monte Carlo run (2000 samples x 4 grid points); both are medians
over the timed rounds, each round scaled to the reference host speed
(see ``harness.HostSpeed``).
"""

import contextlib
import hashlib
import json
import random
import time

import harness

SCENARIOS = ("worst1y", "worst10y")
EFFORT = "high"
#: Clock grids of the pool; every grid has two points.
GRIDS = ((1.0, 0.95), (1.0, 0.9), (0.98, 0.94), (0.97, 0.92),
         (1.0, 0.97), (0.96, 0.9), (0.99, 0.93), (0.95, 0.91))
SIZES = {
    "full": {"pool": 24, "vectors": 1 << 19, "samples": 2000},
    "tiny": {"pool": 4, "vectors": 4096, "samples": 128},
}
#: Host-speed kernel runs after each round (timed runs only).
KERNEL_REPEAT = 4
#: Set-up-only spawns before and again after the work process.
SETUP_SPAWNS = 4
#: A set-up-only child exits right after ``ready``.
READY_WAIT_S = 30.0
#: The work process gets this long beyond ``--seconds`` to finish.
GRACE_S = 120.0


def pool_specs(size):
    """The recorded pool: ``(campaign spec dicts, mc spec dicts)``."""
    params = SIZES[size]
    campaigns = [{"component": "mult16", "scenarios": list(SCENARIOS),
                  "clock_scales": list(GRIDS[i % len(GRIDS)]),
                  "vectors": params["vectors"], "seed": 1000 + i,
                  "effort": EFFORT}
                 for i in range(params["pool"])]
    mcs = [{"component": "mult16", "scenarios": list(SCENARIOS),
            "clock_scales": list(GRIDS[(i + 3) % len(GRIDS)]),
            "samples": params["samples"], "seed": 2000 + i,
            "effort": EFFORT}
           for i in range(params["pool"])]
    return campaigns, mcs


def digest(result_dict):
    """SHA-256 of a result's canonical JSON form."""
    text = harness.canonical(json.loads(json.dumps(result_dict)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def grid_points(spec):
    return len(spec["scenarios"]) * len(spec["clock_scales"])


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------

def child_setup(config):
    from repro.cells import default_library
    from repro.inject import CampaignSpec, run_campaign
    from repro.mc import MCSpec, run_mc
    return {"library": default_library(), "CampaignSpec": CampaignSpec,
            "run_campaign": run_campaign, "MCSpec": MCSpec, "run_mc": run_mc}


def run_round(state, campaign, mc):
    """One campaign and one MC analysis; returns their records."""
    from repro.obs import trace as obs_trace

    records = []
    for kind, spec in (("inject", campaign), ("mc", mc)):
        t0 = time.perf_counter()
        if kind == "inject":
            with obs_trace.span("bench.run_campaign"):
                result = state["run_campaign"](
                    state["CampaignSpec"].from_dict(spec), jobs=1)
            work = spec["vectors"] * grid_points(spec)
        else:
            with obs_trace.span("bench.run_mc"):
                result = state["run_mc"](state["MCSpec"].from_dict(spec),
                                         jobs=1)
            work = spec["samples"] * grid_points(spec)
        wall = time.perf_counter() - t0
        records.append({"kind": kind, "seed": spec["seed"], "wall": wall,
                        "work": work, "digest": digest(result.to_dict())})
    return records


def child_work(state, config):
    """Rounds until the deadline; the first is the warm-up. In the traced
    run, timed rounds alternate untraced / traced."""
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    if config["trace"]:
        harness.wrap_in_spans()
    deadline = time.monotonic() + config["seconds"]
    min_rounds = 3 if config["trace"] else 2
    rounds, peaks = [], []
    # Timed runs scale each round by the host-speed kernel runs near it.
    speed = harness.HostSpeed(lambda: harness.run_kernel(KERNEL_REPEAT,
                                                         peaks))
    if not config["trace"]:
        speed.mark()
    for index, (campaign, mc) in enumerate(config["rounds"]):
        # A round is not started unless one as long as the median timed
        # round so far still fits.
        if index >= min_rounds and time.monotonic() + harness.median(
                r["wall"] for r in rounds[1:]) >= deadline:
            break
        traced = config["trace"] and index % 2 == 0 and index > 0
        with contextlib.ExitStack() as stack:
            tracer = stack.enter_context(obs_trace.capture()) \
                if traced else None
            registry = stack.enter_context(obs_metrics.scoped()) \
                if traced else None
            t0 = time.perf_counter()
            with obs_trace.span("bench.unit"):
                records = run_round(state, campaign, mc)
            wall = time.perf_counter() - t0
        entry = {"records": records, "wall": wall, "traced": traced,
                 "warmup": index == 0,
                 "unit": None if config["trace"] else speed.unit()}
        if traced:
            entry["spans"] = harness.flatten(tracer.to_dicts())
            entry["metrics"] = registry.snapshot()
        rounds.append(entry)
    factors = speed.factors()
    for entry in rounds:
        entry["scale"] = None if entry["unit"] is None \
            else factors[entry["unit"]]
    return {"rounds": rounds, "kernel_walls": speed.walls,
            "peak_rss_mb": max(peaks + [harness.self_peak_rss_mb()])}


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

def plan(size, seed):
    """The round sequence, chosen by *seed*.

    Clock grids come round-robin in a seeded order, so every stretch of
    ``len(GRIDS)`` rounds covers each grid once whatever the seed; each
    grid's pool entries are taken in a seeded order, without repeats
    until the pool is used up. The warm-up round runs the sequence's
    last pair.
    """
    campaigns, mcs = pool_specs(size)
    rng = random.Random(seed)

    def balanced(specs, offset):
        by_grid = {}
        for i, spec in enumerate(specs):
            by_grid.setdefault((i + offset) % len(GRIDS), []).append(spec)
        for entries in by_grid.values():
            rng.shuffle(entries)
        order = rng.sample(sorted(by_grid), len(by_grid))
        passes = max(len(entries) for entries in by_grid.values())
        return [by_grid[g][p] for p in range(passes) for g in order
                if p < len(by_grid[g])]

    rounds = list(zip(balanced(campaigns, 0), balanced(mcs, 3)))
    return [rounds[-1]] + rounds

def measure(ctx):
    recorded = ctx.expected["stat_arms_mult16"][ctx.size]
    want = {("inject", e["spec"]["seed"]): e["digest"]
            for e in recorded["campaigns"]}
    want.update({("mc", e["spec"]["seed"]): e["digest"]
                 for e in recorded["mc"]})

    setup = []

    def spare_setups(tag):
        for i in range(SETUP_SPAWNS):
            child = harness.spawn_worker(
                "stat_arms_mult16", {"setup_only": True},
                ctx.work / ("setup-%s%d.stderr" % (tag, i)))
            child.wait(READY_WAIT_S)
            setup.append(child.setup_s)

    started = time.monotonic()
    spare_setups("before")
    # The set-up spawns after the work process take about as long as
    # those before; the work process gets the rest of ``ctx.seconds``.
    seconds = max(1.0, ctx.seconds - 2 * (time.monotonic() - started))

    config = {"rounds": plan(ctx.size, ctx.seed), "seconds": seconds,
              "trace": ctx.trace, "out": str(ctx.work / "arms.json")}
    child = harness.spawn_worker("stat_arms_mult16", config,
                                 ctx.work / "arms.stderr")
    setup.append(child.setup_s)
    child.wait(seconds + GRACE_S)
    with open(config["out"]) as handle:
        result = json.load(handle)
    spare_setups("after")

    attempted = failed = 0
    rates, mc_walls = [], []
    untraced_walls, traced_walls = [], []
    attribution = harness.Attribution()
    preludes = synth_runs = runs = 0
    for entry in result["rounds"]:
        bad = 0
        for record in entry["records"]:
            attempted += 1
            if want.get((record["kind"], record["seed"])) \
                    != record["digest"]:
                bad += 1
                ctx.log("stat_arms_mult16: %s seed %d differs from the "
                        "recorded result" % (record["kind"],
                                             record["seed"]))
        failed += bad
        if bad or entry["warmup"]:
            continue
        if entry["traced"]:
            traced_walls.append(entry["wall"])
            spans = entry["spans"]
            attribution.add_spans(spans)
            attribution.add_counters(entry["metrics"])
            attribution.add_unit(entry["wall"])
            preludes += sum(1 for s in spans
                            if s["name"].endswith("_prelude"))
            synth_runs += entry["metrics"]["counters"].get("synth.runs", 0)
            runs += len(entry["records"])
            continue
        untraced_walls.append(entry["wall"])
        for record in entry["records"]:
            scaled = record["wall"] * (entry["scale"] or 1.0)
            if record["kind"] == "inject":
                rates.append(record["work"] / scaled)
            else:
                mc_walls.append(scaled)

    if not ctx.trace:
        # Medians over the timed runs, so one disturbed run cannot move
        # them; the grid-balanced plan gives every seed the same mix.
        # Times are scaled to the reference host speed.
        metrics = {}
        if rates:
            ctx.log("stat_arms_mult16 samples:")
            harness.describe(ctx.log, "setup", setup)
            harness.describe(ctx.log, "round", untraced_walls)
            harness.describe(ctx.log, "kernel", result["kernel_walls"])
            harness.describe(ctx.log, "mc scaled", mc_walls)
            harness.describe(ctx.log, "inject scaled", rates)
            metrics = {
                "setup_s": (harness.host_scale(result["kernel_walls"])
                            * harness.median(setup), "s"),
                "peak_rss_mb": (result["peak_rss_mb"], "MB"),
                "work_s": (harness.median(mc_walls), "s"),
                "rate_per_s": (harness.median(rates), "1/s"),
            }
    else:
        metrics = attribution.metrics() if attribution.units else {}
        metrics["import.s"] = (result["import_s"], "s")
        if runs:
            metrics["stat.synth_runs_per_campaign"] = (synth_runs / runs,
                                                       "ratio")
            metrics["stat.preludes_per_run"] = (preludes / runs, "ratio")
        if traced_walls and untraced_walls:
            metrics["trace.overhead_s"] = (
                harness.median(traced_walls)
                - harness.median(untraced_walls), "s")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}

