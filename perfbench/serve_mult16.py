"""Workload ``serve_mult16``: the served query path, closed loop.

Why: design-space searches and CI shards query a shared
characterization service and each waits for its reply, so the load is a
closed loop: two keep-alive clients in the benchmark process against
``repro serve --jobs 1``. Each cycle starts a fresh server on an empty
cache and runs two phases:

* ``fill``: a cold population of mult16 characterize points (precision
  x lifetime) plus a few small ``/v1/inject`` and ``/v1/mc`` specs, every
  request sent once by each client. Compute plus cache writes; the
  repeated stat-arm specs are recomputed, because those routes have no
  result cache or single-flight dedup.
* ``warm``: after an untimed warm-up, a seeded zipf replay of the same
  characterize points. Every request is a memory-tier read, so this
  phase measures only the server, its protocol and the cache read path
  and bypasses synthesis and STA.

End-to-end metrics: ``work_s`` is the median wall time of the fill
phase and ``rate_per_s`` the median warm-phase requests per second of a
window (8000 requests), each fill and window scaled to the reference
host speed (see ``harness.HostSpeed``); the warm latency quantiles are
per-layer figures of the traced run.

The workload seed drives the fill order, the zipf schedules and the
campaign and Monte Carlo seeds. Every response must equal a direct
``characterize()`` / ``run_campaign()`` / ``run_mc()`` result, and any
non-200 answer counts as a failed operation.
"""

import asyncio
import contextlib
import json
import random
import sys
import time

import harness

EFFORT = "high"

SIZES = {
    "full": {"precisions": tuple(range(16, 0, -1)),
             "lifetimes": ("worst1y", "worst10y"),
             "inject_specs": 1, "inject_vectors": 16384,
             "mc_specs": 1, "mc_samples": 256,
             "warmup_requests": 200, "warm_windows": 1,
             "warm_requests": 4000},
    "tiny": {"precisions": (16, 15, 14), "lifetimes": ("worst10y",),
             "inject_specs": 1, "inject_vectors": 1024,
             "mc_specs": 1, "mc_samples": 64,
             "warmup_requests": 20, "warm_windows": 2,
             "warm_requests": 50},
}

#: Zipf exponent of the warm replay (hot head, long tail).
ZIPF_SKEW = 1.1
LANES = 2
SHUTDOWN_TIMEOUT_S = 60.0
#: Host-speed kernel runs on each core before and after each fill and
#: each warm window (timed runs only): the clients keep the benchmark's
#: core busy as the server keeps the measured one.
KERNEL_REPEAT = 1


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def build_inputs(size, seed):
    """The fill list and the per-lane warm schedules, all from *seed*.

    Entries are ``(kind, payload)`` with kind ``characterize``,
    ``inject`` or ``mc``.
    """
    params = SIZES[size]
    rng = random.Random(seed)
    points = [{"component": "mult16", "precisions": [p], "scenarios": [life],
               "effort": EFFORT}
              for life in params["lifetimes"] for p in params["precisions"]]
    fill = [("characterize", q) for q in points]
    rng.shuffle(fill)
    stat = [("inject", {"component": "mult16",
                        "scenarios": ["fresh", "worst10y"],
                        "clock_scales": [1.0],
                        "vectors": params["inject_vectors"],
                        "seed": rng.randrange(1, 1 << 31),
                        "effort": EFFORT})
            for __ in range(params["inject_specs"])]
    stat += [("mc", {"component": "mult16", "scenarios": ["worst10y"],
                     "clock_scales": [1.0, 0.97],
                     "samples": params["mc_samples"],
                     "sweep_bits": 4,
                     "seed": rng.randrange(1, 1 << 31),
                     "effort": EFFORT})
             for __ in range(params["mc_specs"])]
    step = max(1, len(fill) // (len(stat) + 1))
    for i, entry in enumerate(stat):
        fill.insert((i + 1) * step + i, entry)

    weights = [rank ** -ZIPF_SKEW for rank in range(1, len(points) + 1)]
    hot = list(points)
    rng.shuffle(hot)

    def schedule(n):
        return [("characterize", q) for q in
                rng.choices(hot, weights=weights, k=n)]

    warmup = [schedule(params["warmup_requests"]) for __ in range(LANES)]
    warm = [[schedule(params["warm_requests"]) for __ in range(LANES)]
            for __ in range(params["warm_windows"])]
    return {"points": points, "fill": fill, "warmup": warmup, "warm": warm}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def answer(kind, reply):
    """The part of a served reply that must equal the direct result."""
    if kind == "inject":
        return reply["campaign"]
    if kind == "mc":
        return reply["mc"]
    return [{k: v for k, v in point.items() if k != "source"}
            for point in reply["points"]]


class Oracle:
    """Direct library results for every distinct request of a run."""

    def __init__(self, inputs):
        from repro.cells import default_library
        from repro.core import characterize
        from repro.core.specs import parse_scenario
        from repro.inject import CampaignSpec, run_campaign
        from repro.mc import MCSpec, run_mc
        from repro.rtl import Multiplier

        library = default_library()
        lifetimes = sorted({q["scenarios"][0] for q in inputs["points"]})
        precisions = sorted({q["precisions"][0] for q in inputs["points"]},
                            reverse=True)
        table = characterize(Multiplier(16), library,
                             [parse_scenario(s) for s in lifetimes],
                             precisions=precisions, effort=EFFORT,
                             cache=None, jobs=1)
        self.table = table
        self.labels = {s: parse_scenario(s).label for s in lifetimes}
        self.direct = {}
        for kind, payload in inputs["fill"]:
            key = harness.canonical(payload)
            if kind == "inject":
                self.direct[key] = run_campaign(
                    CampaignSpec.from_dict(payload), jobs=1).to_dict()
            elif kind == "mc":
                self.direct[key] = run_mc(
                    MCSpec.from_dict(payload), jobs=1).to_dict()

    def characterize_point(self, payload):
        p = payload["precisions"][0]
        label = self.labels[payload["scenarios"][0]]
        t = self.table
        return {"fresh": t.fresh_ps[p], "area": t.area_um2[p],
                "leakage": t.leakage_nw[p], "gates": t.gates[p],
                "depth": t.depth[p], "aged": {label: t.aged_ps[(p, label)]},
                "precision": p}

    def matches(self, kind, payload, served):
        if kind != "characterize":
            want = json.loads(json.dumps(self.direct[
                harness.canonical(payload)]))
            return harness.canonical(served) == harness.canonical(want)
        if len(served) != 1:
            return False
        point, want = served[0], self.characterize_point(payload)
        m = point["metrics"]
        return (point["precision"] == want["precision"]
                and m["delay_ps"] == want["fresh"]
                and m["area_um2"] == want["area"]
                and m["leakage_nw"] == want["leakage"]
                and m["gates"] == want["gates"]
                and m["depth"] == want["depth"]
                and point["aged"] == want["aged"])


# ---------------------------------------------------------------------------
# traced server (child side)
# ---------------------------------------------------------------------------

def child_setup(config):
    import repro.serve  # noqa: F401
    return {}


def child_work(state, config):
    """Run the server under a tracer with no enclosing span, so each
    request's spans join the calling client's trace by identity."""
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace
    from repro.serve import CharacterizationServer

    def ready(server):
        print("serving characterization on http://%s:%d"
              % (server.host, server.port), flush=True)

    harness.wrap_in_spans()
    with obs_trace.capture() as tracer, obs_metrics.scoped() as registry:
        server = CharacterizationServer(config["cache_dir"], workers=1,
                                        port=0)
        asyncio.run(server.run(ready=ready))
    return {"spans": harness.flatten(tracer.to_dicts()),
            "metrics": registry.snapshot()}


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------

class Server:
    """One ``repro serve --jobs 1`` process on a fresh cache directory."""

    def __init__(self, work, tag, traced=False):
        cache_dir = work / ("cache-" + tag)
        cache_dir.mkdir()
        self.out = work / (tag + ".json")
        if traced:
            config = {"cache_dir": str(cache_dir), "out": str(self.out)}
            argv = [sys.executable, str(harness.HERE / "child.py"),
                    "serve_mult16", json.dumps(config)]
        else:
            argv = [sys.executable, "-m", "repro.cli", "serve", "--jobs",
                    "1", "--port", "0", "--cache-dir", str(cache_dir)]
        self.child = harness.Child(argv, "serving characterization on",
                                   work / (tag + ".stderr"))
        address = self.child.ready_line.split("http://")[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def call(self, endpoint):
        """One request on a fresh connection, e.g. ``"stats"``."""
        from repro.serve.client import ServeClient

        async def run():
            async with ServeClient(self.host, self.port) as client:
                return await getattr(client, endpoint)()

        return asyncio.run(run())

    def stop(self):
        try:
            self.call("shutdown")
            self.child.wait(SHUTDOWN_TIMEOUT_S)
        finally:
            self.child.kill()


async def drive(server, lanes):
    """Closed loop: one keep-alive client per lane walks its list.

    Returns ``(wall_s, [(kind, payload, reply or None, latency_s)])``.
    In a traced cycle, the span around each call is the one
    :func:`harness.wrap_in_spans` puts on ``ServeClient.request``; a
    second span of the benchmark's own around it would only add its
    bookkeeping to the sub-millisecond calls.
    """
    from repro.serve.client import ServeClient, ServeError

    records = []

    async def lane(entries):
        async with ServeClient(server.host, server.port) as client:
            send = {"characterize": client.characterize,
                    "inject": client.inject, "mc": client.mc}
            for kind, payload in entries:
                t0 = time.perf_counter()
                try:
                    reply = await send[kind](payload)
                except ServeError:
                    reply = None
                records.append((kind, payload, reply,
                                time.perf_counter() - t0))

    t0 = time.perf_counter()
    await asyncio.gather(*[lane(entries) for entries in lanes])
    return time.perf_counter() - t0, records


def cycle(ctx, inputs, oracle, index, traced, speed):
    """One server lifetime: fill, warm-up, warm windows, stats. An
    untraced cycle runs the host-speed kernel (*speed*, a
    :class:`harness.HostSpeed`) before the fill and after the fill and
    each warm window; the result names their units in it. Every
    response is checked against *oracle* before the cycle's timings
    count."""
    from repro.obs import trace as obs_trace

    tag = "cycle%d" % index
    server = Server(ctx.work, tag, traced)
    # The clients run in this process: in a traced cycle, their program
    # calls get their spans here, and lose them again afterwards.
    unwrap = harness.wrap_in_spans(only={"ServeClient.request"}) \
        if traced else (lambda: None)
    try:
        tracer = obs_trace.Tracer()
        capture = (lambda: obs_trace.capture(tracer)) if traced \
            else contextlib.nullcontext
        if not traced:
            speed.mark()
        with capture():
            fill_s, fill = asyncio.run(drive(server, [inputs["fill"]]
                                             * LANES))
        fill_unit = None if traced else speed.unit()
        __, warmup = asyncio.run(drive(server, inputs["warmup"]))
        windows, warm = [], []
        for lanes in inputs["warm"]:
            with capture():
                wall, records = asyncio.run(drive(server, lanes))
            windows.append({"wall": wall,
                            "unit": None if traced else speed.unit(),
                            "latencies": [r[3] for r in records]})
            warm.extend(records)
        stats = server.call("stats")
        rss = harness.peak_rss_mb(server.child.proc.pid)
    except BaseException:
        server.child.kill()
        raise
    finally:
        unwrap()
    server.stop()
    records = fill + warmup + warm
    bad = sum(1 for kind, payload, reply, __ in records
              if reply is None
              or not oracle.matches(kind, payload, answer(kind, reply)))
    if bad:
        ctx.log("serve_mult16 %s: %d responses were errors or differ from "
                "direct results" % (tag, bad))
    served = None
    if traced:
        with open(server.out) as handle:
            served = json.load(handle)
    return {"setup_s": server.child.setup_s, "fill_s": fill_s,
            "warm_s": sum(w["wall"] for w in windows), "windows": windows,
            "fill_unit": fill_unit,
            "attempted": len(records), "bad": bad, "stats": stats,
            "rss": rss, "client_spans": harness.flatten(tracer.to_dicts()),
            "served": served, "traced": traced}


def traced_spans(client_spans, server_spans):
    """Client request spans plus the server spans under them."""
    spans = list(client_spans)
    known = {s["span_id"] for s in spans}
    pending = list(server_spans)
    while True:
        joined = [s for s in pending if s.get("parent_id") in known]
        if not joined:
            return spans
        spans.extend(joined)
        known.update(s["span_id"] for s in joined)
        pending = [s for s in pending if s["span_id"] not in known]


def measure(ctx):
    """Cycles until ``ctx.seconds`` have passed; a cycle is not started
    unless one as long as the median so far still fits. Every cycle is
    a fresh server, so the warm windows, too, come from several server
    processes. In the traced run, cycles alternate untraced / traced."""
    inputs = build_inputs(ctx.size, ctx.seed)
    oracle = Oracle(inputs)
    speed = harness.HostSpeed(
        lambda: harness.kernel_on_every_cpu(KERNEL_REPEAT))
    min_cycles = 2 if ctx.trace else 1
    cycles, took = [], []
    deadline = time.monotonic() + ctx.seconds
    while len(cycles) < min_cycles or (
            time.monotonic() + harness.median(took) < deadline):
        t0 = time.monotonic()
        traced = ctx.trace and len(cycles) % 2 == 1
        cycles.append(cycle(ctx, inputs, oracle, len(cycles), traced,
                            speed))
        took.append(time.monotonic() - t0)
    attempted = sum(r["attempted"] for r in cycles)
    failed = sum(r["bad"] for r in cycles)

    good = [r for r in cycles if not r["bad"] and not r["traced"]]
    if ctx.trace:
        return {"attempted": attempted, "failed": failed,
                "metrics": traced_metrics(cycles, good)}
    factors = speed.factors()
    fills = [r["fill_s"] * factors[r["fill_unit"]] for r in good]
    windows = [len(w["latencies"]) / (w["wall"] * factors[w["unit"]])
               for r in good for w in r["windows"]]
    if not good or not windows:
        return {"attempted": attempted, "failed": failed, "metrics": {}}
    kernel_walls = speed.walls
    ctx.log("serve_mult16 samples:")
    harness.describe(ctx.log, "setup", [r["setup_s"] for r in good])
    harness.describe(ctx.log, "fill", [r["fill_s"] for r in good])
    harness.describe(ctx.log, "warm", [len(w["latencies"]) / w["wall"]
                                       for r in good for w in r["windows"]])
    harness.describe(ctx.log, "kernel", kernel_walls)
    harness.describe(ctx.log, "fill scaled", fills)
    harness.describe(ctx.log, "warm scaled", windows)
    # Medians over cycles and warm windows, so one disturbed sample
    # cannot move them, each scaled to the reference host speed.
    metrics = {
        "setup_s": (harness.host_scale(kernel_walls) * harness.median(
            r["setup_s"] for r in good), "s"),
        "peak_rss_mb": (harness.median(r["rss"] for r in good), "MB"),
        "work_s": (harness.median(fills), "s"),
        "rate_per_s": (harness.median(windows), "1/s"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def warm_quantile_ms(cycles, q):
    """Median over the warm windows of *cycles* of each window's
    *q*-quantile latency."""
    return harness.median(1e3 * harness.percentile(w["latencies"], q)
                          for r in cycles for w in r["windows"])


def traced_metrics(cycles, untraced):
    """Per-layer metrics: spans from the traced cycles, latency figures
    from the untraced ones."""
    attribution = harness.Attribution()
    traced = [r for r in cycles if not r["bad"] and r["traced"]]
    for result in traced:
        served = result["served"]
        spans = traced_spans(result["client_spans"], served["spans"])
        attribution.add_spans(spans, served={
            s["span_id"] for s in served["spans"]})
        attribution.add_counters(served["metrics"])
        attribution.add_unit(result["fill_s"] + result["warm_s"],
                             lanes=LANES)
    metrics = attribution.metrics() if traced else {}
    if traced:
        metrics["import.s"] = (harness.median(
            r["served"]["import_s"] for r in traced), "s")
    stats = [r["stats"] for r in traced + untraced]
    for name, pick in (("serve.tier_hits_mem",
                        lambda s: s["tier_hits"]["mem"]),
                       ("serve.tier_hits_disk",
                        lambda s: s["tier_hits"]["disk"]),
                       ("serve.computes", lambda s: s["computes"]),
                       ("serve.dedup_hits", lambda s: s["dedup_hits"]),
                       ("serve.errors", lambda s: s["errors"])):
        if stats:
            metrics[name] = (harness.median(pick(s) for s in stats),
                             "count")
    if untraced:
        server_p50 = harness.median(r["stats"]["latency_ms"]["p50"]
                                    for r in untraced)
        metrics["serve.server_p50_ms"] = (server_p50, "ms")
        metrics["serve.overhead_ms"] = (
            warm_quantile_ms(untraced, 0.5) - server_p50, "ms")
        for q in (50, 90, 99):
            metrics["serve.client_p%d_ms" % q] = (
                warm_quantile_ms(untraced, q / 100.0), "ms")
    if traced and untraced:
        metrics["trace.overhead_s"] = (
            harness.median(r["fill_s"] + r["warm_s"] for r in traced)
            - harness.median(r["fill_s"] + r["warm_s"] for r in untraced),
            "s")
    return metrics
