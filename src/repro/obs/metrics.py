"""Named counters, gauges and histograms with a mergeable wire format.

The registry answers "how effective was the cache, how fast was the
simulator, what did synthesis produce" as *numbers with stable names*
rather than log lines. Three metric kinds:

* :class:`Counter` — monotonically increasing event count
  (``cache.hits``, ``sim.vectors``);
* :class:`Gauge` — last-observed value (``sim.vectors_per_sec``);
* :class:`Histogram` — distribution with fixed bucket boundaries plus
  count/sum/min/max (``synth.delay_ps``, ``synth.area_um2``).

Every registry serializes to a plain-JSON :meth:`MetricsRegistry.
snapshot` that :meth:`MetricsRegistry.merge` folds back in — the wire
format process-pool workers use to report home. Histogram merging is
associative (bucket-wise sums), so worker snapshots can be folded in
any grouping.

Like tracing, the active registry is ambient (:func:`registry`); unlike
tracing there is always a process-wide default registry, because metric
state is bounded. Scope a fresh one with :func:`scoped` to isolate a
run (the CLI does this per invocation).
"""

import bisect
import contextvars
import threading
from contextlib import contextmanager

#: Bump when the snapshot layout changes.
METRICS_SCHEMA = 1

#: Default histogram boundaries: one bucket per decade, 1e-6 .. 1e6.
DEFAULT_BOUNDARIES = tuple(10.0 ** e for e in range(-6, 7))

# Canonical metric names.
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"
CACHE_STORES = "cache.stores"
CACHE_ERRORS = "cache.corrupt_recoveries"
CACHE_BYTES_READ = "cache.bytes_read"
CACHE_BYTES_WRITTEN = "cache.bytes_written"
CACHE_MEM_HITS = "cache.mem_hits"
CACHE_MEM_EVICTIONS = "cache.mem_evictions"
NETLIST_MEMO_HITS = "cache.netlist_memo_hits"
SERVE_REQUESTS = "serve.requests"
SERVE_ERRORS = "serve.errors"
SERVE_DEDUP_HITS = "serve.dedup_hits"
SERVE_TIER_MEM = "serve.tier_hits_mem"
SERVE_TIER_DISK = "serve.tier_hits_disk"
SERVE_COMPUTES = "serve.computes"
SERVE_QUEUE_DEPTH = "serve.queue_depth"
SERVE_LATENCY_MS = "serve.latency_ms"
SIM_RUNS = "sim.runs"
SIM_VECTORS = "sim.vectors"
SIM_VECTORS_PER_SEC = "sim.vectors_per_sec"
SYNTH_RUNS = "synth.runs"
SYNTH_DELAY_PS = "synth.delay_ps"
SYNTH_AREA_UM2 = "synth.area_um2"
SYNTH_CONSTPROP_REWRITES = "synth.constprop.rewrites"
SYNTH_DEAD_GATES = "synth.dead_gates"
SYNTH_SIZING_ROUNDS = "synth.sizing.rounds"
SYNTH_SIZING_UPSIZES = "synth.sizing.upsizes"
SYNTH_SWEEP_DERIVES = "synth.sweep.derives"
SYNTH_SWEEP_CONE_GATES = "synth.sweep.cone_gates"
SYNTH_SWEEP_BASE_MEMO_HITS = "synth.sweep.base_memo_hits"
SYNTH_SWEEP_BASE_MEMO_EVICTIONS = "synth.sweep.base_memo_evictions"
SYNTH_NETLISTS_MATERIALIZED = "synth.netlists_materialized"
STA_RUNS = "sta.runs"
STA_BATCH_RUNS = "sta.batch.runs"
STA_BATCH_CORNERS = "sta.batch.corners"
STA_INCREMENTAL_RUNS = "sta.incremental.runs"
STA_INCREMENTAL_CONE_FRACTION = "sta.incremental.cone_fraction"
STA_CONE_PLAN_HITS = "sta.cone_plan_hits"
STA_REPLAY_ROWS = "sta.replay_rows"
TIMING_MEMO_HITS = "cache.timing_memo_hits"
STRESS_EXTRACTIONS = "stress.extractions"
OBS_TS_SAMPLES = "obs.ts.samples"
OBS_TS_DROPPED = "obs.ts.dropped"
OBS_TS_FLUSHES = "obs.ts.flushes"
OBS_PROFILE_SAMPLES = "obs.profile.samples"
SERVE_SLO_BURN_RATE = "serve.slo.burn_rate"
SERVE_SLO_BREACHES = "serve.slo.breaches"
SERVE_SLO_WORST = "serve.slo.worst_burn_rate"
INJECT_CAMPAIGNS = "inject.campaigns"
INJECT_POINTS = "inject.points"
INJECT_VECTORS = "inject.vectors"
INJECT_FAULTS = "inject.faults"
INJECT_FAULTED_VECTORS = "inject.faulted_vectors"
INJECT_VECTORS_PER_SEC = "inject.vectors_per_sec"
INJECT_VIOLATING_FRACTION = "inject.violating_gate_fraction"
INJECT_MASK_STREAMS = "inject.mask_streams"
INJECT_REPLAY_OPS = "inject.replay_ops"
MC_RUNS = "mc.runs"
MC_POINTS = "mc.points"
MC_SAMPLES = "mc.samples"
MC_BLOCKS = "mc.blocks"
MC_SAMPLES_PER_SEC = "mc.samples_per_sec"
MC_YIELD_FRACTION = "mc.yield_fraction"
MC_SURROGATE_FITS = "mc.surrogate.fits"
MC_SURROGATE_SKIPPED = "mc.surrogate.skipped_points"

#: Bucket edges for fraction-valued histograms (e.g. cone fractions in
#: [0, 1]); the decade-wide defaults would lump everything together.
FRACTION_BOUNDARIES = tuple(i / 10.0 for i in range(1, 11))

#: Bucket edges for request-latency histograms in milliseconds:
#: quarter-decade steps from 10 us to ~56 s, tight enough that
#: interpolated p50/p95/p99 are meaningful.
LATENCY_BOUNDARIES_MS = tuple(round(10.0 ** (e / 4.0), 6)
                              for e in range(-8, 19))


class Counter:
    """Monotonic event counter."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def to_snapshot(self):
        return self.value

    def merge_snapshot(self, other):
        self.value += other


class Gauge:
    """Last-write-wins sampled value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0.0

    def set(self, value):
        self.value = float(value)

    def to_snapshot(self):
        return self.value

    def merge_snapshot(self, other):
        self.value = float(other)


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max.

    *boundaries* are the upper bucket edges; values above the last edge
    land in a final overflow bucket, so there are ``len(boundaries)+1``
    buckets. Merging requires identical boundaries and is associative.
    """

    __slots__ = ("boundaries", "buckets", "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, boundaries=DEFAULT_BOUNDARIES):
        self.boundaries = tuple(float(b) for b in boundaries)
        if list(self.boundaries) != sorted(set(self.boundaries)):
            raise ValueError("histogram boundaries must be strictly "
                             "increasing, got %r" % (boundaries,))
        self.buckets = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value):
        value = float(value)
        self.buckets[bisect.bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def _bucket_edges(self, index):
        """Effective ``(lo, hi)`` interpolation edges of bucket *index*.

        Observed ``min``/``max`` clamp the open-ended first and overflow
        buckets when known; histograms reconstructed from bucket-only
        wire data (windowed deltas, partial merges) have ``min``/``max``
        of None and fall back to the boundary edges themselves.
        """
        lo = self.boundaries[index - 1] if index > 0 else (
            self.min if self.min is not None else
            min(self.boundaries[0], 0.0))
        hi = (self.boundaries[index] if index < len(self.boundaries)
              else (self.max if self.max is not None
                    else self.boundaries[-1]))
        if self.min is not None:
            lo = max(lo, self.min)
        if self.max is not None:
            hi = min(hi, self.max)
        return lo, max(hi, lo)

    def quantile(self, q):
        """Estimate the *q*-quantile (``0 <= q <= 1``) from the buckets.

        Linear interpolation inside the containing bucket, with the
        observed ``min``/``max`` (when known) clamping the open-ended
        first and last buckets — exact for q=0/q=1, approximate
        elsewhere (bucket-width resolution). Histograms merged from
        bucket-only wire data (no min/max) interpolate against the
        boundary edges instead. Returns None for an empty histogram.
        """
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1], got %r" % (q,))
        occupied = [i for i, n in enumerate(self.buckets) if n]
        if q == 0.0:
            return (self.min if self.min is not None
                    else self._bucket_edges(occupied[0])[0])
        if q == 1.0:
            return (self.max if self.max is not None
                    else self._bucket_edges(occupied[-1])[1])
        rank = q * self.count
        cumulative = 0
        for index in occupied:
            n = self.buckets[index]
            if cumulative + n >= rank:
                lo, hi = self._bucket_edges(index)
                frac = (rank - cumulative) / n
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            cumulative += n
        return self._bucket_edges(occupied[-1])[1]

    def to_snapshot(self):
        return {"count": self.count, "sum": self.sum, "min": self.min,
                "max": self.max, "boundaries": list(self.boundaries),
                "buckets": list(self.buckets)}

    def merge_snapshot(self, other):
        if list(other.get("boundaries", ())) != list(self.boundaries):
            raise ValueError(
                "cannot merge histograms with different boundaries: "
                "%r vs %r" % (other.get("boundaries"), self.boundaries))
        self.count += other["count"]
        self.sum += other["sum"]
        for index, n in enumerate(other["buckets"]):
            self.buckets[index] += n
        for name, fold in (("min", min), ("max", max)):
            theirs = other.get(name)
            if theirs is not None:
                ours = getattr(self, name)
                setattr(self, name,
                        theirs if ours is None else fold(ours, theirs))


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _prom_name(name):
    """Sanitize a dotted metric name into a Prometheus identifier."""
    out = []
    for ch in name:
        out.append(ch if (ch.isascii() and ch.isalnum()) or ch == "_"
                   else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return "repro_" + text


def _prom_number(value):
    """Render a float the way Prometheus text format expects."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(snapshot):
    """Render a :meth:`MetricsRegistry.snapshot` in Prometheus text
    exposition format (version 0.0.4, the ``/metrics`` scrape format).

    Counters gain the conventional ``_total`` suffix; histograms emit
    cumulative ``le``-labelled buckets (including ``+Inf``) plus
    ``_sum``/``_count`` series. Dots become underscores and every name
    is prefixed ``repro_`` so scrapes from mixed fleets don't collide.
    """
    lines = []
    for name in sorted(snapshot.get("counters", {})):
        prom = _prom_name(name) + "_total"
        lines.append("# TYPE %s counter" % prom)
        lines.append("%s %s" % (
            prom, _prom_number(snapshot["counters"][name])))
    for name in sorted(snapshot.get("gauges", {})):
        prom = _prom_name(name)
        lines.append("# TYPE %s gauge" % prom)
        lines.append("%s %s" % (
            prom, _prom_number(snapshot["gauges"][name])))
    for name in sorted(snapshot.get("histograms", {})):
        state = snapshot["histograms"][name]
        prom = _prom_name(name)
        lines.append("# TYPE %s histogram" % prom)
        cumulative = 0
        edges = list(state.get("boundaries", ())) + [float("inf")]
        for edge, count in zip(edges, state.get("buckets", ())):
            cumulative += count
            lines.append('%s_bucket{le="%s"} %d' % (
                prom, _prom_number(edge), cumulative))
        lines.append("%s_sum %s" % (prom, _prom_number(state["sum"])))
        lines.append("%s_count %d" % (prom, state["count"]))
    return "\n".join(lines) + "\n" if lines else ""


class MetricsRegistry:
    """Get-or-create store of named metrics with snapshot/merge."""

    def __init__(self):
        self._metrics = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name, cls, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(*args)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError("metric %r already registered as %s"
                                % (name, metric.kind))
            return metric

    def counter(self, name):
        return self._get_or_create(name, Counter)

    def gauge(self, name):
        return self._get_or_create(name, Gauge)

    def histogram(self, name, boundaries=DEFAULT_BOUNDARIES):
        return self._get_or_create(name, Histogram, boundaries)

    def get(self, name):
        """The metric registered under *name*, or None."""
        return self._metrics.get(name)

    def names(self):
        return sorted(self._metrics)

    def value(self, name, default=0):
        """Counter/gauge value under *name* (``default`` when absent)."""
        metric = self._metrics.get(name)
        return default if metric is None else metric.value

    # -- wire format -------------------------------------------------------
    def snapshot(self):
        """Plain-JSON state: ``{"schema", "counters", "gauges",
        "histograms"}`` — the worker -> parent / on-disk wire format."""
        out = {"schema": METRICS_SCHEMA, "counters": {}, "gauges": {},
               "histograms": {}}
        with self._lock:
            for name, metric in self._metrics.items():
                out[metric.kind + "s"][name] = metric.to_snapshot()
        return out

    def merge(self, snapshot):
        """Fold a :meth:`snapshot` dict into this registry."""
        for kind, cls in _KINDS.items():
            for name, state in snapshot.get(kind + "s", {}).items():
                if cls is Histogram:
                    metric = self.histogram(
                        name, state.get("boundaries", DEFAULT_BOUNDARIES))
                else:
                    metric = self._get_or_create(name, cls)
                metric.merge_snapshot(state)
        return self

    def reset(self):
        with self._lock:
            self._metrics.clear()

    def __repr__(self):
        return "MetricsRegistry(%d metrics)" % len(self._metrics)


# ---------------------------------------------------------------------------
# ambient registry
# ---------------------------------------------------------------------------

#: Process-wide fallback registry (metric state is bounded, so always-on).
_DEFAULT = MetricsRegistry()

_ACTIVE = contextvars.ContextVar("repro_obs_metrics", default=None)


def registry():
    """The ambient registry: the innermost :func:`scoped` one, else the
    process-wide default."""
    active = _ACTIVE.get()
    return active if active is not None else _DEFAULT


@contextmanager
def scoped(reg=None):
    """Route ambient metric emission into *reg* (fresh when omitted)."""
    if reg is None:
        reg = MetricsRegistry()
    token = _ACTIVE.set(reg)
    try:
        yield reg
    finally:
        _ACTIVE.reset(token)


def wrap(fn):
    """Bind *fn* to the caller's metrics scope, for worker threads."""
    active = _ACTIVE.get()

    def runner(*args, **kwargs):
        token = _ACTIVE.set(active)
        try:
            return fn(*args, **kwargs)
        finally:
            _ACTIVE.reset(token)

    return runner


# -- one-line emission helpers (all target the ambient registry) -----------

def inc(name, n=1):
    registry().counter(name).inc(n)


def set_gauge(name, value):
    registry().gauge(name).set(value)


def observe(name, value, boundaries=DEFAULT_BOUNDARIES):
    registry().histogram(name, boundaries).observe(value)
