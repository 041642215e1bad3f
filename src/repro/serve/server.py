"""The asyncio characterization job server.

Stdlib only — ``asyncio.start_server`` plus a minimal HTTP/1.1 layer
(request-line + headers + Content-Length bodies, keep-alive, chunked
responses for streaming). No framework.

Request lifecycle of a characterization query:

1. every grid point resolves against the **multi-tier cache** first —
   the in-memory LRU, then the sharded on-disk store; a full hit
   answers immediately (``source: "mem" | "disk"``);
2. a miss becomes a **single-flight computation**: the point task is
   keyed by its cache digest, and identical concurrent requests coalesce
   onto one in-flight future (``source: "dedup"``) instead of each
   running ``characterize()``;
3. the computation itself runs on a **persistent process pool**
   (:class:`~repro.core.parallel.WorkerPool`) via the same
   ``_characterize_point`` worker the library's ``characterize()``
   dispatches — results are bit-identical by construction, and the
   worker's span tree / metric snapshot are absorbed into the server's
   trace and registry (:func:`repro.core.parallel.absorb`).

Endpoints
---------
``GET /healthz``
    Liveness: ``{"status": "ok"}`` plus uptime.
``POST /v1/characterize``
    One query (see :mod:`repro.serve.protocol`); answers with all point
    records once the grid is complete.
``POST /v1/batch``
    Same query, but streams one NDJSON point record per chunk *as grid
    points complete* (completion order), then a ``{"done": true}``
    summary line.
``POST /v1/inject``
    A fault-injection campaign spec
    (:meth:`repro.inject.CampaignSpec.to_dict`); runs the campaign in
    a pool worker and answers with the full
    :meth:`~repro.inject.CampaignResult.to_dict` — bit-identical to an
    in-process ``run_campaign`` of the same spec. Concurrent identical
    specs share one run (single-flight); results are not cached.
``POST /v1/mc``
    A Monte Carlo yield-analysis spec
    (:meth:`repro.mc.MCSpec.to_dict`); runs the sampled sweep in a
    pool worker and answers with the full
    :meth:`~repro.mc.MCResult.to_dict` — bit-identical to an
    in-process ``run_mc`` of the same spec, single-flight like
    ``/v1/inject``.
``GET /v1/stats``
    Serving counters: requests, in-flight dedup hits, tier hit ratios,
    queue depth, latency percentiles (p50/p95/p99), cache stats, SLO
    burn rates (the overload signal).
``GET /v1/metrics``
    Full :mod:`repro.obs.metrics` registry snapshot.
``GET /metrics``
    The same registry in Prometheus text exposition format, scrapable
    by any Prometheus-compatible collector.
``GET /v1/timeseries``
    The :class:`~repro.obs.timeseries.TimeSeriesRecorder` ring —
    periodic samples with counter rates and latency quantiles
    (``?window_s=N`` trims to a trailing window).
``GET /v1/profile?seconds=N``
    Run the sampling profiler (:mod:`repro.obs.profile`) on the live
    server for N seconds; returns collapsed stacks (or the Chrome
    flame chart with ``&format=chrome``). One run at a time (409).
``POST /v1/shutdown``
    Graceful shutdown (acknowledged before the server stops).

Every request is access-logged (trace id, peer, latency, tier/dedup
outcome) on the ``repro.serve.access`` logger, and an inbound
``X-Repro-Trace`` header stitches the request's spans — including the
pool workers' — into the calling client's trace.

Shutdown — signal-driven or ``--max-requests`` budget — **drains**:
accepting stops, idle keep-alive connections close immediately,
in-flight requests run to completion (bounded by *drain_grace_s*),
and a final time-series sample is taken and flushed before exit.
"""

import asyncio
import contextvars
import json
import signal
import time
import urllib.parse
from collections import OrderedDict

from ..core import cache as cache_mod
from ..core.characterize import _characterize_point, component_key
from ..core.grid import stat_arms
from ..core.parallel import WorkerPool, absorb, traced
from ..obs import (logs, metrics as obs_metrics, profile as obs_profile,
                   slo as obs_slo, timeseries as obs_timeseries,
                   trace as obs_trace)
from . import protocol

_log = logs.get_logger("serve.server")


def _stat_arm_job(task):
    """Pool job of ``/v1/inject`` and ``/v1/mc``: one whole serial run
    of the task's spec, as its JSON result."""
    spec_cls, run, __ = stat_arms()[task["kind"]]
    return run(spec_cls.from_dict(task["spec"]), jobs=1).to_dict()


#: Per-request tier/dedup outcome counts, shared with the point
#: resolution tasks a request fans out (they inherit the request
#: handler's context, and mutate the same dict).
_REQ_SOURCES = contextvars.ContextVar("repro_serve_req_sources",
                                      default=None)

#: Reject request bodies beyond this size (queries are tiny).
MAX_BODY_BYTES = 1 << 20

#: Distinct query bodies whose parsed point tasks are kept memoized.
TASK_MEMO_ENTRIES = 4096

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 500: "Internal Server Error"}


class _BadRequest(Exception):
    """Malformed HTTP request; message becomes the 400 body."""


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "version", "headers", "body")

    def __init__(self, method, path, version, headers, body):
        self.method = method
        self.path = path
        self.version = version
        self.headers = headers
        self.body = body

    @property
    def keep_alive(self):
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


class CharacterizationServer:
    """Serve characterization queries over HTTP/JSON (see module docs).

    Parameters
    ----------
    cache:
        A :class:`~repro.core.cache.CharacterizationCache` or a cache
        directory path. A path gets a sharded, memory-tiered cache with
        one shard per worker by default.
    library:
        Cell library answering queries (default: the bundled library).
    host / port:
        Bind address; port 0 picks an ephemeral port (read ``.port``
        after :meth:`start`).
    workers:
        Persistent pool size (``None`` defers to ``REPRO_JOBS``,
        0 = one per CPU — see :func:`repro.core.parallel.resolve_jobs`).
    shards / mem_entries:
        Cache layout knobs, used only when *cache* is a path.
    dedup:
        Single-flight coalescing of identical in-flight misses; disable
        only to measure its effect (the benchmark's baseline).
    ts_interval / ts_capacity / ts_jsonl:
        Time-series sampling cadence (seconds), ring size, and optional
        JSONL journal path.
    slos:
        Iterable of SLO specs (:func:`repro.obs.slo.parse_slo` strings
        or :class:`~repro.obs.slo.SLO` objects). None enables the
        defaults (p99 < 500 ms, 99.9% availability); an empty iterable
        disables SLO evaluation.
    drain_grace_s:
        Seconds shutdown waits for in-flight requests before
        force-closing their connections.
    """

    def __init__(self, cache, library=None, host="127.0.0.1", port=0,
                 workers=None, shards=None, mem_entries=None, dedup=True,
                 max_requests=None, ts_interval=1.0, ts_capacity=600,
                 ts_jsonl=None, slos=None, drain_grace_s=10.0):
        self.pool = WorkerPool(workers)
        if isinstance(cache, cache_mod.CharacterizationCache):
            self.cache = cache
        else:
            self.cache = cache_mod.CharacterizationCache(
                cache, shards=self.pool.jobs if shards is None else shards,
                mem_entries=mem_entries)
        if library is None:
            from ..cells import default_library
            library = default_library()
        self.library = library
        self.host = host
        self.port = port
        self.dedup = bool(dedup)
        self.max_requests = max_requests
        self.ts_interval = float(ts_interval)
        self.ts_capacity = int(ts_capacity)
        self.ts_jsonl = ts_jsonl
        self.slos = slos
        self.drain_grace_s = float(drain_grace_s)
        self._served = 0
        self._inflight = {}
        self._task_memo = OrderedDict()
        self._queue_depth = 0
        self._connections = {}
        self._busy = set()
        self._draining = False
        self._server = None
        self._shutdown = None
        self._registry = None
        self._tracer = None
        self.recorder = None
        self._slo_eval = None
        self._slo_results = []
        self._ts_task = None
        self._profiling = False
        self.started_unix = None

    # -- lifecycle ---------------------------------------------------------
    async def start(self):
        """Bind and start accepting; resolves the ephemeral port."""
        self._registry = obs_metrics.registry()
        self._tracer = obs_trace.active_tracer()
        self._shutdown = asyncio.Event()
        self._draining = False
        self.started_unix = time.time()
        self.recorder = obs_timeseries.TimeSeriesRecorder(
            registry=self._registry, interval=self.ts_interval,
            capacity=self.ts_capacity, jsonl_path=self.ts_jsonl)
        specs = obs_slo.DEFAULT_SLOS if self.slos is None else self.slos
        objectives = [spec if isinstance(spec, obs_slo.SLO)
                      else obs_slo.parse_slo(spec) for spec in specs]
        self._slo_eval = (obs_slo.SLOEvaluator(
            objectives, self.recorder, registry=self._registry)
            if objectives else None)
        self.recorder.sample_now()  # t0 baseline for windowed deltas
        self._ts_task = asyncio.ensure_future(self._telemetry_loop())
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        _log.info("serving characterization on %s:%d (workers=%d, "
                  "shards=%d, mem_entries=%d, dedup=%s)",
                  self.host, self.port, self.pool.jobs, self.cache.shards,
                  self.cache.mem_entries, self.dedup)
        return self

    async def _telemetry_loop(self):
        """Periodic sample + JSONL flush + SLO evaluation."""
        while True:
            await asyncio.sleep(self.ts_interval)
            try:
                self.recorder.sample_now()
                if self._slo_eval is not None:
                    self._slo_results = self._slo_eval.evaluate()
                self.recorder.flush()
            except asyncio.CancelledError:
                raise
            except Exception:
                _log.exception("telemetry tick failed")

    async def stop(self):
        """Drain in-flight requests, then stop (idempotent).

        One shutdown routine for every trigger (signal, request budget,
        ``/v1/shutdown``, direct call): stop accepting, close **idle**
        keep-alive connections immediately, let requests already being
        handled run to completion (bounded by ``drain_grace_s``, then
        force-closed), take and flush a final time-series sample, and
        reap the worker pool.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._connections):
            if writer not in self._busy:
                writer.close()
        tasks = [t for t in self._connections.values() if not t.done()]
        if tasks:
            __done, pending = await asyncio.wait(
                tasks, timeout=self.drain_grace_s)
            if pending:
                _log.warning(
                    "%d request(s) still in flight after %.1fs drain; "
                    "force-closing", len(pending), self.drain_grace_s)
                for writer in list(self._connections):
                    writer.close()
                await asyncio.wait(pending, timeout=5.0)
        self._connections.clear()
        self._busy.clear()
        if self._ts_task is not None:
            self._ts_task.cancel()
            try:
                await self._ts_task
            except asyncio.CancelledError:
                pass
            self._ts_task = None
        if self.recorder is not None:
            self.recorder.sample_now()
            if self._slo_eval is not None:
                self._slo_results = self._slo_eval.evaluate()
            self.recorder.flush()
        self.pool.shutdown()

    def request_shutdown(self):
        """Ask :meth:`run` to exit (safe from signal handlers)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def run(self, install_signal_handlers=True, ready=None):
        """Start, serve until shutdown is requested, then stop.

        *ready*, when given, is called with the server right after the
        port is bound (the CLI prints the listening address there).
        """
        await self.start()
        if ready is not None:
            ready(self)
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass
        try:
            await self._shutdown.wait()
        finally:
            await self.stop()

    # -- connection handling -----------------------------------------------
    async def _client_connected(self, reader, writer):
        # Pin the observability scope captured at start(): connection
        # tasks must record into the server session's registry/tracer no
        # matter which context asyncio spawned them from.
        self._connections[writer] = asyncio.current_task()
        try:
            with obs_metrics.scoped(self._registry):
                if self._tracer is not None:
                    with obs_trace.capture(self._tracer):
                        await self._serve_connection(reader, writer)
                else:
                    await self._serve_connection(reader, writer)
        finally:
            self._connections.pop(writer, None)

    async def _serve_connection(self, reader, writer):
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    self._respond(writer, 400, {"error": str(exc)},
                                  keep=False)
                    await writer.drain()
                    break
                if request is None:
                    break
                # Busy connections are spared the immediate close at
                # drain time; idle ones (parked in _read_request above)
                # are not.
                self._busy.add(writer)
                try:
                    keep = await self._handle(request, writer)
                finally:
                    self._busy.discard(writer)
                await writer.drain()
                if self._draining:
                    keep = False
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader):
        """Parse one request; None on clean EOF before a request line."""
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest("malformed request line")
        method, path, version = parts
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadRequest("bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _BadRequest("request body too large")
        body = await reader.readexactly(length) if length else b""
        return Request(method, path, version, headers, body)

    # -- dispatch ----------------------------------------------------------
    async def _handle(self, request, writer):
        t0 = time.perf_counter()
        self._registry.counter(obs_metrics.SERVE_REQUESTS).inc()
        keep = request.keep_alive
        remote = obs_trace.parse_traceparent(
            request.headers.get(obs_trace.TRACE_HEADER.lower()))
        sources = {"mem": 0, "disk": 0, "dedup": 0, "computed": 0}
        sources_token = _REQ_SOURCES.set(sources)
        status = 200
        # Every access line gets a trace id, even with tracing off —
        # a remote header or active span wins, else a fresh one.
        trace_id = (remote["trace_id"] if remote
                    else obs_trace.new_id())
        try:
            with obs_trace.propagated(remote), \
                    obs_trace.span("serve.request", method=request.method,
                                   path=request.path) as span:
                if span is not None:
                    trace_id = span.trace_id
                try:
                    keep = await self._route(request, writer, keep)
                except (protocol.ProtocolError, _BadRequest) as exc:
                    status = 400
                    self._respond(writer, 400, {"error": str(exc)},
                                  keep=keep)
                except _Routed as routed:
                    status = routed.status
                    self._respond(writer, routed.status,
                                  {"error": routed.message}, keep=keep)
                except (ConnectionResetError, BrokenPipeError):
                    status = 0  # peer gone; logged, not answered
                    raise
                except Exception as exc:
                    status = 500
                    self._registry.counter(obs_metrics.SERVE_ERRORS).inc()
                    _log.exception("request %s %s failed", request.method,
                                   request.path)
                    self._respond(writer, 500,
                                  {"error": "%s: %s"
                                   % (type(exc).__name__, exc)},
                                  keep=keep)
                finally:
                    if span is not None:
                        span.attrs["status"] = status
        finally:
            _REQ_SOURCES.reset(sources_token)
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            self._registry.histogram(
                obs_metrics.SERVE_LATENCY_MS,
                obs_metrics.LATENCY_BOUNDARIES_MS).observe(elapsed_ms)
            self._log_access(request, writer, status, elapsed_ms,
                             trace_id, sources)
        self._served += 1
        if self.max_requests and self._served >= self.max_requests:
            _log.info("request budget of %d reached, shutting down",
                      self.max_requests)
            self.request_shutdown()
            keep = False
        return keep

    @staticmethod
    def _log_access(request, writer, status, elapsed_ms, trace_id,
                    sources):
        """One ``repro.serve.access`` line per request."""
        peer = writer.get_extra_info("peername")
        client = ("%s:%s" % peer[:2] if isinstance(peer, tuple)
                  and len(peer) >= 2 else str(peer))
        tiers = ",".join("%s:%d" % (name, count)
                         for name, count in sorted(sources.items())
                         if count and name != "dedup") or None
        logs.log_access(
            trace=trace_id, client=client, method=request.method,
            path=request.path, status=status, latency_ms=elapsed_ms,
            tier=tiers, dedup=sources["dedup"] or None)

    async def _route(self, request, writer, keep):
        path = request.path.split("?", 1)[0]
        if path == "/healthz":
            self._require(request, "GET")
            self._respond(writer, 200, {
                "status": "ok",
                "uptime_s": time.time() - self.started_unix,
            }, keep=keep)
        elif path == "/v1/stats":
            self._require(request, "GET")
            self._respond(writer, 200, self.stats(), keep=keep)
        elif path == "/v1/metrics":
            self._require(request, "GET")
            self._respond(writer, 200, self._registry.snapshot(),
                          keep=keep)
        elif path == "/metrics":
            self._require(request, "GET")
            self._respond_text(
                writer, 200,
                obs_metrics.prometheus_text(self._registry.snapshot()),
                content_type="text/plain; version=0.0.4; charset=utf-8",
                keep=keep)
        elif path == "/v1/timeseries":
            self._require(request, "GET")
            query = self._query_params(request)
            window = query.get("window_s")
            self._respond(writer, 200, {
                "schema": obs_timeseries.TS_SCHEMA,
                "interval_s": self.recorder.interval,
                "capacity": self.recorder.capacity,
                "dropped": self.recorder.dropped(),
                "samples": self.recorder.samples(
                    window_s=float(window) if window else None),
            }, keep=keep)
        elif path == "/v1/profile":
            self._require(request, "GET")
            keep = await self._profile(request, writer, keep)
        elif path == "/v1/characterize":
            self._require(request, "POST")
            tasks = self._tasks(request)
            records = await asyncio.gather(
                *[self._resolve_point(task) for task in tasks])
            self._respond(writer, 200, {
                "protocol": protocol.PROTOCOL_VERSION,
                "points": list(records),
            }, keep=keep)
        elif path == "/v1/batch":
            self._require(request, "POST")
            keep = await self._stream_batch(request, writer, keep)
        elif path in ("/v1/inject", "/v1/mc"):
            self._require(request, "POST")
            keep = await self._stat_arm(request, writer, keep, path[4:])
        elif path == "/v1/shutdown":
            self._require(request, "POST")
            self._respond(writer, 200, {"status": "shutting down"},
                          keep=False)
            keep = False
            self.request_shutdown()
        else:
            raise _Routed(404, "no such endpoint: %s" % path)
        return keep

    @staticmethod
    def _require(request, method):
        if request.method != method:
            raise _Routed(405, "%s needs %s" % (request.path, method))

    @staticmethod
    def _query_params(request):
        """First value of each query-string parameter."""
        query = urllib.parse.urlsplit(request.path).query
        return {name: values[0] for name, values
                in urllib.parse.parse_qs(query).items()}

    async def _profile(self, request, writer, keep):
        """``/v1/profile``: sample the server process on demand."""
        query = self._query_params(request)
        try:
            seconds = float(query.get("seconds", "1.0"))
        except ValueError:
            raise _BadRequest("seconds must be a number")
        if not 0.0 < seconds <= 60.0:
            raise _BadRequest("seconds must be in (0, 60]")
        fmt = query.get("format", "collapsed")
        if fmt not in ("collapsed", "chrome"):
            raise _BadRequest("format must be collapsed or chrome")
        if self._profiling:
            raise _Routed(409, "a profiling run is already in progress")
        self._profiling = True
        profiler = obs_profile.SamplingProfiler(registry=self._registry)
        try:
            profiler.start()
            await asyncio.sleep(seconds)
        finally:
            profiler.stop()
            self._profiling = False
        if fmt == "chrome":
            payload = {"traceEvents": profiler.chrome_events(),
                       "displayTimeUnit": "ms",
                       "otherData": {"producer": "repro.obs.profile",
                                     "interval_s": profiler.interval}}
        else:
            payload = profiler.report()
            payload["collapsed"] = profiler.collapsed()
        self._respond(writer, 200, payload, keep=keep)
        return keep

    def _tasks(self, request):
        """Parse the query body into point tasks.

        Memoized on the raw body bytes: computing the content-addressed
        cache keys means fingerprinting the component and the cell
        library per grid point, which dominates the warm serving path.
        A fleet replaying the same queries (the expected traffic shape)
        sends byte-identical bodies, so repeats skip straight to the
        previously built task list. Tasks are treated as read-only
        everywhere (workers get pickled copies), which makes the shared
        list safe.
        """
        cached = self._task_memo.get(request.body)
        if cached is not None:
            self._task_memo.move_to_end(request.body)
            return cached
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise protocol.ProtocolError("request body is not valid JSON")
        component, precisions, scenarios, effort = \
            protocol.parse_query(payload)
        tasks = protocol.point_tasks(
            component, precisions, scenarios, self.library, effort=effort,
            cache_root=self.cache.root, cache_shards=self.cache.shards)
        self._task_memo[request.body] = tasks
        while len(self._task_memo) > TASK_MEMO_ENTRIES:
            self._task_memo.popitem(last=False)
        return tasks

    # -- the serving core: tiers + single-flight + pool ---------------------
    @staticmethod
    def _count_source(source):
        """Credit a point outcome to the enclosing request's tally."""
        sources = _REQ_SOURCES.get()
        if sources is not None:
            sources[source] = sources.get(source, 0) + 1

    async def _single_flight(self, flight, worker, task):
        """``(source, result)`` of *worker* on *task*, run once on the
        pool for all concurrent requests of *flight*: a joiner awaits
        the in-flight run (``"dedup"``), else it runs under
        :func:`~repro.core.parallel.traced` (``"computed"``), counted
        in the queue-depth gauge until it finishes."""
        inflight = self._inflight.get(flight) if self.dedup else None
        if inflight is not None:
            self._registry.counter(obs_metrics.SERVE_DEDUP_HITS).inc()
            self._count_source("dedup")
            result, __, __ = await asyncio.shield(inflight)
            return "dedup", result
        # Stamp the current span's trace identity into a shallow copy
        # (memoized task lists are shared and read-only) so the
        # worker's span tree stitches under it across the process
        # boundary.
        ctx = obs_trace.propagation_context()
        worker_task = dict(task, trace=ctx) if ctx is not None else task
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self.pool.executor, traced, worker,
                                      worker_task)
        if self.dedup:
            self._inflight[flight] = future
        self._queue_depth += 1
        self._registry.gauge(
            obs_metrics.SERVE_QUEUE_DEPTH).set(self._queue_depth)

        def _done(__future):
            self._inflight.pop(flight, None)
            self._queue_depth -= 1
            self._registry.gauge(
                obs_metrics.SERVE_QUEUE_DEPTH).set(self._queue_depth)

        future.add_done_callback(_done)
        result = absorb(await asyncio.shield(future), self._registry)
        self._registry.counter(obs_metrics.SERVE_COMPUTES).inc()
        self._count_source("computed")
        return "computed", result

    async def _resolve_point(self, task):
        """Answer one grid point from the fastest tier that can."""
        key = task["key"]
        fps = [fp for __spec, __label, fp in task["scenarios"]]
        with obs_trace.span(
                "serve.point", component=component_key(task["component"]),
                precision=task["precision"]) as span:
            # Single-flight check first: when the herd piles onto an
            # in-flight point, the flight owner already consulted the
            # cache, so waiters skip the tier lookup (and the disk read
            # a stale memory entry would otherwise trigger) entirely.
            flight = key + ":" + ":".join(fps)
            if not (self.dedup and flight in self._inflight):
                entry, tier = self.cache.load_with_source(key, require=fps)
                if entry is not None and all(fp in entry["aged"]
                                             for fp in fps):
                    self._registry.counter(
                        obs_metrics.SERVE_TIER_MEM if tier == "mem"
                        else obs_metrics.SERVE_TIER_DISK).inc()
                    self._count_source(tier)
                    if span is not None:
                        span.attrs["source"] = tier
                    return protocol.record_from_entry(task, entry, tier)

            source, result = await self._single_flight(
                flight, _characterize_point, task)
            if span is not None:
                span.attrs["source"] = source
            if source == "computed":
                if result.get("cache_stats"):
                    self.cache.stats.merge(result["cache_stats"])
                # The worker stored the entry out of process: pull it
                # into the memory tier so repeats of this query are mem
                # hits.
                self.cache.refresh(key)
            return protocol.record_from_result(task, result, source)

    async def _stat_arm(self, request, writer, keep, kind):
        """``/v1/inject`` and ``/v1/mc``: one whole campaign or Monte
        Carlo run per spec in a pool worker (:func:`_stat_arm_job`),
        shared by concurrent requests for the same spec (single-flight,
        no result cache). The result is deterministic from the spec
        (per-gate Philox streams indexed by absolute position), so the
        served answer is bit-identical to an in-process ``run_campaign``
        / ``run_mc`` at any ``--jobs``; the determinism suites compare
        the two verbatim."""
        from ..core.specs import SpecError

        spec_cls, __, field = stat_arms()[kind]
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise protocol.ProtocolError("request body is not valid JSON")
        try:
            # Validate on the event loop so bad specs answer 400.
            spec = spec_cls.from_dict(payload)
        except SpecError as exc:
            raise protocol.ProtocolError(str(exc))
        spec_dict = spec.to_dict()
        flight = "%s:%s" % (kind, json.dumps(spec_dict, sort_keys=True))
        __, result = await self._single_flight(
            flight, _stat_arm_job, {"kind": kind, "spec": spec_dict})
        self._respond(writer, 200, {
            "protocol": protocol.PROTOCOL_VERSION, field: result,
        }, keep=keep)
        return keep

    # -- streaming ---------------------------------------------------------
    async def _stream_batch(self, request, writer, keep):
        tasks = self._tasks(request)
        t0 = time.perf_counter()
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: %s\r\n\r\n"
                % ("keep-alive" if keep else "close"))
        writer.write(head.encode("latin-1"))
        pending = [asyncio.ensure_future(self._resolve_point(task))
                   for task in tasks]
        errors = 0
        try:
            for future in asyncio.as_completed(pending):
                try:
                    record = await future
                except (protocol.ProtocolError, Exception) as exc:
                    if isinstance(exc, (ConnectionResetError,
                                        BrokenPipeError)):
                        raise
                    errors += 1
                    self._registry.counter(obs_metrics.SERVE_ERRORS).inc()
                    record = {"error": "%s: %s"
                              % (type(exc).__name__, exc)}
                self._write_chunk(writer, record)
                await writer.drain()
            self._write_chunk(writer, {
                "done": True, "points": len(tasks) - errors,
                "errors": errors,
                "elapsed_ms": (time.perf_counter() - t0) * 1e3,
            })
            writer.write(b"0\r\n\r\n")
        except (ConnectionResetError, BrokenPipeError):
            for future in pending:
                future.cancel()
            raise
        return keep

    @staticmethod
    def _write_chunk(writer, record):
        data = json.dumps(record).encode("utf-8") + b"\n"
        writer.write(b"%x\r\n" % len(data) + data + b"\r\n")

    # -- plain responses ----------------------------------------------------
    @staticmethod
    def _respond_text(writer, status, text, content_type="text/plain",
                      keep=True):
        body = text.encode("utf-8")
        head = ("HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %d\r\n"
                "Connection: %s\r\n\r\n"
                % (status, _REASONS.get(status, "Unknown"), content_type,
                   len(body), "keep-alive" if keep else "close"))
        writer.write(head.encode("latin-1") + body)

    @staticmethod
    def _respond(writer, status, payload, keep=True):
        body = json.dumps(payload).encode("utf-8")
        head = ("HTTP/1.1 %d %s\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: %d\r\n"
                "Connection: %s\r\n\r\n"
                % (status, _REASONS.get(status, "Unknown"), len(body),
                   "keep-alive" if keep else "close"))
        writer.write(head.encode("latin-1") + body)

    # -- introspection ------------------------------------------------------
    def stats(self):
        """The ``/v1/stats`` payload (also handy after :meth:`run`)."""
        reg = self._registry if self._registry is not None \
            else obs_metrics.registry()
        requests = reg.value(obs_metrics.SERVE_REQUESTS)
        dedup_hits = reg.value(obs_metrics.SERVE_DEDUP_HITS)
        tier_mem = reg.value(obs_metrics.SERVE_TIER_MEM)
        tier_disk = reg.value(obs_metrics.SERVE_TIER_DISK)
        computes = reg.value(obs_metrics.SERVE_COMPUTES)
        points = dedup_hits + tier_mem + tier_disk + computes
        latency = {}
        histogram = reg.get(obs_metrics.SERVE_LATENCY_MS)
        if histogram is not None and histogram.count:
            latency = {
                "count": histogram.count,
                "mean": histogram.mean,
                "p50": histogram.quantile(0.50),
                "p95": histogram.quantile(0.95),
                "p99": histogram.quantile(0.99),
                "max": histogram.max,
            }
        return {
            "uptime_s": (time.time() - self.started_unix
                         if self.started_unix else 0.0),
            "requests": requests,
            "errors": reg.value(obs_metrics.SERVE_ERRORS),
            "points": points,
            "dedup_hits": dedup_hits,
            "tier_hits": {"mem": tier_mem, "disk": tier_disk},
            "computes": computes,
            "dedup_ratio": dedup_hits / points if points else 0.0,
            "tier_hit_ratio": ((tier_mem + tier_disk) / points
                               if points else 0.0),
            "mem_hit_ratio": tier_mem / points if points else 0.0,
            "queue_depth": self._queue_depth,
            "inflight": len(self._inflight),
            "latency_ms": latency,
            "slo": {
                "objectives": list(self._slo_results),
                "worst_burn_rate": reg.value(
                    obs_metrics.SERVE_SLO_WORST, 0.0),
                "breaches": reg.value(obs_metrics.SERVE_SLO_BREACHES),
            },
            "timeseries": {
                "samples": len(self.recorder) if self.recorder else 0,
                "interval_s": (self.recorder.interval
                               if self.recorder else None),
                "dropped": (self.recorder.dropped()
                            if self.recorder else 0),
            },
            "cache": self.cache.stats.as_dict(),
            "config": {
                "workers": self.pool.jobs,
                "shards": self.cache.shards,
                "mem_entries": self.cache.mem_entries,
                "dedup": self.dedup,
            },
        }


class _Routed(Exception):
    """Routing-level HTTP error (404/405) with a JSON message."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status
        self.message = message
