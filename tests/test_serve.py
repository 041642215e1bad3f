"""Tests for the characterization service (repro.serve).

Covers the wire protocol, the multi-tier answer path (computed -> disk
-> mem), single-flight dedup of concurrent identical queries, batch
streaming, bit-identical equivalence with direct ``characterize()``
calls, and the CLI ``serve`` subcommand end to end.
"""

import asyncio
import json
import os
import re
import subprocess
import sys

import pytest

from repro.aging import fresh as fresh_scenario, worst_case
from repro.core.characterize import characterize
from repro.inject import CampaignSpec, run_campaign
from repro.mc import MCSpec, run_mc
from repro.obs import metrics as obs_metrics
from repro.rtl import Adder, Multiplier
from repro.serve import CharacterizationServer, ServeClient, http_request
from repro.serve.client import ServeError
from repro.serve.protocol import ProtocolError, parse_query

QUERY = {"component": "adder8", "precisions": [8, 7, 6],
         "scenarios": ["worst10y", "fresh"], "effort": "high"}


def run(coro):
    return asyncio.run(coro)


async def start_server(tmp_path, **kwargs):
    kwargs.setdefault("workers", 1)
    server = CharacterizationServer(str(tmp_path), **kwargs)
    # Scope a fresh registry during start(): the server pins it for the
    # whole session, so counters don't bleed between tests.
    with obs_metrics.scoped():
        await server.start()
    return server


class TestParseQuery:
    def test_happy_path(self):
        component, precisions, scenarios, effort = parse_query(QUERY)
        assert component.family == "adder" and component.width == 8
        assert precisions == [8, 7, 6]
        assert [s.label for s in scenarios] == ["10y_worst", "fresh"]
        assert effort == "high"

    def test_defaults(self):
        component, precisions, scenarios, effort = \
            parse_query({"component": "multiplier", "width": 6})
        assert component.width == 6
        assert precisions == [6]
        assert [s.label for s in scenarios] == ["10y_worst"]
        assert effort == "ultra"

    def test_single_precision_and_scenario_strings(self):
        __c, precisions, scenarios, __e = parse_query(
            {"component": "adder8", "precision": 7,
             "scenarios": "balance1y"})
        assert precisions == [7]
        assert [s.label for s in scenarios] == ["1y_balance"]

    def test_precisions_deduped_and_sorted(self):
        __c, precisions, __s, __e = parse_query(
            {"component": "adder8", "precisions": [6, 8, 6, 7]})
        assert precisions == [8, 7, 6]

    @pytest.mark.parametrize("payload,match", [
        ([1, 2], "JSON object"),
        ({"component": "adder8", "bogus": 1}, "unknown query fields"),
        ({}, "component"),
        ({"component": 7}, "component"),
        ({"component": "warp9"}, "unknown component"),
        ({"component": "adder8", "width": "wide"}, "integer"),
        ({"component": "adder8", "precision": 8, "precisions": [8]},
         "not both"),
        ({"component": "adder8", "precisions": []}, "non-empty"),
        ({"component": "adder8", "precisions": [8, "x"]}, "integers"),
        ({"component": "adder8", "precision": 9, "width": 8},
         "out of range"),
        ({"component": "adder8", "precision": 0}, "out of range"),
        ({"component": "adder8", "scenarios": []}, "scenarios"),
        ({"component": "adder8", "scenarios": ["sometimes"]},
         "unknown scenario"),
        ({"component": "adder8", "effort": "heroic"}, "unknown effort"),
    ])
    def test_rejects(self, payload, match):
        with pytest.raises(ProtocolError, match=match):
            parse_query(payload)


class TestServerBasics:
    def test_health_stats_and_routing_errors(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                async with ServeClient(server.host, server.port) as client:
                    health = await client.healthz()
                    assert health["status"] == "ok"
                    with pytest.raises(ServeError) as exc:
                        await client.request("GET", "/v1/nope")
                    assert exc.value.status == 404
                    with pytest.raises(ServeError) as exc:
                        await client.request("GET", "/v1/characterize")
                    assert exc.value.status == 405
                    with pytest.raises(ServeError) as exc:
                        await client.characterize({"component": "warp9"})
                    assert exc.value.status == 400
                    stats = await client.stats()
                    assert stats["requests"] >= 4
                    assert stats["config"]["workers"] == 1
                    metrics = await client.metrics()
                    assert "serve.requests" in metrics["counters"]
            finally:
                await server.stop()
        run(scenario())

    def test_tier_progression_computed_mem_disk(self, tmp_path):
        async def scenario():
            # Cold compute: the worker's store is pulled straight into
            # the memory tier, so repeats answer from memory.
            server = await start_server(tmp_path)
            try:
                async with ServeClient(server.host, server.port) as client:
                    sources = []
                    for __ in range(3):
                        reply = await client.characterize(
                            dict(QUERY, precisions=[8]))
                        sources.append(reply["points"][0]["source"])
                    stats = await client.stats()
            finally:
                await server.stop()
            assert sources == ["computed", "mem", "mem"]
            assert stats["computes"] == 1
            assert stats["tier_hits"] == {"disk": 0, "mem": 2}
            assert stats["cache"]["mem_hits"] == 2
            assert stats["latency_ms"]["p95"] >= stats["latency_ms"]["p50"]

            # A fresh server over the same directory starts with a cold
            # memory tier: disk answers once, then memory.
            server = await start_server(tmp_path)
            try:
                async with ServeClient(server.host, server.port) as client:
                    sources = []
                    for __ in range(3):
                        reply = await client.characterize(
                            dict(QUERY, precisions=[8]))
                        sources.append(reply["points"][0]["source"])
                    stats = await client.stats()
            finally:
                await server.stop()
            assert sources == ["disk", "mem", "mem"]
            assert stats["computes"] == 0
            assert stats["tier_hits"] == {"disk": 1, "mem": 2}
        run(scenario())

    def test_mem_tier_disabled_stays_on_disk(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path, mem_entries=0)
            try:
                async with ServeClient(server.host, server.port) as client:
                    sources = [
                        (await client.characterize(
                            dict(QUERY, precisions=[8])))
                        ["points"][0]["source"]
                        for __ in range(3)]
            finally:
                await server.stop()
            assert sources == ["computed", "disk", "disk"]
        run(scenario())

    def test_batch_streams_points_then_summary(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                async with ServeClient(server.host, server.port) as client:
                    records = [r async for r in client.batch(QUERY)]
                    again = [r async for r in client.batch(QUERY)]
            finally:
                await server.stop()
            summary = records[-1]
            assert summary["done"] is True
            assert summary["points"] == 3 and summary["errors"] == 0
            assert {r["precision"] for r in records[:-1]} == {8, 7, 6}
            assert all(r["source"] == "computed" for r in records[:-1])
            # The replay is answered from the cache tiers, same values.
            by_precision = {r["precision"]: r for r in records[:-1]}
            for record in again[:-1]:
                assert record["source"] in ("disk", "mem")
                warm = by_precision[record["precision"]]
                assert record["metrics"] == warm["metrics"]
                assert record["aged"] == warm["aged"]
        run(scenario())

    def test_shutdown_endpoint_ends_run(self, tmp_path):
        async def scenario():
            server = CharacterizationServer(str(tmp_path), workers=1)
            task = asyncio.ensure_future(
                server.run(install_signal_handlers=False))
            while server.port == 0 or server._server is None:
                await asyncio.sleep(0.01)
            async with ServeClient(server.host, server.port) as client:
                reply = await client.shutdown()
            assert reply["status"] == "shutting down"
            await asyncio.wait_for(task, timeout=10.0)
        run(scenario())

    def test_max_requests_budget(self, tmp_path):
        async def scenario():
            server = CharacterizationServer(str(tmp_path), workers=1,
                                            max_requests=2)
            task = asyncio.ensure_future(
                server.run(install_signal_handlers=False))
            while server.port == 0 or server._server is None:
                await asyncio.sleep(0.01)
            client = ServeClient(server.host, server.port)
            await client.healthz()
            await client.healthz()
            await client.close()
            await asyncio.wait_for(task, timeout=10.0)
        run(scenario())


class TestBitIdentical:
    def test_server_matches_direct_characterize(self, lib, tmp_path):
        """Acceptance: served results are bit-identical to library calls,
        from the computed, disk and memory tiers alike."""
        async def scenario():
            server = await start_server(tmp_path)
            try:
                async with ServeClient(server.host, server.port) as client:
                    cold = await client.characterize(QUERY)
                    warm = await client.characterize(QUERY)
            finally:
                await server.stop()
            return cold, warm

        cold, warm = run(scenario())
        table = characterize(Adder(8), lib,
                             scenarios=[worst_case(10), fresh_scenario()],
                             precisions=[8, 7, 6], effort="high",
                             cache=None)
        for reply, sources in ((cold, {"computed"}),
                               (warm, {"disk", "mem"})):
            assert [p["precision"] for p in reply["points"]] == [8, 7, 6]
            for point in reply["points"]:
                precision = point["precision"]
                assert point["source"] in sources
                assert point["component"] == "adder_w8"
                assert point["metrics"]["delay_ps"] == \
                    table.fresh_ps[precision]
                assert point["metrics"]["area_um2"] == \
                    table.area_um2[precision]
                assert point["metrics"]["leakage_nw"] == \
                    table.leakage_nw[precision]
                assert point["metrics"]["gates"] == table.gates[precision]
                assert point["metrics"]["depth"] == table.depth[precision]
                assert point["aged"]["10y_worst"] == \
                    table.aged_ps[(precision, "10y_worst")]
                assert point["aged"]["fresh"] == \
                    table.aged_ps[(precision, "fresh")]


class TestSingleFlight:
    CONCURRENT = 4

    async def _fanout(self, server, query):
        # Open every connection first so all requests are in flight
        # well inside the compute window of the first one.
        clients = [ServeClient(server.host, server.port)
                   for __ in range(self.CONCURRENT)]
        for client in clients:
            await client._connection()
        try:
            return await asyncio.gather(
                *[client.characterize(query) for client in clients])
        finally:
            for client in clients:
                await client.close()

    def test_identical_concurrent_queries_compute_once(self, tmp_path):
        """Acceptance: N identical concurrent cold queries trigger
        exactly one characterization run (single-flight dedup)."""
        query = {"component": "mult8", "precision": 8,
                 "scenarios": ["worst10y"], "effort": "high"}

        async def scenario():
            server = await start_server(tmp_path)
            try:
                replies = await self._fanout(server, query)
                stats = server.stats()
            finally:
                await server.stop()
            return replies, stats

        replies, stats = run(scenario())
        assert stats["computes"] == 1
        assert stats["dedup_hits"] == self.CONCURRENT - 1
        sources = sorted(r["points"][0]["source"] for r in replies)
        assert sources == ["computed"] + ["dedup"] * (self.CONCURRENT - 1)
        # Every waiter got the owner's exact result.
        reference = replies[0]["points"][0]
        for reply in replies[1:]:
            point = reply["points"][0]
            assert point["metrics"] == reference["metrics"]
            assert point["aged"] == reference["aged"]
            assert point["key"] == reference["key"]

    def test_no_dedup_recomputes(self, tmp_path):
        query = {"component": "mult8", "precision": 8,
                 "scenarios": ["worst10y"], "effort": "high"}

        async def scenario():
            server = await start_server(tmp_path, workers=2, dedup=False)
            try:
                replies = await self._fanout(server, query)
                stats = server.stats()
            finally:
                await server.stop()
            return replies, stats

        replies, stats = run(scenario())
        assert stats["dedup_hits"] == 0
        # Without single-flight, concurrent identical misses burn
        # duplicate computations (the benchmark baseline's behavior) —
        # and still agree bit-for-bit thanks to determinism.
        assert stats["computes"] >= 2
        reference = replies[0]["points"][0]
        for reply in replies[1:]:
            assert reply["points"][0]["metrics"] == reference["metrics"]
            assert reply["points"][0]["aged"] == reference["aged"]


    #: kind -> (spec dict, in-process runner, response field)
    ARMS = {
        "inject": ({"component": "adder8",
                    "scenarios": ["worst1y", "worst10y"],
                    "clock_scales": [1.0, 0.95], "vectors": 4096,
                    "seed": 3, "effort": "high"},
                   lambda spec: run_campaign(CampaignSpec.from_dict(spec)),
                   "campaign"),
        "mc": ({"component": "adder8", "scenarios": ["worst10y"],
                "clock_scales": [1.0, 0.97], "samples": 256,
                "sweep_bits": 3, "seed": 3, "effort": "high"},
               lambda spec: run_mc(MCSpec.from_dict(spec)), "mc"),
    }

    async def _fanout_arm(self, server, kind, spec):
        clients = [ServeClient(server.host, server.port)
                   for __ in range(self.CONCURRENT)]
        for client in clients:
            await client._connection()
        try:
            return await asyncio.gather(
                *[getattr(client, kind)(spec) for client in clients])
        finally:
            for client in clients:
                await client.close()

    def _serve_arm(self, tmp_path, kind, **kwargs):
        spec, __, field = self.ARMS[kind]

        async def scenario():
            server = await start_server(tmp_path, **kwargs)
            try:
                replies = await self._fanout_arm(server, kind, spec)
                stats = server.stats()
                gauge = server._registry.value(
                    obs_metrics.SERVE_QUEUE_DEPTH)
            finally:
                await server.stop()
            return [reply[field] for reply in replies], stats, gauge

        return run(scenario())

    @pytest.mark.parametrize("kind", ["inject", "mc"])
    def test_identical_concurrent_stat_arms_compute_once(self, kind,
                                                         tmp_path):
        """N identical concurrent ``/v1/inject`` or ``/v1/mc`` bodies
        share one run, and every reply is the in-process result."""
        results, stats, gauge = self._serve_arm(tmp_path, kind)
        assert stats["computes"] == 1
        assert stats["dedup_hits"] == self.CONCURRENT - 1
        assert stats["queue_depth"] == 0 and gauge == 0
        assert stats["inflight"] == 0
        spec, run_in_process, __ = self.ARMS[kind]
        reference = json.loads(json.dumps(
            run_in_process(spec).to_dict()))
        for result in results:
            assert result == reference

    @pytest.mark.parametrize("kind", ["inject", "mc"])
    def test_stat_arms_without_dedup_recompute(self, kind, tmp_path):
        results, stats, gauge = self._serve_arm(tmp_path, kind, workers=2,
                                                dedup=False)
        assert stats["dedup_hits"] == 0
        assert stats["computes"] == self.CONCURRENT
        assert stats["queue_depth"] == 0 and gauge == 0
        assert all(result == results[0] for result in results[1:])

    @pytest.mark.parametrize("kind, body, match", [
        ("inject", {"component": "adder8", "bogus": 1},
         "unknown campaign spec fields"),
        ("inject", {"component": "adder8", "vectors": 0}, "vectors"),
        ("mc", {"component": "adder8", "bogus": 1},
         "unknown mc spec fields"),
        ("mc", {"component": "nope8"}, "unknown component"),
    ])
    def test_malformed_stat_arm_spec_is_400(self, kind, body, match,
                                            tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                async with ServeClient(server.host, server.port) as client:
                    with pytest.raises(ServeError) as excinfo:
                        await getattr(client, kind)(body)
                stats = server.stats()
            finally:
                await server.stop()
            return excinfo.value, stats

        exc, stats = run(scenario())
        assert exc.status == 400
        assert match in str(exc)
        assert stats["computes"] == 0 and stats["queue_depth"] == 0


class TestTelemetryEndpoints:
    def test_metrics_prometheus_text_parses(self, tmp_path):
        """Acceptance: /metrics output parses line-by-line under the
        Prometheus text-format 0.0.4 grammar."""
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? '
            r'(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$')
        comment = re.compile(r"^# (HELP|TYPE) repro_[a-zA-Z0-9_]+")

        async def scenario():
            server = await start_server(tmp_path)
            try:
                async with ServeClient(server.host, server.port) as client:
                    await client.healthz()
                    return await client.prometheus()
            finally:
                await server.stop()

        text = run(scenario())
        assert isinstance(text, str) and text
        seen_types = 0
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("#"):
                assert comment.match(line), line
                seen_types += line.startswith("# TYPE")
                continue
            assert sample.match(line), line
        assert seen_types >= 2
        assert "repro_serve_requests_total" in text
        assert 'repro_serve_latency_ms_bucket{le="+Inf"}' in text

    def test_timeseries_endpoint(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path, ts_interval=0.05)
            try:
                async with ServeClient(server.host, server.port) as client:
                    await client.healthz()
                    deadline = asyncio.get_event_loop().time() + 5.0
                    while len(server.recorder) < 3:
                        assert asyncio.get_event_loop().time() < deadline
                        await asyncio.sleep(0.02)
                    doc = await client.timeseries()
                    windowed = await client.timeseries(window_s=0.0)
            finally:
                await server.stop()
            return doc, windowed

        doc, windowed = run(scenario())
        assert doc["interval_s"] == 0.05
        assert len(doc["samples"]) >= 3
        last = doc["samples"][-1]
        assert last["counters"]["serve.requests"] >= 1
        assert doc["samples"][0]["t"] <= last["t"]
        assert len(windowed["samples"]) <= len(doc["samples"])

    def test_profile_endpoint_and_conflict(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            try:
                async with ServeClient(server.host, server.port) as client:
                    report = await client.profile(seconds=0.05)
                    chrome = await client.profile(seconds=0.05,
                                                  fmt="chrome")
                    with pytest.raises(ServeError) as exc:
                        await client.profile(seconds=0)
                    bad_seconds = exc.value.status
                    # A second profile while one runs: 409 Conflict.
                    slow = asyncio.ensure_future(
                        client.profile(seconds=0.5))
                    await asyncio.sleep(0.1)
                    async with ServeClient(server.host,
                                           server.port) as other:
                        with pytest.raises(ServeError) as exc:
                            await other.profile(seconds=0.05)
                        conflict = exc.value.status
                    await slow
            finally:
                await server.stop()
            return report, chrome, bad_seconds, conflict

        report, chrome, bad_seconds, conflict = run(scenario())
        assert report["duration_s"] >= 0.04
        assert report["interval_s"] > 0
        assert isinstance(report["collapsed"], str)
        assert isinstance(report["top"], list)
        assert isinstance(chrome["traceEvents"], list)
        assert bad_seconds == 400
        assert conflict == 409

    def test_stats_carries_slo_and_timeseries_sections(self, tmp_path):
        async def scenario():
            server = await start_server(
                tmp_path, ts_interval=0.05,
                slos=["latency:p99:500:1", "errors:99.9:1"])
            try:
                async with ServeClient(server.host, server.port) as client:
                    await client.healthz()
                    deadline = asyncio.get_event_loop().time() + 5.0
                    while not server._slo_results:
                        assert asyncio.get_event_loop().time() < deadline
                        await asyncio.sleep(0.02)
                    return await client.stats()
            finally:
                await server.stop()

        stats = run(scenario())
        assert len(stats["slo"]["objectives"]) == 2
        names = {o["name"] for o in stats["slo"]["objectives"]}
        assert names == {"latency_p99_under_500ms", "availability_99.9"}
        assert stats["slo"]["worst_burn_rate"] >= 0.0
        assert stats["timeseries"]["samples"] >= 1
        assert stats["timeseries"]["interval_s"] == 0.05

    def test_access_log_lines(self, tmp_path, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro.serve.access"):
            async def scenario():
                server = await start_server(tmp_path)
                try:
                    async with ServeClient(server.host,
                                           server.port) as client:
                        await client.characterize(
                            dict(QUERY, precisions=[8]))
                finally:
                    await server.stop()
            run(scenario())
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "repro.serve.access"]
        assert lines, "no access-log lines emitted"
        line = next(l for l in lines if "path=/v1/characterize" in l)
        assert "method=POST" in line and "status=200" in line
        assert re.search(r"trace=[0-9a-f]{16}", line)
        assert re.search(r"latency_ms=\d+\.\d{3}", line)
        assert "computed:1" in line


class TestDistributedTrace:
    def test_batch_produces_one_connected_span_tree(self, tmp_path):
        """Acceptance: a /v1/batch against a --jobs 4 server yields ONE
        connected span tree — client root -> server request span ->
        worker span — in the exported Chrome trace."""
        from repro.obs import trace as obs_trace

        async def scenario():
            server = await start_server(tmp_path, workers=4)
            try:
                with obs_trace.span("client.root") as root:
                    async with ServeClient(server.host,
                                           server.port) as client:
                        records = [r async for r in client.batch(
                            dict(QUERY, precisions=[8, 7]))]
            finally:
                await server.stop()
            return root, records

        with obs_trace.capture() as tracer:
            root, records = run(scenario())
        assert records[-1]["done"] is True and records[-1]["points"] == 2

        events = [e for e in tracer.chrome_events() if e.get("ph") == "X"]
        by_id = {e["args"]["span_id"]: e for e in events
                 if "span_id" in e.get("args", {})}
        root_event = by_id[root.span_id]

        def chains_to_root(event):
            hops = 0
            while event["args"].get("parent_id") in by_id:
                event = by_id[event["args"]["parent_id"]]
                hops += 1
            return event is root_event and hops

        requests = [e for e in events if e["name"] == "serve.request"]
        batch_requests = [e for e in requests
                          if chains_to_root(e)]
        assert batch_requests, "no serve.request chained to client root"

        workers = [e for e in events
                   if e["name"] == "characterize.point"
                   and chains_to_root(e)]
        assert len(workers) >= 1
        # Every span on the chain shares the client's trace id: one
        # trace, client -> server -> pool worker.
        for event in workers + batch_requests:
            assert event["args"]["trace_id"] == root.trace_id
        # The worker spans really crossed a process boundary.
        assert any(e["pid"] != os.getpid() for e in workers)


class TestDrainShutdown:
    def test_max_requests_flushes_final_timeseries_sample(self, tmp_path):
        jsonl = str(tmp_path / "ts.jsonl")

        async def scenario():
            server = CharacterizationServer(
                str(tmp_path / "cache"), workers=1, max_requests=2,
                ts_interval=30.0, ts_jsonl=jsonl)
            with obs_metrics.scoped():
                task = asyncio.ensure_future(
                    server.run(install_signal_handlers=False))
                while server.port == 0 or server._server is None:
                    await asyncio.sleep(0.01)
                client = ServeClient(server.host, server.port)
                await client.healthz()
                await client.healthz()
                await client.close()
                await asyncio.wait_for(task, timeout=10.0)
        run(scenario())

        import json
        with open(jsonl) as handle:
            rows = [json.loads(line) for line in handle]
        # The 30s sampling interval never fired: every recorded sample
        # is the baseline + the final drain-time flush, and the final
        # one saw both requests.
        assert rows
        assert rows[-1]["counters"]["serve.requests"] == 2

    def test_stop_drains_inflight_request(self, tmp_path):
        """Shutdown must complete in-flight work: a characterize whose
        handler has started before stop() still gets its full answer."""
        async def scenario():
            server = await start_server(tmp_path, workers=1,
                                        drain_grace_s=30.0)
            started, release = asyncio.Event(), asyncio.Event()
            handle = server._handle

            async def held_handle(request, writer):
                # In flight from here on; held until stop() has begun.
                started.set()
                await release.wait()
                return await handle(request, writer)

            server._handle = held_handle
            client = ServeClient(server.host, server.port)
            inflight = asyncio.ensure_future(
                client.characterize(dict(QUERY, precisions=[8])))
            await asyncio.wait_for(started.wait(), timeout=10.0)
            stopping = asyncio.ensure_future(server.stop())
            await asyncio.sleep(0)  # stop() runs up to its first await
            assert server._draining
            release.set()
            await asyncio.wait_for(stopping, timeout=60.0)
            reply = await inflight
            await client.close()
            return reply

        reply = run(scenario())
        assert reply["points"][0]["source"] == "computed"

    def test_draining_closes_keepalive_connections(self, tmp_path):
        async def scenario():
            server = await start_server(tmp_path)
            client = ServeClient(server.host, server.port)
            await client.healthz()  # idle keep-alive connection now open
            await asyncio.wait_for(server.stop(), timeout=5.0)
            await client.close()
        run(scenario())


class TestCLIServe:
    def test_serve_smoke_cold_warm_shutdown(self, tmp_path):
        """Tier-1 smoke: ephemeral port, cold + warm query, graceful
        shutdown with a zero exit code."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--cache-dir", str(tmp_path), "--port", "0", "--jobs", "1"],
            env=env, cwd=root,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, "no listening banner in %r" % banner
            host, port = match.group(1), int(match.group(2))
            query = {"component": "adder8", "precision": 8,
                     "scenarios": ["worst10y"], "effort": "low"}
            status, cold = http_request(host, port, "POST",
                                        "/v1/characterize", query)
            assert status == 200
            assert cold["points"][0]["source"] == "computed"
            status, warm = http_request(host, port, "POST",
                                        "/v1/characterize", query)
            assert status == 200
            assert warm["points"][0]["source"] in ("disk", "mem")
            assert warm["points"][0]["metrics"] == \
                cold["points"][0]["metrics"]
            status, __ = http_request(host, port, "POST", "/v1/shutdown")
            assert status == 200
            out, __ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "served 3 requests" in out

    def test_serve_requires_cache_dir(self, capsys, monkeypatch):
        from repro.cli import main
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["serve"]) == 2
        assert "cache directory" in capsys.readouterr().err
