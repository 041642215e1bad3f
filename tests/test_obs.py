"""Tests for the observability subsystem (repro.obs).

Covers the tentpole guarantees: span nesting and ambient propagation
(threads, asyncio, process-pool re-parenting), Chrome-trace / JSONL
export validity, associative metrics merging, cache-effectiveness
metrics, the run manifest and the logging hierarchy.
"""

import asyncio
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, strategies as st

from repro.core.cache import CharacterizationCache
from repro.obs import logs as obs_logs
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class TestSpanBasics:
    def test_noop_when_tracing_off(self):
        assert obs_trace.active_tracer() is None
        with obs_trace.span("orphan", key="value") as s:
            assert s is None
        assert obs_trace.current_span() is None

    def test_nesting_builds_tree(self):
        with obs_trace.capture() as tracer:
            with obs_trace.span("outer", component="adder") as outer:
                assert obs_trace.current_span() is outer
                with obs_trace.span("inner", precision=6) as inner:
                    assert obs_trace.current_span() is inner
            with obs_trace.span("sibling"):
                pass
        assert [r.name for r in tracer.roots] == ["outer", "sibling"]
        assert [c.name for c in tracer.roots[0].children] == ["inner"]
        assert tracer.roots[0].attrs == {"component": "adder"}
        assert tracer.roots[0].children[0].attrs == {"precision": 6}
        assert all(s.dur >= 0.0 for s, __d, __p in tracer.walk())

    def test_attrs_can_be_added_mid_span(self):
        with obs_trace.capture() as tracer:
            with obs_trace.span("point") as s:
                s.attrs["cache"] = "hit"
        assert tracer.roots[0].attrs["cache"] == "hit"

    def test_span_closed_even_on_exception(self):
        with obs_trace.capture() as tracer:
            with pytest.raises(RuntimeError):
                with obs_trace.span("doomed"):
                    raise RuntimeError("boom")
        assert [r.name for r in tracer.roots] == ["doomed"]
        assert obs_trace.current_span() is None

    def test_serialization_round_trip(self):
        with obs_trace.capture() as tracer:
            with obs_trace.span("root", width=8):
                with obs_trace.span("leaf", scenario="10y_worst"):
                    pass
        trees = tracer.to_dicts()
        json.dumps(trees)  # wire format must be plain JSON
        clone = obs_trace.Span.from_dict(trees[0])
        assert clone.name == "root"
        assert clone.children[0].attrs == {"scenario": "10y_worst"}
        assert clone.pid == os.getpid()
        assert clone.to_dict() == trees[0]

    def test_walk_reports_depth_and_parent(self):
        with obs_trace.capture() as tracer:
            with obs_trace.span("a"):
                with obs_trace.span("b"):
                    with obs_trace.span("c"):
                        pass
        depths = {s.name: (d, p.name if p else None)
                  for s, d, p in tracer.walk()}
        assert depths == {"a": (0, None), "b": (1, "a"), "c": (2, "b")}

    def test_totals_aggregates_by_name(self):
        with obs_trace.capture() as tracer:
            for __ in range(3):
                with obs_trace.span("stage"):
                    pass
        totals = tracer.totals()
        assert totals["stage"]["calls"] == 3
        assert totals["stage"]["seconds"] >= 0.0
        assert totals["stage"]["self_seconds"] == totals["stage"]["seconds"]

    def test_self_seconds_subtract_children(self):
        tracer = obs_trace.Tracer()
        tracer.add_root(obs_trace.Span("run", dur=5.0, children=[
            obs_trace.Span("sta", dur=1.5),
            obs_trace.Span("synthesize", dur=2.0, children=[
                obs_trace.Span("sta", dur=0.5)])]))
        totals = tracer.totals()
        assert totals["run"] == {"calls": 1, "seconds": 5.0,
                                 "self_seconds": 1.5}
        assert totals["synthesize"]["self_seconds"] == 1.5
        assert totals["sta"] == {"calls": 2, "seconds": 2.0,
                                 "self_seconds": 2.0}

    def test_concurrent_children_clamp_self_seconds(self):
        # Two adopted pool workers ran side by side under a 1 s fan-out.
        tracer = obs_trace.Tracer()
        tracer.add_root(obs_trace.Span("parallel.map", dur=1.0, children=[
            obs_trace.Span("characterize.point", dur=0.9),
            obs_trace.Span("characterize.point", dur=0.8)]))
        assert tracer.totals()["parallel.map"]["self_seconds"] == 0.0


_SPAN_NAMES = st.sampled_from(["synthesize", "sta", "characterize.point",
                               "stress_extraction"])
_SPAN_TREES = st.recursive(
    st.tuples(_SPAN_NAMES, st.floats(0.0, 1.0), st.just([])),
    lambda children: st.tuples(_SPAN_NAMES, st.floats(0.0, 1.0),
                               st.lists(children, max_size=3)),
    max_leaves=20)


def _span_tree(node):
    """A span whose duration is its own time plus its children's."""
    name, own, children = node
    spans = [_span_tree(child) for child in children]
    return obs_trace.Span(name, dur=own + sum(c.dur for c in spans),
                          children=spans)


@given(roots=st.lists(_SPAN_TREES, min_size=1, max_size=3))
def test_totals_self_seconds_sum_to_root_wall(roots):
    tracer = obs_trace.Tracer()
    for root in roots:
        tracer.add_root(_span_tree(root))
    totals = tracer.totals()
    wall = sum(root.dur for root in tracer.roots)
    assert sum(entry["self_seconds"] for entry in totals.values()) \
        == pytest.approx(wall, abs=1e-9)
    for entry in totals.values():
        assert 0.0 <= entry["self_seconds"] <= entry["seconds"] + 1e-9


class TestAmbientPropagation:
    def test_nested_capture_hides_outer(self):
        with obs_trace.capture() as outer:
            with obs_trace.span("parent"):
                with obs_trace.capture() as inner:
                    with obs_trace.span("worker-local"):
                        pass
        assert [r.name for r in inner.roots] == ["worker-local"]
        assert [r.name for r in outer.roots] == ["parent"]
        assert outer.roots[0].children == []

    def test_wrap_carries_context_into_threads(self):
        pool = ThreadPoolExecutor(max_workers=2)  # pre-dates capture()
        try:
            with obs_trace.capture() as tracer:
                with obs_trace.span("submit"):
                    def work(i):
                        with obs_trace.span("task", index=i):
                            return i
                    futures = [pool.submit(obs_trace.wrap(work), i)
                               for i in range(4)]
                    assert sorted(f.result() for f in futures) == [0, 1, 2, 3]
        finally:
            pool.shutdown()
        (root,) = tracer.roots
        assert root.name == "submit"
        assert sorted(c.attrs["index"] for c in root.children) == [0, 1, 2, 3]

    def test_asyncio_tasks_do_not_corrupt_each_other(self):
        async def task(name, tracer_holder):
            with obs_trace.capture() as tracer:
                tracer_holder[name] = tracer
                with obs_trace.span(name):
                    await asyncio.sleep(0)
                    with obs_trace.span(name + ".child"):
                        await asyncio.sleep(0)

        async def main():
            holder = {}
            await asyncio.gather(task("a", holder), task("b", holder))
            return holder

        holder = asyncio.run(main())
        for name in ("a", "b"):
            (root,) = holder[name].roots
            assert root.name == name
            assert [c.name for c in root.children] == [name + ".child"]

    def test_adopt_reparents_under_current_span(self):
        # Simulate the worker side: its own capture, shipped as dicts.
        with obs_trace.capture() as worker:
            with obs_trace.span("characterize.point", precision=6):
                with obs_trace.span("synthesize"):
                    pass
        wire = worker.to_dicts()
        wire = json.loads(json.dumps(wire))  # across the pickle boundary

        with obs_trace.capture() as parent:
            with obs_trace.span("characterize") as top:
                adopted = obs_trace.adopt(wire)
        assert len(adopted) == 1
        (root,) = parent.roots
        assert root is top
        assert [c.name for c in root.children] == ["characterize.point"]
        assert root.children[0].children[0].name == "synthesize"

    def test_adopt_is_noop_when_off(self):
        assert obs_trace.adopt([{"name": "x", "t0": 0.0}]) == []


class TestProcessPoolReparenting:
    def test_warm_serial_characterize_synthesizes_nothing(self, lib):
        """Also warms Adder(6)/high in this process's sweep memo ahead of
        the jobs=2 test below, whose forked workers inherit the memo."""
        from repro.aging import worst_case
        from repro.core import characterize
        from repro.rtl import Adder

        def run():
            return characterize(Adder(6), lib, scenarios=[worst_case(10)],
                                precisions=[6, 5], effort="high", jobs=1)

        first = run()
        with obs_metrics.scoped() as reg:
            again = run()
        assert reg.value(obs_metrics.SYNTH_RUNS) == 0
        assert again == first

    def test_characterize_jobs2_reparents_worker_spans(self, lib):
        from repro.aging import worst_case
        from repro.core import characterize
        from repro.rtl import Adder
        from repro.synth import clear_sweep_memo

        # Forked workers inherit the sweep memo: start cold so that
        # they synthesize.
        clear_sweep_memo()
        with obs_trace.capture() as tracer, obs_metrics.scoped() as reg:
            characterize(Adder(6), lib, scenarios=[worst_case(10)],
                         precisions=[6, 5], effort="high", jobs=2)

        by_name = {}
        for s, __d, __p in tracer.walk():
            by_name.setdefault(s.name, []).append(s)
        assert len(by_name["characterize"]) == 1
        assert len(by_name["characterize.point"]) == 2
        # Worker spans landed inside this process's trace tree...
        top = by_name["characterize"][0]
        names = {s.name for s, __d, __p in top.walk()}
        assert "characterize.point" in names
        # Synthesis traces as the one-time base run or a sweep
        # derivation; aged corners as batched (or scalar) STA.
        assert names & {"synth.synthesize", "synth.sweep.derive"}
        assert names & {"sta.analyze", "sta.analyze_batch"}
        # ...and kept the worker's pid, distinct from the parent's.
        pids = {s.pid for s in by_name["characterize.point"]}
        assert pids and os.getpid() not in pids
        # Worker metrics merged into the submitting scope.
        assert reg.value(obs_metrics.SYNTH_RUNS) >= 2
        assert (reg.value(obs_metrics.STA_RUNS)
                + reg.value(obs_metrics.STA_BATCH_RUNS)) >= 2

    def test_characterize_serial_has_same_span_shape(self, lib):
        from repro.aging import worst_case
        from repro.core import characterize
        from repro.rtl import Adder

        with obs_trace.capture() as tracer:
            characterize(Adder(6), lib, scenarios=[worst_case(10)],
                         precisions=[6], effort="high", jobs=1)
        names = {s.name for s, __d, __p in tracer.walk()}
        assert {"characterize", "characterize.point"} <= names
        assert names & {"synth.synthesize", "synth.sweep.derive"}
        assert names & {"sta.analyze", "sta.analyze_batch"}


class TestExports:
    def _sample_tracer(self):
        with obs_trace.capture() as tracer:
            with obs_trace.span("run", command="flow"):
                with obs_trace.span("stage", precision=6):
                    pass
                with obs_trace.span("stage", precision=5):
                    pass
        return tracer

    def test_chrome_export_is_valid(self, tmp_path):
        path = tmp_path / "trace.json"
        self._sample_tracer().write_chrome(path)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        timed = [e for e in events if e["ph"] == "X"]
        assert meta and all(e["name"] == "process_name" for e in meta)
        assert len(timed) == 3
        ts = [e["ts"] for e in timed]
        assert ts == sorted(ts)
        assert all(e["ts"] >= 0 for e in timed)
        assert all(e["dur"] >= 0 for e in timed)
        assert {e["name"] for e in timed} == {"run", "stage"}
        assert {e["args"].get("precision") for e in timed} == {None, 6, 5}

    def test_chrome_export_labels_worker_processes(self, tmp_path):
        tracer = obs_trace.Tracer()
        tracer.add_root(obs_trace.Span("parent", t0=1.0, dur=2.0))
        tracer.adopt([{"name": "remote", "t0": 1.5, "dur": 0.5,
                       "pid": 99999, "tid": 1, "children": []}])
        events = tracer.chrome_events()
        labels = {e["pid"]: e["args"]["name"]
                  for e in events if e["ph"] == "M"}
        assert labels[99999] == "repro worker 99999"
        assert labels[os.getpid()] == "repro"

    def test_empty_tracer_exports_no_events(self):
        assert obs_trace.Tracer().chrome_events() == []

    def test_jsonl_export(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._sample_tracer().write_jsonl(path)
        rows = [json.loads(line)
                for line in path.read_text().splitlines()]
        assert [r["name"] for r in rows] == ["run", "stage", "stage"]
        assert [r["depth"] for r in rows] == [0, 1, 1]
        assert rows[1]["parent"] == "run"
        assert rows[0]["parent"] is None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_gauge_round_trip(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("cache.hits").inc(3)
        reg.gauge("sim.vectors_per_sec").set(1.5e6)
        snap = reg.snapshot()
        assert snap["schema"] == obs_metrics.METRICS_SCHEMA
        assert snap["counters"] == {"cache.hits": 3}
        assert snap["gauges"] == {"sim.vectors_per_sec": 1.5e6}
        other = obs_metrics.MetricsRegistry().merge(snap).merge(snap)
        assert other.value("cache.hits") == 6
        assert other.value("sim.vectors_per_sec") == 1.5e6  # last write

    def test_get_or_create_rejects_kind_mismatch(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_histogram_observe(self):
        h = obs_metrics.Histogram(boundaries=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.buckets == [1, 1, 1]
        assert h.count == 3 and h.sum == 55.5
        assert h.min == 0.5 and h.max == 50.0
        assert h.mean == pytest.approx(18.5)

    def test_histogram_merge_is_associative(self):
        def snap(values):
            h = obs_metrics.Histogram(boundaries=(1.0, 10.0, 100.0))
            for v in values:
                h.observe(v)
            return h.to_snapshot()

        a, b, c = snap([0.1, 2.0]), snap([20.0]), snap([200.0, 5.0])

        def fold(x, y):
            h = obs_metrics.Histogram(boundaries=(1.0, 10.0, 100.0))
            h.merge_snapshot(x)
            h.merge_snapshot(y)
            return h.to_snapshot()

        left = fold(fold(a, b), c)    # (a + b) + c
        right = fold(a, fold(b, c))   # a + (b + c)
        assert left == right
        assert left["count"] == 5
        assert left["buckets"] == [1, 2, 1, 1]

    def test_histogram_merge_rejects_boundary_mismatch(self):
        h = obs_metrics.Histogram(boundaries=(1.0, 2.0))
        other = obs_metrics.Histogram(boundaries=(1.0, 3.0)).to_snapshot()
        with pytest.raises(ValueError, match="different boundaries"):
            h.merge_snapshot(other)

    def test_histogram_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            obs_metrics.Histogram(boundaries=(2.0, 1.0))

    def test_scoped_registry_isolation(self):
        obs_metrics.inc("test.outer")
        default_before = obs_metrics.registry().value("test.outer")
        with obs_metrics.scoped() as reg:
            obs_metrics.inc("test.inner", 2)
            assert obs_metrics.registry() is reg
            assert reg.value("test.inner") == 2
            assert reg.value("test.outer") == 0
        assert obs_metrics.registry().value("test.inner") == 0
        assert obs_metrics.registry().value("test.outer") == default_before

    def test_wrap_carries_scope_into_threads(self):
        pool = ThreadPoolExecutor(max_workers=2)
        try:
            with obs_metrics.scoped() as reg:
                def work():
                    obs_metrics.inc("test.threaded")
                for f in [pool.submit(obs_metrics.wrap(work))
                          for __ in range(5)]:
                    f.result()
            assert reg.value("test.threaded") == 5
        finally:
            pool.shutdown()

    def test_snapshot_is_json_serializable(self):
        with obs_metrics.scoped() as reg:
            obs_metrics.inc(obs_metrics.CACHE_HITS)
            obs_metrics.set_gauge(obs_metrics.SIM_VECTORS_PER_SEC, 1e6)
            obs_metrics.observe(obs_metrics.SYNTH_DELAY_PS, 1234.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"][obs_metrics.CACHE_HITS] == 1
        assert snap["histograms"][obs_metrics.SYNTH_DELAY_PS]["count"] == 1


class TestHistogramQuantile:
    def test_empty_histogram_has_no_quantiles(self):
        h = obs_metrics.Histogram(boundaries=(1.0, 10.0))
        assert h.quantile(0.5) is None

    def test_out_of_range_rejected(self):
        h = obs_metrics.Histogram(boundaries=(1.0, 10.0))
        h.observe(5.0)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(-0.1)

    def test_single_observation_is_every_quantile(self):
        h = obs_metrics.Histogram(boundaries=(1.0, 10.0))
        h.observe(4.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(4.0)

    def test_extremes_clamp_to_observed_min_max(self):
        h = obs_metrics.Histogram(boundaries=(1.0, 10.0, 100.0))
        for value in (0.5, 3.0, 42.0, 250.0):
            h.observe(value)
        assert h.quantile(0.0) == pytest.approx(0.5)
        assert h.quantile(1.0) == pytest.approx(250.0)

    def test_interpolates_within_bucket(self):
        h = obs_metrics.Histogram(boundaries=(0.0, 10.0))
        for value in (2.0, 4.0, 6.0, 8.0):
            h.observe(value)
        # All mass sits in (0, 10]; the median interpolates to mid-bucket.
        assert h.quantile(0.5) == pytest.approx(4.0, abs=1.01)
        assert 2.0 <= h.quantile(0.25) <= h.quantile(0.75) <= 8.0

    def test_quantile_after_merge(self):
        a = obs_metrics.Histogram(boundaries=(1.0, 10.0, 100.0))
        b = obs_metrics.Histogram(boundaries=(1.0, 10.0, 100.0))
        for value in (2.0, 3.0):
            a.observe(value)
        for value in (40.0, 50.0):
            b.observe(value)
        a.merge_snapshot(b.to_snapshot())
        assert a.count == 4
        assert a.quantile(0.0) == pytest.approx(2.0)
        assert a.quantile(1.0) == pytest.approx(50.0)
        # Median straddles the bucket boundary between the two sources.
        assert 2.0 <= a.quantile(0.5) <= 50.0

    def test_empty_extremes_are_none(self):
        h = obs_metrics.Histogram(boundaries=(1.0, 10.0))
        assert h.quantile(0.0) is None
        assert h.quantile(1.0) is None

    def test_single_overflow_bucket_observation(self):
        # One observation beyond the last boundary: every quantile is
        # that value, no interpolation against a nonexistent upper edge.
        h = obs_metrics.Histogram(boundaries=(1.0, 10.0))
        h.observe(500.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == pytest.approx(500.0)

    def test_bucket_only_wire_data_interpolates_on_edges(self):
        # Windowed / delta'd histograms carry buckets but no min/max
        # (the SLO evaluator's view). Quantiles must still work, falling
        # back to the bucket boundary edges.
        h = obs_metrics.Histogram(boundaries=(1.0, 10.0, 100.0))
        h.buckets = [0, 4, 0, 0]
        h.count = 4
        assert h.min is None and h.max is None
        q = h.quantile(0.5)
        assert 1.0 <= q <= 10.0
        assert h.quantile(0.0) == pytest.approx(1.0)
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_bucket_only_overflow_clamps_to_last_boundary(self):
        h = obs_metrics.Histogram(boundaries=(1.0, 10.0))
        h.buckets = [0, 0, 3]
        h.count = 3
        # All mass in the unbounded overflow bucket with no max known:
        # quantiles degrade to the last finite boundary, never None/inf.
        for q in (0.0, 0.5, 1.0):
            value = h.quantile(q)
            assert value is not None
            assert value >= 10.0
            assert value != float("inf")


class TestPrometheusText:
    # Prometheus text exposition format 0.0.4, simplified to what the
    # exporter can emit (no label commas/escapes beyond le="...").
    SAMPLE = r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? ' \
             r'(-?\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|-Inf|NaN)$'

    def _render(self):
        reg = obs_metrics.MetricsRegistry()
        reg.counter(obs_metrics.SERVE_REQUESTS).inc(7)
        reg.gauge(obs_metrics.SERVE_QUEUE_DEPTH).set(2.0)
        hist = reg.histogram(obs_metrics.SERVE_LATENCY_MS)
        for value in (0.5, 3.0, 250.0):
            hist.observe(value)
        return obs_metrics.prometheus_text(reg.snapshot())

    def test_every_line_matches_the_grammar(self):
        import re
        text = self._render()
        assert text.endswith("\n")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                assert line == "" or re.match(
                    r"^# (HELP|TYPE) repro_[a-zA-Z0-9_]+", line), line
                continue
            assert re.match(self.SAMPLE, line), line

    def test_counter_gauge_histogram_conventions(self):
        text = self._render()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 7" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "# TYPE repro_serve_latency_ms histogram" in text
        assert 'repro_serve_latency_ms_bucket{le="+Inf"} 3' in text
        assert "repro_serve_latency_ms_count 3" in text
        assert "repro_serve_latency_ms_sum 253.5" in text

    def test_buckets_are_cumulative_and_ordered(self):
        import re
        text = self._render()
        counts = [int(m.group(2)) for m in re.finditer(
            r'repro_serve_latency_ms_bucket\{le="([^"]+)"\} (\d+)',
            text)]
        assert counts == sorted(counts)
        assert counts[-1] == 3  # +Inf bucket holds everything


class TestOutOfOrderMerge:
    def test_worker_snapshots_merge_order_independent(self):
        """Worker metric snapshots arriving out of order fold to the
        same registry state — counters, gauge last-write aside,
        histograms bucket-for-bucket."""
        def worker_snapshot(values):
            reg = obs_metrics.MetricsRegistry()
            reg.counter("serve.computes").inc(len(values))
            hist = reg.histogram(obs_metrics.SERVE_LATENCY_MS)
            for value in values:
                hist.observe(value)
            return reg.snapshot()

        snaps = [worker_snapshot([1.0, 2.0]),
                 worker_snapshot([300.0]),
                 worker_snapshot([0.1, 40.0, 5.0])]

        forward = obs_metrics.MetricsRegistry()
        for snap in snaps:
            forward.merge(snap)
        backward = obs_metrics.MetricsRegistry()
        for snap in reversed(snaps):
            backward.merge(snap)

        fwd, bwd = forward.snapshot(), backward.snapshot()
        assert fwd["counters"] == bwd["counters"]
        assert fwd["histograms"] == bwd["histograms"]
        hist = forward.get(obs_metrics.SERVE_LATENCY_MS)
        assert hist.count == 6
        assert hist.quantile(1.0) == pytest.approx(300.0)


# ---------------------------------------------------------------------------
# cache-effectiveness metrics
# ---------------------------------------------------------------------------

class TestCacheMetrics:
    METRICS = {"delay_ps": 100.0, "area_um2": 1.0, "leakage_nw": 2.0,
               "gates": 10, "depth": 4}
    KEY = "ab" + "0" * 62

    def test_cold_load_then_store_then_hit(self, tmp_path):
        cache = CharacterizationCache(tmp_path)
        with obs_metrics.scoped() as reg:
            assert cache.load(self.KEY) is None
            cache.store(self.KEY, self.METRICS,
                        {"fp1": {"label": "10y_worst", "delay_ps": 110.0}})
            assert cache.load(self.KEY) is not None
        assert reg.value(obs_metrics.CACHE_MISSES) == 1
        assert reg.value(obs_metrics.CACHE_STORES) == 1
        assert reg.value(obs_metrics.CACHE_HITS) == 1
        assert reg.value(obs_metrics.CACHE_BYTES_WRITTEN) > 0
        # store() populates the in-memory tier, so the warm hit above is
        # served without touching disk; a fresh instance must read it.
        assert reg.value(obs_metrics.CACHE_MEM_HITS) == 1
        assert reg.value(obs_metrics.CACHE_BYTES_READ) == 0
        with obs_metrics.scoped() as cold:
            assert CharacterizationCache(tmp_path).load(self.KEY) is not None
        assert cold.value(obs_metrics.CACHE_BYTES_READ) > 0
        assert cold.value(obs_metrics.CACHE_MEM_HITS) == 0
        # Legacy CacheStats stayed in sync (the COUNT_CACHE_* aliases).
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_peek_emits_no_metrics(self, tmp_path):
        cache = CharacterizationCache(tmp_path)
        cache.store(self.KEY, self.METRICS, {})
        with obs_metrics.scoped() as reg:
            assert cache.peek(self.KEY) is not None
        assert reg.value(obs_metrics.CACHE_HITS) == 0
        assert reg.value(obs_metrics.CACHE_BYTES_READ) == 0

    def test_corrupt_entry_counts_recovery(self, tmp_path):
        cache = CharacterizationCache(tmp_path, mem_entries=0)
        cache.store(self.KEY, self.METRICS, {})
        path = cache._path(self.KEY)
        with open(path, "w") as handle:
            handle.write("{not json")
        with obs_metrics.scoped() as reg:
            assert cache.load(self.KEY) is None
        assert reg.value(obs_metrics.CACHE_ERRORS) == 1
        assert reg.value(obs_metrics.CACHE_MISSES) == 1
        assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------

class TestManifest:
    def test_build_and_write(self, tmp_path, lib):
        manifest = obs_manifest.build_manifest(
            "repro-aging flow",
            config={"design": "fir", "width": 10},
            library=lib,
            stages={"synthesize": {"calls": 3, "seconds": 0.5}},
            metrics={"schema": 1, "counters": {"cache.hits": 2},
                     "gauges": {}, "histograms": {}},
            duration_s=1.25,
            extra={"note": "test"})
        assert manifest["schema"] == obs_manifest.MANIFEST_SCHEMA
        assert manifest["command"] == "repro-aging flow"
        assert manifest["config"] == {"design": "fir", "width": 10}
        assert len(manifest["fingerprints"]["config"]) == 64
        assert manifest["library"]["name"] == lib.name
        assert len(manifest["library"]["fingerprint"]) == 64
        assert manifest["stages"]["synthesize"]["calls"] == 3
        assert manifest["duration_s"] == 1.25
        assert manifest["extra"] == {"note": "test"}
        assert manifest["host"]["pid"] == os.getpid()

        path = obs_manifest.write_manifest(tmp_path / "run.json", manifest)
        assert json.loads(open(path).read()) == json.loads(
            json.dumps(manifest))

    def test_config_fingerprint_is_stable(self):
        a = obs_manifest.build_manifest("x", config={"b": 2, "a": 1})
        b = obs_manifest.build_manifest("x", config={"a": 1, "b": 2})
        assert (a["fingerprints"]["config"]
                == b["fingerprints"]["config"])

    def test_peak_rss_positive_on_linux(self):
        rss = obs_manifest.peak_rss_bytes()
        assert rss is None or rss > 1024 * 1024

    def test_default_manifest_path(self):
        assert (obs_manifest.default_manifest_path(None, "out/trace.json")
                == os.path.join("out", "trace.manifest.json"))
        assert (obs_manifest.default_manifest_path("m.json", "t.json")
                == "m.manifest.json")
        assert obs_manifest.default_manifest_path(None, None) is None


# ---------------------------------------------------------------------------
# logging hierarchy
# ---------------------------------------------------------------------------

class TestLogs:
    def test_loggers_live_under_repro_root(self):
        assert obs_logs.get_logger().name == "repro"
        assert obs_logs.get_logger("core.cache").name == "repro.core.cache"
        assert (obs_logs.get_logger("sim.activity").parent.name
                .startswith("repro"))

    def test_configure_is_idempotent(self):
        root = logging.getLogger("repro")
        before = list(root.handlers)
        try:
            obs_logs.configure("debug")
            obs_logs.configure("info")
            ours = [h for h in root.handlers if h not in before]
            assert len(ours) == 1
            assert root.level == logging.INFO
        finally:
            for h in [h for h in root.handlers if h not in before]:
                root.removeHandler(h)

    def test_configure_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            obs_logs.configure("chatty")
