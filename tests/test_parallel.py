"""Tests for the parallel characterization engine and its telemetry."""

import pytest

from repro.aging import worst_case
from repro.core import (ActualCaseSpec, CharacterizationCache, WorkerPool,
                        characterize, resolve_jobs)
from repro.core.parallel import JOBS_ENV, map_tasks
from repro.inject import CampaignSpec, run_campaign
from repro.mc import MCSpec, run_mc
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.report import timings_report_text
from repro.rtl import Adder, Multiplier


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "4")
        assert resolve_jobs(None) == 4

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-2)

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ValueError, match=JOBS_ENV):
            resolve_jobs(None)


def _double(x):
    return 2 * x


class TestMapTasks:
    def test_serial_order(self):
        assert map_tasks(_double, [3, 1, 2], jobs=1) == [6, 2, 4]

    def test_parallel_preserves_order(self):
        assert map_tasks(_double, list(range(10)), jobs=3) == \
            [2 * i for i in range(10)]


class TestWorkerPool:
    def test_map_preserves_order_and_reuses_workers(self):
        with WorkerPool(jobs=2) as pool:
            assert pool.map(_double, [3, 1, 2]) == [6, 2, 4]
            executor = pool._executor
            assert executor is not None
            # A second map reuses the same executor (no respawn).
            assert pool.map(_double, list(range(5))) == \
                [2 * i for i in range(5)]
            assert pool._executor is executor
        assert pool._executor is None          # context exit reaps

    def test_lazy_executor_and_idempotent_shutdown(self):
        pool = WorkerPool(jobs=2)
        assert pool._executor is None           # nothing spawned yet
        assert "idle" in repr(pool)
        pool.shutdown()                         # safe before first use
        future = pool.submit(_double, 21)
        assert future.result(timeout=30) == 42
        assert "running" in repr(pool)
        pool.shutdown()
        pool.shutdown()

    def test_jobs_resolution(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "3")
        assert WorkerPool().jobs == 3
        assert WorkerPool(jobs=2).jobs == 2

    def test_map_tasks_routes_through_pool(self):
        with WorkerPool(jobs=2) as pool:
            assert map_tasks(_double, [4, 5], pool=pool) == [8, 10]
            assert pool._executor is not None

    def test_map_tasks_warns_on_conflicting_jobs(self):
        """An explicit jobs= that disagrees with the pool used to be
        silently ignored; now it warns (the pool still wins)."""
        with WorkerPool(jobs=2) as pool:
            with pytest.warns(RuntimeWarning, match="conflicts with pool"):
                assert map_tasks(_double, [4, 5], jobs=1, pool=pool) \
                    == [8, 10]
            # Matching or deferred job counts stay silent.
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert map_tasks(_double, [6], jobs=2, pool=pool) == [12]
                assert map_tasks(_double, [7], jobs=None, pool=pool) \
                    == [14]

    def test_characterize_with_pool_equals_serial(self, lib):
        """Acceptance: a persistent pool produces the same table as the
        serial path, across repeated sweeps on one pool."""
        scenarios = [worst_case(10)]
        serial = characterize(Adder(8), lib, scenarios=scenarios,
                              precisions=[8, 7, 6], effort="high",
                              jobs=1, cache=None)
        with WorkerPool(jobs=2) as pool:
            first = characterize(Adder(8), lib, scenarios=scenarios,
                                 precisions=[8, 7, 6], effort="high",
                                 cache=None, pool=pool)
            executor = pool._executor
            second = characterize(Adder(8), lib, scenarios=scenarios,
                                  precisions=[8, 7, 6], effort="high",
                                  cache=None, pool=pool)
            assert pool._executor is executor
        for table in (first, second):
            assert table.fresh_ps == serial.fresh_ps
            assert table.aged_ps == serial.aged_ps
            assert table.area_um2 == serial.area_um2
            assert table.gates == serial.gates


class TestParallelEquivalence:
    def test_mult16_jobs4_equals_serial(self, lib):
        """Acceptance: jobs=4 produces a ComponentCharacterization equal
        to the serial (jobs=1) result on the 16-bit multiplier."""
        component = Multiplier(16)
        scenarios = [worst_case(10)]
        serial = characterize(component, lib, scenarios=scenarios,
                              jobs=1, cache=None)
        parallel = characterize(component, lib, scenarios=scenarios,
                                jobs=4, cache=None)
        assert parallel.key == serial.key
        assert parallel.precisions == serial.precisions
        assert parallel.scenario_labels == serial.scenario_labels
        assert parallel.fresh_ps == serial.fresh_ps
        assert parallel.aged_ps == serial.aged_ps
        assert parallel.area_um2 == serial.area_um2
        assert parallel.leakage_nw == serial.leakage_nw
        assert parallel.gates == serial.gates
        assert parallel.depth == serial.depth

    def test_parallel_with_actual_case_and_cache(self, lib, rng, tmp_path):
        component = Adder(8)
        a, b = component.random_operands(64, rng=rng)
        scenarios = [worst_case(10), ActualCaseSpec(10, "nd", (a, b))]
        serial = characterize(component, lib, scenarios=scenarios,
                              precisions=[8, 7, 6], effort="high",
                              jobs=1, cache=None)
        cache = CharacterizationCache(tmp_path)
        parallel = characterize(component, lib, scenarios=scenarios,
                                precisions=[8, 7, 6], effort="high",
                                jobs=2, cache=cache)
        assert parallel.aged_ps == serial.aged_ps
        assert cache.stats.misses == 3
        # Parallel workers populated the shared cache for a serial rerun.
        warm = CharacterizationCache(tmp_path)
        rerun = characterize(component, lib, scenarios=scenarios,
                             precisions=[8, 7, 6], effort="high",
                             jobs=1, cache=warm)
        assert warm.stats.hits == 3
        assert rerun.aged_ps == serial.aged_ps


def _observed(run):
    """Run *run* under a fresh tracer and registry; ``(totals, counters)``."""
    with obs_trace.capture() as tracer, obs_metrics.scoped() as registry:
        run()
    return tracer.totals(), registry.snapshot()["counters"]


class TestInstrumentation:
    def test_stages_recorded(self, lib, rng):
        component = Adder(8)
        a, b = component.random_operands(64, rng=rng)
        totals, __ = _observed(lambda: characterize(
            component, lib,
            scenarios=[worst_case(10), ActualCaseSpec(10, "nd", (a, b))],
            precisions=[8, 7], effort="high", cache=None))
        assert totals["synthesize"]["calls"] == 2
        # Batched STA: one corner-grid pass per precision point.
        assert totals["sta"]["calls"] == 2
        assert totals["stress_extraction"]["calls"] == 2
        for name in ("synthesize", "sta", "stress_extraction"):
            assert totals[name]["seconds"] > 0

    def test_cache_counters_surface(self, lib, tmp_path):
        __, counters = _observed(lambda: characterize(
            Adder(8), lib, scenarios=[worst_case(10)], precisions=[8, 7],
            effort="high", cache=CharacterizationCache(tmp_path)))
        assert counters["cache.misses"] == 2
        assert counters.get("cache.hits", 0) == 0
        __, counters = _observed(lambda: characterize(
            Adder(8), lib, scenarios=[worst_case(10)], precisions=[8, 7],
            effort="high", cache=CharacterizationCache(tmp_path)))
        assert counters["cache.hits"] == 2
        assert counters.get("cache.misses", 0) == 0

    def test_worker_timings_merged_from_parallel_run(self, lib):
        totals, __ = _observed(lambda: characterize(
            Adder(8), lib, scenarios=[worst_case(10)],
            precisions=[8, 7, 6], effort="high", jobs=3, cache=None))
        assert totals["synthesize"]["calls"] == 3
        assert totals["characterize.point"]["calls"] == 3

    def test_report_text(self, lib, tmp_path):
        totals, counters = _observed(lambda: characterize(
            Adder(8), lib, scenarios=[worst_case(10)], precisions=[8, 7],
            effort="high", cache=CharacterizationCache(tmp_path)))
        text = timings_report_text(totals, counters)
        assert "per-stage timing" in text
        assert "synthesize" in text
        assert "cache: 0 hits / 2 misses" in text


def _telemetry_run(kind, lib, jobs):
    """One small run of *kind* at *jobs*: its span names and counters.

    An untraced run first warms this process's synthesis and prelude
    memos, which forked pool workers inherit, so serial and pooled runs
    do the same memo-dependent work.
    """
    component = Adder(5)
    operands = component.random_operands(64, rng=5)
    runs = {
        "characterize": lambda: characterize(
            component, lib,
            scenarios=[worst_case(10), ActualCaseSpec(10, "nd", operands)],
            precisions=[5, 4], effort="high", jobs=jobs, cache=None),
        "inject": lambda: run_campaign(CampaignSpec(
            component="adder5", scenarios=("fresh", "worst10y"),
            clock_scales=(1.0, 0.95), vectors=256, seed=3), jobs=jobs),
        "mc": lambda: run_mc(MCSpec(
            component="adder5", scenarios=("worst10y",),
            clock_scales=(1.0,), samples=64, block=16, sweep_bits=1,
            seed=3), jobs=jobs),
    }
    with obs_metrics.scoped():
        runs[kind]()
    with obs_trace.capture() as tracer, obs_metrics.scoped() as registry:
        runs[kind]()
    names = sorted(s.name for s, __d, __p in tracer.walk()
                   if s.name != "parallel.map")
    return names, registry.snapshot()["counters"]


class TestSharedWorkerTelemetry:
    """Serial and pooled runs report the same telemetry: a worker's
    spans and counters are neither dropped nor absorbed twice."""

    COUNTERS = ("synth.runs", "sim.vectors", "stress.extractions",
                "sta.batch.runs", "sta.replay_rows", "inject.vectors",
                "inject.faults", "mc.samples", "mc.blocks")

    #: kind -> (its worker span, a counter its workers must report)
    WORKER = {"characterize": ("characterize.point", "sim.vectors"),
              "inject": ("inject.point", "inject.vectors"),
              "mc": ("mc.block", "mc.samples")}

    @pytest.mark.parametrize("kind", ["characterize", "inject", "mc"])
    def test_jobs1_and_jobs2_report_the_same(self, kind, lib):
        serial_names, serial = _telemetry_run(kind, lib, jobs=1)
        pooled_names, pooled = _telemetry_run(kind, lib, jobs=2)
        assert serial_names == pooled_names
        for name in self.COUNTERS:
            assert serial.get(name, 0) == pooled.get(name, 0), name
        point, counter = self.WORKER[kind]
        assert serial_names.count(point) >= 2
        assert serial[counter] > 0


class TestWorkerTimingMemo:
    """Compile memos key libraries by content, so a pool task's
    unpickled library copy hits the timing programs synthesis seeded."""

    def test_pickled_library_hits_seeded_program(self, lib):
        import pickle
        from repro.sta import compile_timing
        from repro.synth import synthesize
        netlist = synthesize(Adder(6), lib, effort="high").netlist
        seeded = next(iter(netlist._timing_memo.values()))
        copy = pickle.loads(pickle.dumps(lib))
        assert copy is not lib
        with obs_metrics.scoped() as registry:
            assert compile_timing(netlist, copy) is seeded
        assert registry.snapshot()["counters"][
            obs_metrics.TIMING_MEMO_HITS] == 1

    def test_pool_workers_hit_timing_memo(self, lib):
        hits = [_telemetry_run("characterize", lib, jobs=jobs)[1].get(
            obs_metrics.TIMING_MEMO_HITS, 0) for jobs in (1, 2)]
        assert hits[1] > 0
        assert hits[0] == hits[1]


class TestCLI:
    def test_characterize_with_cache_jobs_timings(self, capsys, tmp_path):
        from repro.cli import main
        args = ["characterize", "--component", "adder", "--width", "8",
                "--years", "10", "--sweep-bits", "2", "--effort", "high",
                "--jobs", "1", "--cache-dir", str(tmp_path), "--timings"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "required precision" in out
        assert "per-stage timing" in out
        assert "misses" in out
        # Warm rerun reports hits instead of misses.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "3 hits / 0 misses" in out

    def test_flow_accepts_engine_flags(self, capsys, tmp_path):
        from repro.cli import main
        code = main(["flow", "--design", "fir", "--width", "10",
                     "--years", "10", "--effort", "high",
                     "--cache-dir", str(tmp_path), "--timings"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validated: True" in out
        assert "per-stage timing" in out
