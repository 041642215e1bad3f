"""Tests for the Monte Carlo variation engine (``repro.mc``).

Covers the Philox draw streams (determinism, prefix stability,
partition independence, domain separation from the fault-mask
streams), the sample-axis batched engine (zero-sigma bit-identity,
block independence, agreement with the scalar-loop oracle), the memo
bypass on the sampled path, spec validation, ``run_mc`` jobs
determinism plus the surrogate screen, the ``repro mc`` CLI, the
report renderer, the served ``/v1/mc`` endpoint and the ``mc.*``
observability metrics.
"""

import json

import numpy as np
import pytest

from repro import cli
from repro.aging.bti import DEFAULT_BTI
from repro.aging.delay import clear_multiplier_memo, multiplier_memo_info
from repro.core.specs import SpecError, parse_scenario
from repro.inject import masks as inject_masks
from repro.mc import (DEFAULT_BLOCK, MCSpec, SAMPLE_CHUNK, VariationModel,
                      analyze_mc, cross_validate, design_matrix,
                      fit_surrogate, n_terms, pick_degree, run_mc,
                      sample_blocks, standard_draws)
from repro.obs import metrics as obs_metrics
from repro.report import mc_report_text
from repro.sta.engine import analyze_batch, compile_timing, corner_delays
from repro.verify import analyze_mc_reference

SCENARIOS = ("fresh", "worst1y", "worst10y")


@pytest.fixture(scope="module")
def corners():
    return tuple(parse_scenario(s) for s in SCENARIOS)


@pytest.fixture(scope="module")
def adder_mc(lib, adder8, corners):
    """One shared sampled analysis with arrivals kept."""
    variation = VariationModel(sigma_mv=30.0, seed=7)
    return analyze_mc(adder8, lib, corners, variation, samples=96,
                      keep_arrivals=True)


class TestSampleBlocks:
    def test_partition_covers_axis(self):
        blocks = sample_blocks(1000, 256)
        assert blocks[0] == (0, 256)
        assert blocks[-1] == (768, 232)
        assert sum(count for _, count in blocks) == 1000
        starts = [start for start, _ in blocks]
        assert starts == sorted(starts)

    def test_single_block(self):
        assert sample_blocks(10, 256) == [(0, 10)]

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_blocks(0)
        with pytest.raises(ValueError):
            sample_blocks(10, 0)


class TestDrawStreams:
    def test_deterministic_and_seed_sensitive(self):
        a = standard_draws(7, 42, 0, 64)
        assert (a == standard_draws(7, 42, 0, 64)).all()
        assert (a != standard_draws(8, 42, 0, 64)).any()
        assert (a != standard_draws(7, 43, 0, 64)).any()

    def test_prefix_stability(self):
        # Extending a run reproduces every earlier draw, across chunk
        # boundaries.
        long = standard_draws(7, 42, 0, 3 * SAMPLE_CHUNK + 5)
        assert (standard_draws(7, 42, 0, 10) == long[:10]).all()
        assert (standard_draws(7, 42, SAMPLE_CHUNK - 3, 50)
                == long[SAMPLE_CHUNK - 3:SAMPLE_CHUNK + 47]).all()

    def test_partition_independence(self):
        whole = standard_draws(7, 42, 0, 300)
        pieces = np.concatenate([standard_draws(7, 42, 0, 17),
                                 standard_draws(7, 42, 17, 200),
                                 standard_draws(7, 42, 217, 83)])
        assert (whole == pieces).all()

    def test_empty_range(self):
        assert standard_draws(7, 42, 100, 0).shape == (0,)
        with pytest.raises(ValueError):
            standard_draws(7, 42, -1, 4)

    def test_domain_separation_from_fault_masks(self):
        # Same (seed, uid) must not replay the inject mask stream.
        ours = standard_draws(7, 42, 0, 8)
        theirs = inject_masks.gate_stream(7, 42, 0).standard_normal(8)
        assert (ours != theirs).any()

    def test_gate_dvth_scaling_and_clipping(self):
        model = VariationModel(sigma_mv=30.0, seed=7, clip_sigmas=1.0)
        draws = model.gate_dvth([1, 2, 3], 0, 512)
        assert draws.shape == (3, 512)
        assert np.abs(draws).max() <= model.sigma_v + 1e-15
        unclipped = VariationModel(sigma_mv=30.0, seed=7)
        raw = unclipped.gate_dvth([1], 0, 512)
        assert np.abs(raw).max() > model.sigma_v  # clip actually bit

    def test_zero_sigma_draws_are_zero(self):
        model = VariationModel(sigma_mv=0.0)
        assert model.is_zero
        assert not model.gate_dvth([1, 2], 5, 16).any()


class TestAnalyzeMC:
    def test_shapes_and_labels(self, adder8, adder_mc):
        assert adder_mc.critical_path_ps.shape == (3, 96)
        assert adder_mc.arrivals.shape[1:] == (3, 96)
        assert adder_mc.labels == ("fresh", "1y_worst", "10y_worst")
        assert adder_mc.samples == 96

    def test_zero_sigma_bit_identical(self, lib, adder8, corners):
        batch = analyze_batch(adder8, lib, corners)
        rep = analyze_mc(adder8, lib, corners, VariationModel(sigma_mv=0.0),
                         samples=5, keep_arrivals=True)
        assert (rep.critical_path_ps
                == batch.critical_path_ps[:, None]).all()
        assert (rep.arrivals == batch.arrivals[:, :, None]).all()

    def test_block_size_never_changes_results(self, lib, adder8, corners,
                                              adder_mc):
        odd = analyze_mc(adder8, lib, corners,
                         VariationModel(sigma_mv=30.0, seed=7), samples=96,
                         block=7, keep_arrivals=True)
        assert (odd.critical_path_ps == adder_mc.critical_path_ps).all()
        assert (odd.arrivals == adder_mc.arrivals).all()

    def test_matches_scalar_loop_oracle(self, lib, adder8, corners):
        variation = VariationModel(sigma_mv=30.0, seed=7)
        fast = analyze_mc(adder8, lib, corners, variation, samples=6)
        slow = analyze_mc_reference(adder8, lib, corners, variation,
                                    samples=6)
        np.testing.assert_allclose(fast.critical_path_ps, slow,
                                   rtol=1e-12, atol=0.0)

    def test_report_helpers(self, adder_mc):
        assert adder_mc.corner_index("10y_worst") == 2
        with pytest.raises(KeyError):
            adder_mc.corner_index("nope")
        cp = adder_mc.critical_path_ps[0]
        assert adder_mc.quantile_ps(0.5, "fresh") == pytest.approx(
            np.quantile(cp, 0.5))
        assert adder_mc.mean_ps(0) == pytest.approx(cp.mean())
        assert adder_mc.yield_fraction(np.inf, 0) == 1.0
        assert adder_mc.yield_fraction(0.0, 0) == 0.0

    def test_needs_a_corner(self, lib, adder8):
        with pytest.raises(ValueError):
            analyze_mc(adder8, lib, (), VariationModel(), samples=4)

    def test_metrics_emitted(self, lib, adder8, corners):
        with obs_metrics.scoped() as registry:
            analyze_mc(adder8, lib, corners,
                       VariationModel(sigma_mv=30.0, seed=7), samples=20,
                       block=8)
        snap = registry.snapshot()
        assert snap["counters"][obs_metrics.MC_SAMPLES] == 20
        assert snap["counters"][obs_metrics.MC_BLOCKS] == 3
        assert obs_metrics.MC_SAMPLES_PER_SEC in snap["gauges"]


class TestMemoBypass:
    def test_sampled_run_leaves_memo_untouched(self, lib, adder8, corners):
        # Satellite: variation draws must never become lru_cache keys.
        clear_multiplier_memo()
        analyze_batch(adder8, lib, corners)  # warm the deterministic memo
        before = multiplier_memo_info()
        analyze_mc(adder8, lib, corners,
                   VariationModel(sigma_mv=30.0, seed=7), samples=32)
        after = multiplier_memo_info()
        assert after[0].currsize == before[0].currsize
        assert after[0].misses == before[0].misses
        assert after[1] == before[1]

    def test_stress_multiplier_rejects_arrays(self, lib):
        from repro.aging.delay import _stress_multiplier
        cell = lib["INV_X1"]
        with pytest.raises(TypeError):
            _stress_multiplier(cell, np.ones(3), 0.5, 10.0, DEFAULT_BTI,
                               None)
        with pytest.raises(TypeError):
            _stress_multiplier(cell, 0.5, 0.5, np.ones(2), DEFAULT_BTI,
                               None)

    def test_corner_delays_dvth_validation(self, lib, adder8, corners):
        program = compile_timing(adder8, lib)
        with pytest.raises(ValueError):
            corner_delays(program, corners,
                          dvth=np.zeros((program.n_gates + 1, 4)))
        with pytest.raises(ValueError):
            corner_delays(program, corners, degradation=object(),
                          dvth=np.zeros((program.n_gates, 4)))


class TestMCSpec:
    def test_round_trip(self):
        spec = MCSpec(component="adder8", scenarios=SCENARIOS,
                      clock_scales=(1.0, 0.97), samples=64, seed=3,
                      sweep_bits=2, effort="high").validated()
        again = MCSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_variation_model(self):
        spec = MCSpec(component="adder8", sigma_mv=12.5, seed=11)
        model = spec.variation()
        assert model.sigma_mv == 12.5 and model.seed == 11

    @pytest.mark.parametrize("patch", [
        {"bogus": 1},
        {"scenarios": []},
        {"scenarios": ["fresh", "fresh"]},
        {"clock_scales": []},
        {"clock_scales": [0.0]},
        {"sigma_mv": -1.0},
        {"sigma_mv": 60.0},
        {"samples": 0},
        {"seed": -1},
        {"sweep_bits": -1},
        {"min_yield": 0.0},
        {"block": 0},
        {"surrogate": "always"},
        {"effort": "warp"},
    ])
    def test_rejects_bad_specs(self, patch):
        base = MCSpec(component="adder8", samples=16).to_dict()
        base.update(patch)
        with pytest.raises(SpecError):
            MCSpec.from_dict(base)

    def test_needs_component(self):
        with pytest.raises(SpecError):
            MCSpec.from_dict({"samples": 16})
        with pytest.raises(SpecError):
            MCSpec.from_dict([1, 2])


class TestSurrogate:
    def test_design_matrix_shapes(self):
        X = np.arange(6.0).reshape(3, 2)
        assert design_matrix(X, 1).shape == (3, n_terms(2, 1))
        assert design_matrix(X, 2).shape == (3, n_terms(2, 2))
        with pytest.raises(ValueError):
            design_matrix(X, 3)
        with pytest.raises(ValueError):
            design_matrix(np.arange(3.0), 1)

    def test_recovers_linear_map_exactly(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        Y = 2.0 + X @ np.asarray([[1.0], [-2.0], [0.5]])
        fit = fit_surrogate(X, Y, ("a", "b", "c"), ("y",), degree=1)
        np.testing.assert_allclose(fit.predict(X), Y, atol=1e-9)
        cv = cross_validate(X, Y, ("a", "b", "c"), ("y",), degree=1)
        assert cv["targets"]["y"]["max_abs_err"] < 1e-8
        assert cv["folds"] == 4

    def test_quadratic_recovery(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(60, 2))
        Y = 1.0 + X[:, 0] * X[:, 1] + X[:, 1] ** 2
        fit = fit_surrogate(X, Y, ("a", "b"), ("y",), degree=2)
        np.testing.assert_allclose(fit.predict(X)[:, 0], Y, atol=1e-9)

    def test_constant_feature_is_harmless(self):
        X = np.ones((8, 2))
        X[:, 0] = np.arange(8.0)
        Y = 3.0 * X[:, 0]
        fit = fit_surrogate(X, Y, ("a", "const"), ("y",), degree=1)
        np.testing.assert_allclose(fit.predict(X)[:, 0], Y, atol=1e-9)

    def test_pick_degree(self):
        assert pick_degree(4, 6) == 1
        assert pick_degree(2 * n_terms(2, 2), 2) == 2

    def test_cv_clamps_folds(self):
        X = np.arange(4.0)[:, None]
        Y = 2.0 * X
        cv = cross_validate(X, Y, ("a",), ("y",), folds=10)
        assert cv["folds"] == 4
        cv1 = cross_validate(X[:1], Y[:1], ("a",), ("y",), folds=4)
        assert cv1["folds"] == 1

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            fit_surrogate(np.zeros((0, 2)), np.zeros((0, 1)),
                          ("a", "b"), ("y",))
        with pytest.raises(ValueError):
            fit_surrogate(np.zeros((3, 2)), np.zeros((4, 1)),
                          ("a", "b"), ("y",))
        fit = fit_surrogate(np.zeros((3, 2)), np.zeros((3, 1)),
                            ("a", "b"), ("y",))
        with pytest.raises(ValueError):
            fit.predict(np.zeros((2, 5)))


@pytest.fixture(scope="module")
def adder_run(lib):
    spec = MCSpec(component="adder8", scenarios=SCENARIOS,
                  clock_scales=(1.0, 0.97), samples=96, seed=7,
                  sweep_bits=2, effort="high")
    return spec, run_mc(spec, library=lib)


class TestRunMC:
    def test_jobs_deterministic(self, lib, adder_run):
        spec, result = adder_run
        again = run_mc(spec, library=lib, jobs=2)
        assert result.to_dict() == again.to_dict()

    def test_rows_cover_grid(self, adder_run):
        spec, result = adder_run
        assert result.precisions == (8, 7, 6)
        assert len(result.rows) == 3 * 3 * 2
        assert all(row["exact"] for row in result.rows)
        assert len(result.k_rows) == 3 * 2

    def test_det_precision_matches_deterministic_cp(self, adder_run):
        _, result = adder_run
        for k_row in result.k_rows:
            det = [row for row in result.rows
                   if row["scenario"] == k_row["scenario"]
                   and row["clock_scale"] == k_row["clock_scale"]
                   and row["det_cp_ps"] <= k_row["clock_ps"]]
            expect = max((row["precision"] for row in det), default=None)
            assert k_row["det_precision"] == expect

    def test_yield_k_is_exact_and_feasible(self, adder_run):
        spec, result = adder_run
        rows = {(r["precision"], r["scenario"], r["clock_scale"]): r
                for r in result.rows}
        for k_row in result.k_rows:
            k = k_row["yield_precision"]
            if k is None:
                continue
            row = rows[(k, k_row["scenario"], k_row["clock_scale"])]
            assert row["exact"]
            assert row["yield_fraction"] >= spec.min_yield
            assert k_row["yield_at_k"] == row["yield_fraction"]

    def test_json_round_trip(self, adder_run):
        _, result = adder_run
        data = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        assert data["schema"] == "repro.mc/1"
        assert data["spec"]["component"] == "adder8"

    def test_zero_sigma_matches_deterministic_yields(self, lib):
        spec = MCSpec(component="adder8", scenarios=("fresh", "worst10y"),
                      clock_scales=(1.0,), sigma_mv=0.0, samples=16,
                      sweep_bits=1, effort="high")
        result = run_mc(spec, library=lib)
        for row in result.rows:
            expect = 1.0 if row["det_cp_ps"] <= row["clock_ps"] else 0.0
            assert row["yield_fraction"] == expect
        for k_row in result.k_rows:
            assert k_row["yield_precision"] == k_row["det_precision"]

    def test_metrics_emitted(self, lib):
        spec = MCSpec(component="adder8", scenarios=("worst10y",),
                      clock_scales=(1.0,), samples=16, sweep_bits=1,
                      effort="high")
        with obs_metrics.scoped() as registry:
            run_mc(spec, library=lib)
        snap = registry.snapshot()
        assert snap["counters"][obs_metrics.MC_RUNS] == 1
        assert snap["counters"][obs_metrics.MC_POINTS] == 2


class TestSurrogateScreen:
    def test_screen_skips_points_but_reports_same_k(self, lib):
        base = MCSpec(component="adder8", scenarios=("fresh", "worst10y"),
                      clock_scales=(1.0, 0.95), samples=96, seed=7,
                      sweep_bits=6, effort="high")
        full = run_mc(base, library=lib)
        screened = run_mc(
            MCSpec.from_dict({**base.to_dict(), "surrogate": "screen"}),
            library=lib)
        info = screened.surrogate
        assert info is not None and full.surrogate is None
        assert set(info["anchors"]) <= set(info["evaluated"])
        assert sorted(info["evaluated"] + info["skipped"], reverse=True) \
            == sorted(screened.precisions, reverse=True)
        # Exact rows agree verbatim with the unscreened run, and the
        # reported K (always exact by construction) is the same.
        full_rows = {(r["precision"], r["scenario"], r["clock_scale"]): r
                     for r in full.rows}
        for row in screened.rows:
            if row["exact"]:
                key = (row["precision"], row["scenario"],
                       row["clock_scale"])
                assert row == full_rows[key]
        assert screened.k_rows == full.k_rows

    def test_zero_sigma_never_screens(self, lib):
        spec = MCSpec(component="adder8", scenarios=("worst10y",),
                      clock_scales=(1.0,), sigma_mv=0.0, samples=8,
                      sweep_bits=6, effort="high", surrogate="screen")
        result = run_mc(spec, library=lib)
        assert result.surrogate is None
        assert all(row["exact"] for row in result.rows)


class TestReportAndCLI:
    def test_report_text(self, adder_run):
        _, result = adder_run
        text = mc_report_text(result)
        assert "monte carlo yield analysis" in text
        assert "yield-constrained max precision K" in text
        assert "10y_worst" in text and "det_K" in text

    def test_report_marks_screened_rows(self, lib):
        spec = MCSpec(component="adder8", scenarios=("worst10y",),
                      clock_scales=(1.0,), samples=64, seed=7,
                      sweep_bits=6, effort="high", surrogate="screen")
        text = mc_report_text(run_mc(spec, library=lib))
        assert "est" in text and "surrogate screen" in text

    def test_cli_mc(self, capsys, tmp_path):
        out = tmp_path / "mc.json"
        rc = cli.main(["mc", "--component", "adder8", "--years", "1,10",
                       "--samples", "64", "--sweep-bits", "1",
                       "--clocks", "1.0,0.97", "--seed", "7",
                       "--effort", "high", "--output", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "yield-constrained max precision K" in stdout
        data = json.loads(out.read_text())
        assert data["schema"] == "repro.mc/1"
        assert data["spec"]["seed"] == 7
        labels = [r["scenario"] for r in data["rows"]]
        assert "fresh" in labels and "10y_worst" in labels

    def test_cli_rejects_bad_spec(self, capsys):
        rc = cli.main(["mc", "--component", "adder8", "--sigma", "99"])
        assert rc != 0
        assert "sigma_mv" in capsys.readouterr().err


def test_mc_invariants_adder(assert_mc_invariants, adder8_component, lib):
    results = assert_mc_invariants(adder8_component, lib, years=(10.0,),
                                   samples=48, sweep_bits=1,
                                   effort="high")
    assert {r.name for r in results} == {
        "mc_jobs_deterministic", "mc_sigma_converges_to_deterministic",
        "mc_sigma_zero_bit_identical", "mc_yield_monotone_in_lifetime",
        "mc_yield_monotone_in_clock", "mc_quantile_sandwich"}
