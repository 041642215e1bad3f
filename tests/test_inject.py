"""Tests for the statistical timing-fault injection campaigns.

Covers the Bernoulli mask sampler (threshold semantics, determinism,
monotone nesting), faultload derivation (zero at the fresh corner and
at the guardbanded clock), the packed/scalar injectors, campaign
reproducibility and monotone ladders, the comparison arms, the
``repro inject`` CLI, the report renderer, and the ``inject.*``
observability metrics.
"""

import json

import numpy as np
import pytest

from repro import cli
from repro.inject import (CampaignSpec, DEFAULT_ACTIVITY, build_faultload,
                          run_campaign)
from repro.inject.campaign import make_point_tasks
from repro.inject.inject_sim import count_mask_bits, unpack_op_masks
from repro.inject.masks import (CHUNK_WORDS, PROB_BITS, PROB_ONE,
                                bernoulli_words, flip_threshold, gate_stream)
from repro.core.specs import SpecError, component_spec, parse_scenario
from repro.obs import metrics as obs_metrics
from repro.report import inject_report_text
from repro.rtl import Adder, Multiplier
from repro.sim import bitpack
from repro.sim.logic import compile_netlist, evaluate_packed
from repro.sta.engine import analyze_batch, compile_timing
from repro.verify import evaluate_bytes_injected


def row_at(result, scenario, clock_scale):
    for row in result.rows:
        if row["scenario"] == scenario and row["clock_scale"] == clock_scale:
            return row
    raise KeyError((scenario, clock_scale))


@pytest.fixture(scope="module")
def adder_campaign():
    spec = CampaignSpec(component="adder8",
                        scenarios=("fresh", "worst1y", "worst10y"),
                        clock_scales=(1.0, 0.95), vectors=512, seed=7,
                        effort="high")
    return spec, run_campaign(spec)


class TestMasks:
    def test_threshold_edges(self):
        assert flip_threshold(0.0) == 0
        assert flip_threshold(1.0) == PROB_ONE
        assert flip_threshold(-0.5) == 0
        assert flip_threshold(2.0) == PROB_ONE
        # ceil: any strictly positive probability flips at least one
        # lane value out of 2**PROB_BITS.
        assert flip_threshold(1e-12) == 1
        assert flip_threshold(0.5) == PROB_ONE // 2

    def test_degenerate_masks(self):
        zeros = bernoulli_words(3, 17, 0, 16)
        assert zeros.dtype == np.uint64 and not zeros.any()
        ones = bernoulli_words(3, 17, PROB_ONE, 16)
        assert (ones == np.uint64(0xFFFFFFFFFFFFFFFF)).all()

    def test_density_tracks_probability(self):
        words = 4096
        for p in (0.1, 0.5, 0.9):
            mask = bernoulli_words(11, 5, flip_threshold(p), words)
            density = int(np.bitwise_count(mask).sum()) / (64 * words)
            assert abs(density - p) < 0.01

    def test_deterministic_and_seed_sensitive(self):
        t = flip_threshold(0.3)
        a = bernoulli_words(42, 9, t, 64)
        b = bernoulli_words(42, 9, t, 64)
        assert (a == b).all()
        assert (a != bernoulli_words(43, 9, t, 64)).any()
        assert (a != bernoulli_words(42, 10, t, 64)).any()

    def test_prefix_stability_across_chunks(self):
        # Asking for fewer words must yield a prefix of the longer
        # stream, including across the chunk boundary.
        t = flip_threshold(0.4)
        long = bernoulli_words(5, 2, t, CHUNK_WORDS + 32)
        short = bernoulli_words(5, 2, t, 48)
        assert (long[:48] == short).all()

    def test_monotone_nesting(self):
        # T1 <= T2 over the same (seed, gate) stream => mask1 is a
        # subset of mask2 bit for bit. This is what makes the campaign
        # ladders exactly monotone.
        t1, t2 = flip_threshold(0.2), flip_threshold(0.6)
        m1 = bernoulli_words(13, 4, t1, 256)
        m2 = bernoulli_words(13, 4, t2, 256)
        assert not (m1 & ~m2).any()

    def test_gate_stream_is_philox_counter_based(self):
        rng = gate_stream(1, 2, 3)
        assert isinstance(rng.bit_generator, np.random.Philox)


class TestFaultload:
    def test_fresh_corner_is_exactly_empty(self, lib, adder8):
        program = compile_timing(adder8, lib)
        batch = analyze_batch(adder8, lib,
                              [parse_scenario("fresh"),
                               parse_scenario("worst10y")], program=program)
        clock = float(batch.critical_path_ps[0])
        load = build_faultload(program, batch, "fresh", clock)
        assert load.n_violating == 0
        assert load.masks(7, 8) == {}
        aged = build_faultload(program, batch, "10y_worst", clock)
        assert aged.n_violating > 0
        assert 0.0 < aged.mean_flip_probability <= DEFAULT_ACTIVITY

    def test_flip_probability_bounded_by_activity(self, lib, adder8):
        program = compile_timing(adder8, lib)
        batch = analyze_batch(adder8, lib, [parse_scenario("worst10y")],
                              program=program)
        clock = 0.9 * float(batch.critical_path_ps[0])
        load = build_faultload(program, batch, "10y_worst", clock,
                               activity=0.25)
        assert load.n_violating > 0
        assert (load.flip_probability > 0).all()
        assert (load.flip_probability <= 0.25).all()
        assert (load.arrival_ps > clock).all()

    def test_validation(self, lib, adder8):
        program = compile_timing(adder8, lib)
        batch = analyze_batch(adder8, lib, [parse_scenario("fresh")],
                              program=program)
        with pytest.raises(ValueError):
            build_faultload(program, batch, "fresh", -1.0)
        with pytest.raises(ValueError):
            build_faultload(program, batch, "fresh", 100.0, activity=0.0)
        with pytest.raises(KeyError):
            build_faultload(program, batch, "10y_worst", 100.0)


class TestInjectedEval:
    def test_empty_masks_match_clean(self, lib, adder8, rng):
        compiled = compile_netlist(adder8, lib)
        program = compile_timing(adder8, lib)
        assert compiled.program is program
        vectors = 200
        pi_bits = rng.integers(0, 2, size=(vectors, len(
            adder8.primary_inputs)), dtype=np.uint8)
        assert (evaluate_packed(compiled, pi_bits, op_masks={})
                == evaluate_packed(compiled, pi_bits)).all()

    def test_packed_matches_scalar_reference(self, lib, adder8, rng):
        compiled = compile_netlist(adder8, lib)
        vectors = 300
        words = bitpack.word_count(vectors)
        pi_bits = rng.integers(0, 2, size=(vectors, len(
            adder8.primary_inputs)), dtype=np.uint8)
        op_masks = {row: bernoulli_words(3, row, flip_threshold(0.2), words)
                    for row in range(0, len(compiled.outs), 3)}
        packed = evaluate_packed(compiled, pi_bits, op_masks=op_masks)
        scalar = evaluate_bytes_injected(
            compiled, pi_bits, unpack_op_masks(op_masks, vectors))
        assert (packed == scalar).all()
        injected, faulted = count_mask_bits(op_masks, vectors)
        assert 0 < faulted <= vectors
        assert injected >= faulted

    def test_count_mask_bits_ignores_tail(self):
        mask = np.full(2, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        injected, faulted = count_mask_bits({0: mask}, 70)
        assert injected == 70 and faulted == 70


class TestCampaign:
    def test_spec_validation(self):
        with pytest.raises(SpecError):
            CampaignSpec(component="adder8", scenarios=()).validated()
        with pytest.raises(SpecError):
            CampaignSpec(component="adder8", clock_scales=(5.0,)).validated()
        with pytest.raises(SpecError):
            CampaignSpec(component="adder8", vectors=0).validated()
        with pytest.raises(SpecError):
            CampaignSpec(component="adder8", activity=1.5).validated()
        with pytest.raises(SpecError):
            CampaignSpec(component="adder8", stimulus="bogus").validated()
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({"component": "adder8", "bogus": 1})
        spec = CampaignSpec(component="adder8")
        assert CampaignSpec.from_dict(spec.to_dict()) == spec.validated()

    def test_component_spec_round_trips(self):
        assert component_spec(Adder(8)) == "adder"
        assert component_spec(Multiplier(6)) == "multiplier"
        with pytest.raises(SpecError):
            component_spec(object())

    def test_task_order_is_scenario_major(self):
        spec = CampaignSpec(component="adder8",
                            scenarios=("fresh", "worst10y"),
                            clock_scales=(1.0, 0.9)).validated()
        tasks = make_point_tasks(spec)
        assert [(t["scenario"], t["clock_scale"]) for t in tasks] == [
            ("fresh", 1.0), ("fresh", 0.9),
            ("10y_worst", 1.0), ("10y_worst", 0.9)]

    def test_fresh_row_has_zero_faults(self, adder_campaign):
        __spec, result = adder_campaign
        fresh = row_at(result, "fresh", 1.0)
        assert fresh["violating_gates"] == 0
        assert fresh["injected_faults"] == 0
        assert fresh["word_error_rate"] == 0.0
        assert fresh["psnr_db"] == float("inf")

    def test_ladder_monotone_in_lifetime_and_clock(self, adder_campaign):
        __spec, result = adder_campaign
        for scale in (1.0, 0.95):
            ladder = [row_at(result, s, scale)
                      for s in ("fresh", "1y_worst", "10y_worst")]
            for a, b in zip(ladder, ladder[1:]):
                assert a["injected_faults"] <= b["injected_faults"]
                assert a["faulted_vectors"] <= b["faulted_vectors"]
        for label in ("1y_worst", "10y_worst"):
            assert (row_at(result, label, 1.0)["injected_faults"]
                    <= row_at(result, label, 0.95)["injected_faults"])
        assert row_at(result, "10y_worst", 0.95)["injected_faults"] > 0

    def test_bit_reproducible(self, adder_campaign):
        spec, result = adder_campaign
        again = run_campaign(spec)
        assert again.to_dict() == result.to_dict()

    def test_to_dict_json_round_trip(self, adder_campaign):
        __spec, result = adder_campaign
        data = result.to_dict()
        assert data["schema"] == "repro.inject/1"
        assert json.loads(json.dumps(data)) == data

    def test_arms(self, adder_campaign):
        __spec, result = adder_campaign
        assert {e["scenario"] for e in result.approximation} \
            == {"1y_worst", "10y_worst"}
        for entry in result.approximation:
            if entry["feasible"]:
                assert entry["aged_cp_ps"] <= entry["clock_ps"]
                assert 1 <= entry["precision"] <= 8
        for entry in result.guardbanded:
            assert entry["violating_gates"] == 0
            assert entry["injected_faults"] == 0
            assert entry["clock_penalty_pct"] > 0.0
            assert entry["clock_ps"] > result.fresh_clock_ps

    def test_metrics_emitted(self):
        spec = CampaignSpec(component="adder8", scenarios=("worst10y",),
                            clock_scales=(0.9,), vectors=128, seed=3,
                            effort="high")
        with obs_metrics.scoped() as registry:
            run_campaign(spec)
            snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters[obs_metrics.INJECT_CAMPAIGNS] == 1
        assert counters[obs_metrics.INJECT_POINTS] == 1
        assert counters[obs_metrics.INJECT_VECTORS] == 128
        assert counters[obs_metrics.INJECT_FAULTS] > 0
        assert obs_metrics.INJECT_VIOLATING_FRACTION \
            in snapshot["histograms"]


@pytest.mark.verify
def test_injection_invariants_adder(assert_injection_invariants):
    results = assert_injection_invariants(Adder(8), effort="high",
                                          vectors=256)
    assert {r.name for r in results} == {
        "inject_zero_fresh_faults", "inject_zero_when_guardbanded",
        "inject_faults_monotone_in_lifetime",
        "inject_faults_monotone_in_clock",
        "inject_packed_matches_reference"}


class TestReportAndCli:
    def test_report_text(self, adder_campaign):
        __spec, result = adder_campaign
        text = inject_report_text(result)
        assert "guardband-free + faults" in text
        assert "aging-induced approximation" in text
        assert "guardbanded" in text
        assert "10y_worst" in text

    def test_cli_inject(self, capsys, tmp_path):
        out = tmp_path / "campaign.json"
        rc = cli.main(["inject", "--component", "adder8", "--years", "1,10",
                       "--vectors", "256", "--clocks", "1.0,0.95",
                       "--seed", "7", "--effort", "high",
                       "--output", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "guardband-free + faults" in stdout
        data = json.loads(out.read_text())
        assert data["schema"] == "repro.inject/1"
        assert data["spec"]["seed"] == 7
        labels = [r["scenario"] for r in data["rows"]]
        assert labels[0] == "fresh" and "10y_worst" in labels

    def test_cli_rejects_bad_spec(self, capsys):
        rc = cli.main(["inject", "--component", "adder8",
                       "--clocks", "9.0"])
        assert rc != 0
        assert "clock scales" in capsys.readouterr().err
