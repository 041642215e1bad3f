"""Tests for the vectorized batched/incremental STA engine.

The engine's contract is *bit-exactness* against the scalar oracle
(`repro.sta.analyze`): every comparison here is ``==`` on floats, no
tolerance anywhere.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.aging import (ActualStress, AgingScenario, balance_case,
                         worst_case)
from repro.aging.delay import (clear_multiplier_memo, gate_delays,
                               multiplier_memo_info)
from repro.cells import DegradationAwareLibrary
from repro.core.characterize import characterize, truncation_screen
from repro.obs import metrics as obs_metrics
from repro.rtl import Adder, Multiplier
from repro.sta import analyze
from repro.sta.engine import (analyze_batch, analyze_incremental,
                              compile_timing, tie_low,
                              truncated_input_nets)
from repro.synth import synthesize_netlist
from repro.verify import load_corpus

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"

CORNERS = [None, worst_case(1.0), worst_case(10.0), balance_case(5.0)]


def assert_report_equal(got, want):
    """Bit-exact TimingReport equality (arrivals restricted to *want*)."""
    assert got.critical_path_ps == want.critical_path_ps
    assert got.gate_delays == want.gate_delays
    for net, arrival in want.arrivals.items():
        assert got.arrivals[net] == arrival
    assert got.scenario_label == want.scenario_label


class TestBatchBitExact:
    @pytest.mark.parametrize("fixture", ["adder8", "mult6", "mac4"])
    def test_matches_scalar_on_components(self, request, lib, fixture):
        netlist = request.getfixturevalue(fixture)
        batch = analyze_batch(netlist, lib, CORNERS)
        for idx, corner in enumerate(CORNERS):
            scalar = analyze(netlist, lib, scenario=corner)
            assert batch.report(idx).arrivals == scalar.arrivals
            assert_report_equal(batch.report(idx), scalar)

    def test_actual_stress_corner(self, lib, adder8, rng):
        per_gate = {g.uid: (float(sp), float(sn))
                    for g, sp, sn in zip(adder8.gates,
                                         rng.uniform(0, 1, adder8.num_gates),
                                         rng.uniform(0, 1, adder8.num_gates))}
        scenario = AgingScenario(
            years=10.0, stress=ActualStress(per_gate, label="actual_test"))
        batch = analyze_batch(adder8, lib, [None, scenario])
        scalar = analyze(adder8, lib, scenario=scenario)
        assert_report_equal(batch.report(1), scalar)

    def test_degradation_corner(self, lib, adder8):
        degraded = DegradationAwareLibrary(lib, lifetimes=(1.0, 10.0))
        corners = [None, worst_case(10.0), balance_case(1.0)]
        batch = analyze_batch(adder8, lib, corners, degradation=degraded)
        for idx, corner in enumerate(corners):
            scalar = analyze(adder8, lib, scenario=corner,
                             degradation=degraded)
            assert_report_equal(batch.report(idx), scalar)

    def test_fresh_equals_scenario_zero_years(self, lib, adder8):
        batch = analyze_batch(adder8, lib, [None, worst_case(0.0)])
        fresh, zero = batch.critical_paths_ps
        assert fresh == zero

    def test_corner_labels_and_lookup(self, lib, adder8):
        batch = analyze_batch(adder8, lib, CORNERS)
        assert batch.labels == ("fresh", "1y_worst", "10y_worst",
                                "5y_balance")
        assert batch.corner_index("10y_worst") == 2
        with pytest.raises(KeyError):
            batch.corner_index("3y_worst")
        po = adder8.primary_outputs[-1]
        assert batch.arrival_ps(po, "fresh") == \
            analyze(adder8, lib).arrivals[po]

    def test_empty_corner_list_rejected(self, lib, adder8):
        with pytest.raises(ValueError, match="at least one corner"):
            analyze_batch(adder8, lib, [])

    def test_guardband_consistency(self, lib, adder8):
        from repro.aging import guardband_ps

        scenario = worst_case(10.0)
        fresh = analyze(adder8, lib).critical_path_ps
        aged = analyze(adder8, lib, scenario=scenario).critical_path_ps
        assert guardband_ps(adder8, lib, scenario) == aged - fresh


class TestProgramMemo:
    def test_batches_share_one_program(self, lib):
        # A copy carries none of the program synthesis seeded.
        netlist = synthesize_netlist(Adder(4), lib, effort="low").copy()
        with obs_metrics.scoped() as reg:
            first = analyze_batch(netlist, lib, [None])
            second = analyze_batch(netlist, lib, [worst_case(10.0)])
        assert second.program is first.program
        assert reg.value(obs_metrics.TIMING_MEMO_HITS) == 1

    def test_cell_mutation_recompiles(self, lib):
        # Synthesized netlists are read-only; edit a copy.
        netlist = synthesize_netlist(Adder(4), lib, effort="low").copy()
        before = compile_timing(netlist, lib)
        gate = netlist.gates[0]
        stronger = lib.next_drive_up(gate.cell)
        assert stronger is not None
        gate.cell = stronger
        after = compile_timing(netlist, lib)
        assert after is not before
        # And the recompiled program still matches the scalar oracle.
        assert_report_equal(analyze_batch(netlist, lib, [None]).report(0),
                            analyze(netlist, lib))

    def test_memo_false_bypasses(self, lib):
        netlist = synthesize_netlist(Adder(4), lib, effort="low")
        assert compile_timing(netlist, lib, memo=False) is not \
            compile_timing(netlist, lib, memo=False)

    def test_metrics_emitted(self, lib, adder8):
        with obs_metrics.scoped() as reg:
            analyze_batch(adder8, lib, CORNERS)
            tied = adder8.primary_inputs[:4]
            analyze_incremental(adder8, lib, tied,
                                corners=[None, worst_case(10.0)])
        assert reg.value(obs_metrics.STA_BATCH_RUNS) >= 1
        assert reg.value(obs_metrics.STA_BATCH_CORNERS) >= len(CORNERS)
        assert reg.value(obs_metrics.STA_INCREMENTAL_RUNS) == 1
        hist = reg.get(obs_metrics.STA_INCREMENTAL_CONE_FRACTION)
        assert hist is not None and hist.count == 1


class TestIncremental:
    def test_matches_tie_low_oracle(self, lib, mult6):
        tied = mult6.primary_inputs[:6]
        inc = analyze_incremental(mult6, lib, tied, corners=CORNERS)
        swept = tie_low(mult6, tied)
        for idx, corner in enumerate(CORNERS):
            scalar = analyze(swept, lib, scenario=corner)
            assert_report_equal(inc.report(idx), scalar)

    def test_dropped_matches_swept_gate_count(self, lib, mult6):
        tied = mult6.primary_inputs[:8]
        inc = analyze_incremental(mult6, lib, tied)
        swept = tie_low(mult6, tied)
        assert int(inc.dropped.sum()) == mult6.num_gates - swept.num_gates
        assert 0.0 < inc.cone_fraction <= 1.0

    def test_no_tied_inputs_is_baseline(self, lib, adder8):
        baseline = analyze_batch(adder8, lib, CORNERS)
        inc = analyze_incremental(adder8, lib, [], baseline=baseline,
                                  program=baseline.program)
        assert inc.critical_paths_ps == baseline.critical_paths_ps
        assert inc.cone_fraction == 0.0

    def test_all_tied_zeroes_everything(self, lib, adder8):
        inc = analyze_incremental(adder8, lib, adder8.primary_inputs)
        assert inc.critical_paths_ps == [0.0]
        assert bool(inc.dropped.all())

    def test_stray_net_rejected(self, lib, adder8):
        with pytest.raises(ValueError, match="not primary inputs"):
            analyze_incremental(adder8, lib, [999999])
        with pytest.raises(ValueError, match="not primary inputs"):
            tie_low(adder8, [999999])

    def test_foreign_baseline_rejected(self, lib, adder8, mult6):
        baseline = analyze_batch(mult6, lib, [None])
        with pytest.raises(ValueError, match="different .* program"):
            analyze_incremental(adder8, lib, adder8.primary_inputs[:1],
                                baseline=baseline,
                                program=compile_timing(adder8, lib))

    def test_tie_low_preserves_uids_and_annotations(self, lib, mult6):
        tied = mult6.primary_inputs[:4]
        swept = tie_low(mult6, tied)
        orig_uids = {g.uid for g in mult6.gates}
        assert all(g.uid in orig_uids for g in swept.gates)
        assert set(swept.primary_inputs) == \
            set(mult6.primary_inputs) - set(tied)


class TestTruncatedInputNets:
    def test_full_precision_ties_nothing(self, lib, mult6_component, mult6):
        assert truncated_input_nets(mult6_component, mult6, 6) == []

    def test_per_operand_lsbs(self, lib, mult6_component, mult6):
        tied = truncated_input_nets(mult6_component, mult6, 4)
        pis = mult6.primary_inputs
        assert tied == pis[0:2] + pis[6:8]

    def test_precision_above_width_rejected(self, mult6_component, mult6):
        with pytest.raises(ValueError, match="exceeds width"):
            truncated_input_nets(mult6_component, mult6, 7)


class TestTruncationScreen:
    @pytest.fixture(scope="class")
    def screen(self, lib):
        return truncation_screen(Adder(8), lib,
                                 [worst_case(10.0), balance_case(5.0)],
                                 precisions=range(8, 3, -1), effort="high")

    def test_full_precision_matches_batch(self, lib, screen):
        netlist = synthesize_netlist(Adder(8), lib, effort="high")
        batch = analyze_batch(netlist, lib,
                              [None, worst_case(10.0), balance_case(5.0)])
        for label, cp in zip(screen.scenario_labels,
                             batch.critical_paths_ps):
            assert screen.delay_ps(8, label) == cp

    def test_delays_nonincreasing_in_truncation(self, screen):
        for label in screen.scenario_labels:
            delays = [screen.delay_ps(p, label)
                      for p in screen.precisions]
            assert all(a >= b for a, b in zip(delays, delays[1:]))

    def test_rows_and_required_precision(self, screen):
        rows = screen.to_rows()
        assert [r["precision"] for r in rows] == list(screen.precisions)
        assert screen.required_precision("fresh") == 8
        assert rows[0]["cone_fraction"] == 0.0

    def test_actual_case_spec_rejected(self, lib):
        from repro.core import ActualCaseSpec

        spec = ActualCaseSpec(years=10.0, label="x",
                              operands=(np.arange(4), np.arange(4)))
        with pytest.raises(ValueError, match="uniform-stress"):
            truncation_screen(Adder(8), lib, [spec])


class TestCharacterizeEngines:
    def test_batched_equals_scalar_tables(self, lib):
        scenarios = [worst_case(1.0), worst_case(10.0)]
        batched = characterize(Adder(6), lib, scenarios=scenarios,
                               precisions=range(6, 3, -1), effort="low",
                               cache=None)
        for precision in range(6, 3, -1):
            netlist = synthesize_netlist(Adder(6, precision=precision),
                                         lib, effort="low")
            assert batched.fresh_ps[precision] \
                == analyze(netlist, lib).critical_path_ps
            for scenario in scenarios:
                assert batched.aged_ps[(precision, scenario.label)] \
                    == analyze(netlist, lib,
                               scenario=scenario).critical_path_ps


class TestMultiplierMemo:
    def test_scenario_keyed_entries(self, lib, adder8):
        clear_multiplier_memo()
        one = gate_delays(adder8, lib, scenario=worst_case(1.0))
        ten = gate_delays(adder8, lib, scenario=worst_case(10.0))
        bal = gate_delays(adder8, lib, scenario=balance_case(10.0))
        assert all(ten[uid] > one[uid] for uid in one)
        assert all(bal[uid] < ten[uid] for uid in ten)
        # Replaying a value-equal scenario hits the memo, not the model.
        bti_info, __ = multiplier_memo_info()
        misses = bti_info.misses
        again = gate_delays(adder8, lib, scenario=worst_case(10.0))
        assert again == ten
        bti_info, __ = multiplier_memo_info()
        assert bti_info.misses == misses
        assert bti_info.hits > 0

    def test_model_called_once_per_distinct_key(self, lib, adder8,
                                                monkeypatch):
        from repro.aging import bti as bti_mod

        calls = []
        real = bti_mod.BTIModel.cell_multiplier

        def counting(self, sp, sn, years, wp=0.5, wn=0.5):
            calls.append((sp, sn, years, wp, wn))
            return real(self, sp, sn, years, wp=wp, wn=wn)

        monkeypatch.setattr(bti_mod.BTIModel, "cell_multiplier", counting)
        clear_multiplier_memo()
        gate_delays(adder8, lib, scenario=worst_case(10.0))
        distinct = len(set(calls))
        assert len(calls) == distinct  # one evaluation per (cell, corner)
        assert distinct < adder8.num_gates
        # The batched engine reuses the very same cached floats.
        analyze_batch(adder8, lib, [worst_case(10.0)])
        assert len(calls) == distinct

    def test_batch_and_scalar_share_memo(self, lib, adder8):
        clear_multiplier_memo()
        analyze_batch(adder8, lib, [balance_case(10.0)])
        bti_info, __ = multiplier_memo_info()
        misses = bti_info.misses
        analyze(adder8, lib, scenario=balance_case(10.0))
        bti_info, __ = multiplier_memo_info()
        assert bti_info.misses == misses


# ---------------------------------------------------------------------------
# property test over the fuzz regression corpus (satellite 3)
# ---------------------------------------------------------------------------

_CORPUS = load_corpus(CORPUS_DIR)


@pytest.mark.skipif(not _CORPUS, reason="no fuzz corpus committed")
@given(data=st.data())
def test_engine_matches_scalar_on_corpus(lib, data):
    """Batched + incremental == scalar, on every corpus netlist."""
    __, netlist = data.draw(st.sampled_from(_CORPUS))
    years = data.draw(st.sampled_from([0.0, 1.0, 5.0, 10.0]))
    factory = data.draw(st.sampled_from([worst_case, balance_case]))
    corners = [None, factory(years)]

    batch = analyze_batch(netlist, lib, corners)
    for idx, corner in enumerate(corners):
        scalar = analyze(netlist, lib, scenario=corner)
        assert batch.report(idx).arrivals == scalar.arrivals
        assert batch.report(idx).gate_delays == scalar.gate_delays
        assert batch.critical_paths_ps[idx] == scalar.critical_path_ps

    pis = list(netlist.primary_inputs)
    tied = data.draw(st.lists(st.sampled_from(pis), unique=True,
                              max_size=len(pis))) if pis else []
    inc = analyze_incremental(netlist, lib, tied, corners=corners,
                              baseline=batch, program=batch.program)
    swept = tie_low(netlist, tied)
    for idx, corner in enumerate(corners):
        scalar = analyze(swept, lib, scenario=corner)
        got = inc.report(idx)
        assert got.critical_path_ps == scalar.critical_path_ps
        assert got.gate_delays == scalar.gate_delays
        for net, arrival in scalar.arrivals.items():
            assert got.arrivals[net] == arrival
