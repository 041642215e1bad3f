"""Incremental sweep synthesis: bit-exact equivalence with scratch.

:mod:`repro.synth.sweep` is a perf optimization with a hard contract —
every derived truncated variant must be *content-fingerprint identical*
to an independent from-scratch ``synthesize()`` of the explicitly
truncated component, with float-equal delay/area/leakage. These tests
hold it to that contract across component families, efforts and
precisions, and cover the satellites that ride along: canonical sizing
order, per-pass metrics, the per-process base memo and the
characterize/verify wiring.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells import default_library
from repro.core import characterize
from repro.core.cache import netlist_fingerprint
from repro.core.specs import parse_component
from repro.obs import metrics as obs_metrics
from repro.synth import (SweepSynthesis, clear_sweep_memo, sweep_for,
                         synthesize, synthesize_variant, upsize_fast)
from repro.verify import (check_synth_sweep, reference_synthesize,
                          upsize_critical_paths)


@pytest.fixture(scope="module")
def lib():
    return default_library()


@pytest.fixture(autouse=True)
def _fresh_sweep_memo():
    clear_sweep_memo()
    yield
    clear_sweep_memo()


def assert_point_identical(derived, scratch, label):
    assert netlist_fingerprint(derived.netlist) \
        == netlist_fingerprint(scratch.netlist), label
    assert derived.delay_ps == scratch.delay_ps, label
    assert derived.area_um2 == scratch.area_um2, label
    assert derived.leakage_nw == scratch.leakage_nw, label
    assert derived.final_gates == scratch.final_gates, label


class TestReplayMatchesScratch:
    @pytest.mark.parametrize("spec", ["adder8", "mult8", "mac4", "csel8"])
    @pytest.mark.parametrize("effort", ["low", "medium", "ultra"])
    def test_families(self, lib, spec, effort):
        component = parse_component(spec)
        sweep = SweepSynthesis(component, lib, effort=effort)
        width = component.width
        for precision in range(width, max(width - 4, 1) - 1, -1):
            derived = sweep.derive(precision)
            scratch = synthesize(component.with_precision(precision),
                                 lib, effort=effort)
            assert_point_identical(
                derived, scratch, "%s p=%d %s" % (spec, precision, effort))

    def test_full_precision_is_base(self, lib):
        component = parse_component("adder8")
        sweep = SweepSynthesis(component, lib, effort="medium")
        assert sweep.derive(8) is sweep.base_result

    def test_target_ps_sizing_path(self, lib):
        """Sized-to-target derivations stay bit-identical too."""
        component = parse_component("adder8")
        target = 120.0
        sweep = SweepSynthesis(component, lib, effort="ultra",
                               target_ps=target)
        for precision in (7, 5):
            derived = sweep.derive(precision)
            scratch = synthesize(component.with_precision(precision),
                                 lib, effort="ultra", target_ps=target)
            assert_point_identical(derived, scratch, "p=%d" % precision)

    def test_derivation_is_memoized(self, lib):
        component = parse_component("adder8")
        sweep = SweepSynthesis(component, lib, effort="medium")
        assert sweep.derive(6) is sweep.derive(6)
        sweep.clear_derived()
        again = sweep.derive(6)
        assert again is sweep.derive(6)


@given(spec=st.sampled_from(["adder", "rca", "multiplier", "mac"]),
       width=st.integers(min_value=4, max_value=8),
       effort=st.sampled_from(["low", "medium", "high", "ultra"]),
       data=st.data())
@settings(max_examples=25, deadline=None)
def test_sweep_equals_scratch_property(spec, width, effort, data):
    """Property: any (family, width, effort, precision) derives a
    variant fingerprint-identical to from-scratch synthesis."""
    lib = default_library()
    component = parse_component(spec, width=width)
    precision = data.draw(
        st.integers(min_value=max(1, width - 3), max_value=width),
        label="precision")
    sweep = sweep_for(component, lib, effort=effort)
    derived = sweep.derive(precision)
    scratch = synthesize(component.with_precision(precision), lib,
                         effort=effort)
    assert_point_identical(
        derived, scratch, "%s w=%d p=%d %s" % (spec, width, precision,
                                               effort))


class TestSizingCanonicalOrder:
    def test_permuted_insertion_order_sizes_identically(self, lib):
        """The upsize order is a function of netlist content, not of
        gate-list insertion order."""
        component = parse_component("adder8")
        result = synthesize(component, lib, effort="high")  # unsized
        first = result.netlist.copy()
        second = result.netlist.copy()
        second.gates = list(reversed(second.gates))
        second._topo_cache = None

        for sizer in (upsize_fast, upsize_critical_paths):
            one, other = first.copy(), second.copy()
            sizer(one, lib, target_ps=0.0, max_rounds=6)
            sizer(other, lib, target_ps=0.0, max_rounds=6)
            cells_one = {g.uid: g.cell for g in one.gates}
            assert cells_one == {g.uid: g.cell for g in other.gates}
            assert cells_one != {g.uid: g.cell for g in first.gates}


class TestMetrics:
    def test_sweep_metrics_recorded(self, lib):
        component = parse_component("adder8")
        with obs_metrics.scoped() as registry:
            synthesize_variant(component, 6, lib, effort="ultra")
            snap = registry.snapshot()
        counters = snap["counters"]
        assert counters.get(obs_metrics.SYNTH_SWEEP_DERIVES) == 1
        assert counters.get(obs_metrics.SYNTH_CONSTPROP_REWRITES, 0) > 0
        assert counters.get(obs_metrics.SYNTH_DEAD_GATES, 0) > 0
        assert counters.get(obs_metrics.SYNTH_SIZING_ROUNDS, 0) > 0
        assert obs_metrics.SYNTH_SWEEP_CONE_GATES in snap["histograms"]
        cone = snap["histograms"][obs_metrics.SYNTH_SWEEP_CONE_GATES]
        assert cone["count"] == 1 and cone["sum"] > 0

    def test_scalar_sizing_metrics_recorded(self, lib):
        component = parse_component("adder8")
        with obs_metrics.scoped() as registry:
            synthesize(component, lib, effort="ultra")
            counters = registry.snapshot()["counters"]
        assert counters.get(obs_metrics.SYNTH_SIZING_ROUNDS, 0) > 0
        assert counters.get(obs_metrics.SYNTH_SIZING_UPSIZES, 0) > 0


class TestProcessMemo:
    def test_sweep_for_memoizes_base(self, lib):
        component = parse_component("mult8")
        with obs_metrics.scoped() as registry:
            first = sweep_for(component, lib, effort="medium")
            second = sweep_for(component.with_precision(5), lib,
                               effort="medium")
            counters = registry.snapshot()["counters"]
        assert first is second
        assert counters.get(obs_metrics.SYNTH_SWEEP_BASE_MEMO_HITS) == 1
        assert sweep_for(component, lib, effort="ultra") is not first

    def test_fifth_family_evicts_only_oldest(self, lib):
        from repro.synth import sweep as sweep_mod
        specs = ["adder4", "adder5", "adder6", "mult4", "mult5"]
        with obs_metrics.scoped() as registry:
            first = [sweep_for(parse_component(spec), lib, effort="low")
                     for spec in specs[:4]]
            # Touching the oldest makes adder5 the least recently used.
            assert sweep_for(parse_component("adder4"), lib,
                             effort="low") is first[0]
            fifth = sweep_for(parse_component(specs[4]), lib, effort="low")
            evictions = registry.value(
                obs_metrics.SYNTH_SWEEP_BASE_MEMO_EVICTIONS)
        held = list(sweep_mod._sweep_memo.values())
        assert evictions == 1
        assert len(held) == sweep_mod._SWEEP_MEMO_LIMIT
        assert first[1] not in held
        assert all(s in held for s in (first[0], first[2], first[3], fifth))
        assert held[-1] is fifth

    def test_synthesize_variant_drop_in(self, lib):
        component = parse_component("mult8")
        derived = synthesize_variant(component, 5, lib, effort="medium")
        scratch = synthesize(component.with_precision(5), lib,
                             effort="medium")
        assert_point_identical(derived, scratch, "synthesize_variant")


class TestCharacterizeWiring:
    def test_characterize_sweep_equals_scratch(self, lib):
        """Every characterized point equals scratch synthesis sized by
        the dict-sizer oracle, analyzed by a fresh timing compile."""
        from repro.aging import worst_case
        from repro.sta.engine import analyze_batch, compile_timing
        from repro.sta.paths import logic_depth
        component = parse_component("adder8")
        scenario = worst_case(10.0)
        swept = characterize(component, lib, scenarios=[scenario],
                             precisions=[8, 7, 6], effort="ultra",
                             cache=None)
        for precision in (8, 7, 6):
            ref = reference_synthesize(component.with_precision(precision),
                                       lib, effort="ultra")
            batch = analyze_batch(
                ref.netlist, lib, [scenario],
                program=compile_timing(ref.netlist, lib, memo=False))
            assert swept.fresh_ps[precision] == ref.delay_ps
            assert swept.aged_ps[(precision, scenario.label)] \
                == batch.critical_paths_ps[0]
            assert swept.area_um2[precision] == ref.area_um2
            assert swept.leakage_nw[precision] == ref.leakage_nw
            assert swept.gates[precision] == ref.final_gates
            assert swept.depth[precision] == logic_depth(ref.netlist)


class TestVerifyInvariant:
    def test_check_synth_sweep_passes(self, lib):
        component = parse_component("adder8")
        results = check_synth_sweep(component, lib, efforts=("ultra",),
                                    precisions=[8, 7, 5])
        assert [r.name for r in results] == ["synth_sweep_bit_exact"]
        assert all(r.passed for r in results), \
            [(r.name, r.detail) for r in results]
