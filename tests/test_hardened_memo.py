"""The aging-aware baseline [4] is memoized on its sweep base.

``aging_aware_synthesize`` starts from a memoized sweep base's
post-optimize snapshot; its result is kept on that same base, keyed on
content (scenario, target, rounds, area budget, BTI model, degradation
library) and evicted with it. A repeat call returns the same object and
synthesizes nothing, so the warm paper pipeline's Fig. 8(c) comparison
re-derives nothing.
"""

import dataclasses

import pytest

from repro.aging import balance_case, worst_case
from repro.aging.bti import DEFAULT_BTI
from repro.core import (Block, Microarchitecture, compare_with_baseline,
                        remove_guardband)
from repro.core.cache import netlist_fingerprint
from repro.core.specs import parse_component
from repro.obs import metrics as obs_metrics
from repro.rtl import Adder, Multiplier
from repro.synth import aging_aware_synthesize, clear_sweep_memo, sweep_for
from repro.synth import sweep as sweep_mod

SCENARIO = worst_case(10.0)


@pytest.fixture(autouse=True)
def _fresh_sweep_memo():
    clear_sweep_memo()
    yield
    clear_sweep_memo()


def assert_results_equal(a, b):
    assert netlist_fingerprint(a.netlist) == netlist_fingerprint(b.netlist)
    assert a.sizing == b.sizing
    assert a.fresh_delay_ps == b.fresh_delay_ps
    assert a.aged_delay_ps == b.aged_delay_ps
    assert a.target_ps == b.target_ps


def test_repeat_call_returns_the_same_result(lib):
    component = Adder(8)
    sweep = sweep_for(component, lib, effort="ultra")
    first = aging_aware_synthesize(component, lib, SCENARIO)
    with obs_metrics.scoped() as registry:
        again = aging_aware_synthesize(component, lib, SCENARIO)
    assert again is first
    assert registry.value(obs_metrics.NETLIST_MEMO_HITS) == 1
    assert registry.value(obs_metrics.SYNTH_SIZING_UPSIZES) == 0
    assert list(sweep._hardened.values()) == [first]


def test_recompute_after_clear_is_field_equal(lib):
    component = Multiplier(6)
    sweep_for(component, lib, effort="ultra")
    first = aging_aware_synthesize(component, lib, SCENARIO)
    clear_sweep_memo()
    # No base: optimized and hardened afresh, unmemoized.
    unmemoized = aging_aware_synthesize(component, lib, SCENARIO)
    assert unmemoized is not first
    assert aging_aware_synthesize(component, lib, SCENARIO) \
        is not unmemoized
    sweep_for(component, lib, effort="ultra")
    again = aging_aware_synthesize(component, lib, SCENARIO)
    assert again is not first
    for other in (unmemoized, again):
        assert_results_equal(other, first)


@pytest.mark.parametrize("change", [
    {"scenario": worst_case(1.0)},
    {"scenario": balance_case(10.0)},
    {"target_ps": 1e6},
    {"area_budget_ratio": 1.3},
    {"area_budget_ratio": None},
    {"bti": dataclasses.replace(DEFAULT_BTI, prefactor_v=2.0e-3)},
], ids=["1y", "balance", "target", "budget", "no-budget", "bti"])
def test_distinct_inputs_get_distinct_entries(lib, change):
    component = Adder(8)
    sweep = sweep_for(component, lib, effort="ultra")
    base = aging_aware_synthesize(component, lib, SCENARIO)
    kwargs = {"scenario": SCENARIO}
    kwargs.update(change)
    scenario = kwargs.pop("scenario")
    other = aging_aware_synthesize(component, lib, scenario, **kwargs)
    assert other is not base
    assert len(sweep._hardened) == 2
    assert aging_aware_synthesize(component, lib, scenario,
                                  **kwargs) is other
    assert aging_aware_synthesize(component, lib, SCENARIO) is base


def test_least_recently_used_entry_goes_first(lib):
    component = Adder(6)
    sweep = sweep_for(component, lib, effort="ultra")
    ratios = [1.0 + 0.05 * i for i in range(sweep_mod._HARDENED_LIMIT + 1)]
    results = [aging_aware_synthesize(component, lib, SCENARIO,
                                      area_budget_ratio=r)
               for r in ratios[:-1]]
    # Touching the oldest makes the second one the least recently used.
    assert aging_aware_synthesize(component, lib, SCENARIO,
                                  area_budget_ratio=ratios[0]) is results[0]
    newest = aging_aware_synthesize(component, lib, SCENARIO,
                                    area_budget_ratio=ratios[-1])
    held = list(sweep._hardened.values())
    assert len(held) == sweep_mod._HARDENED_LIMIT
    assert results[1] not in held
    assert held[-1] is newest and results[0] in held


def test_entry_is_evicted_with_its_base(lib):
    component = Adder(8)
    sweep_for(component, lib, effort="ultra")
    first = aging_aware_synthesize(component, lib, SCENARIO)
    for spec in ("adder4", "adder5", "mult4", "mult5"):
        sweep_for(parse_component(spec), lib, effort="low")
    assert sweep_mod.memoized_base(component, lib, 8) is None
    # Without its base the call is unmemoized ...
    assert aging_aware_synthesize(component, lib, SCENARIO) is not first
    # ... and a new base starts a new memo.
    sweep_for(component, lib, effort="ultra")
    with obs_metrics.scoped() as registry:
        again = aging_aware_synthesize(component, lib, SCENARIO)
    assert registry.value(obs_metrics.NETLIST_MEMO_HITS) == 0
    assert again is not first
    assert_results_equal(again, first)


def test_sources_without_a_base_are_not_memoized(lib):
    component = Adder(8)
    sweep_for(component, lib, effort="ultra")
    netlist = component.build()
    raw = aging_aware_synthesize(netlist, lib, SCENARIO)
    assert aging_aware_synthesize(netlist, lib, SCENARIO) is not raw
    truncated = component.with_precision(6)
    narrow = aging_aware_synthesize(truncated, lib, SCENARIO)
    assert aging_aware_synthesize(truncated, lib, SCENARIO) is not narrow
    # Rounds no memoized base ran.
    other = aging_aware_synthesize(component, lib, SCENARIO, effort_rounds=3)
    assert aging_aware_synthesize(component, lib, SCENARIO,
                                  effort_rounds=3) is not other
    assert not sweep_for(component, lib, effort="ultra")._hardened


def test_second_comparison_synthesizes_nothing(lib):
    micro = Microarchitecture("mini", [
        Block(name="mult", component=Multiplier(8), instances=2),
        Block(name="acc", component=Adder(8), instances=1),
    ])
    report = remove_guardband(micro, lib, SCENARIO, effort="high")

    def compare():
        return compare_with_baseline(micro, report.outcome, lib, SCENARIO,
                                     effort="high", activity_count=128)

    first = compare()
    with obs_metrics.scoped() as registry:
        second = compare()
    assert registry.value(obs_metrics.SYNTH_RUNS) == 0
    assert registry.value(obs_metrics.SYNTH_SIZING_UPSIZES) == 0
    assert registry.value(obs_metrics.NETLIST_MEMO_HITS) >= 2
    assert second.ratios == first.ratios
    assert second.baseline == first.baseline
    # A cold recompute agrees with the memo-served one.
    clear_sweep_memo()
    assert compare().ratios == first.ratios
