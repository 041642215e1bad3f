"""Tests for timing-driven sizing and the aging-aware baseline [4]."""

import pytest

from repro.aging import worst_case
from repro.rtl import Adder, Multiplier
from repro.sta import critical_path_delay
from repro.synth import aging_aware_synthesize, optimize
from repro.verify import upsize_critical_paths


def optimized_netlist(component, lib):
    net = component.build().copy()
    return optimize(net, lib)


class TestSizing:
    def test_performance_sizing_speeds_up(self, lib):
        net = optimized_netlist(Adder(16), lib)
        before = critical_path_delay(net, lib)
        report = upsize_critical_paths(net, lib, target_ps=0.0)
        after = critical_path_delay(net, lib)
        assert after < before
        assert report.upsized > 0
        assert not report.met  # target 0 is unreachable by design

    def test_reachable_target_met(self, lib):
        net = optimized_netlist(Adder(16), lib)
        goal = 0.97 * critical_path_delay(net, lib)
        report = upsize_critical_paths(net, lib, target_ps=goal)
        assert report.met
        assert report.achieved_ps <= goal

    def test_trivial_target_is_noop(self, lib):
        net = optimized_netlist(Adder(8), lib)
        cp = critical_path_delay(net, lib)
        report = upsize_critical_paths(net, lib, target_ps=cp * 2)
        assert report.met
        assert report.upsized == 0

    def test_area_budget_respected(self, lib):
        net = optimized_netlist(Adder(16), lib)
        budget = net.area(lib) * 1.02
        report = upsize_critical_paths(net, lib, target_ps=0.0,
                                       max_area_um2=budget)
        # One sizing round may overshoot slightly, but the pass must
        # stop as soon as the budget is hit.
        assert net.area(lib) <= budget * 1.5
        assert not report.met

    def test_sizing_only_changes_cells(self, lib):
        net = optimized_netlist(Adder(8), lib)
        topology = [(g.uid, g.kind, g.inputs, g.output) for g in net.gates]
        upsize_critical_paths(net, lib, target_ps=0.0)
        assert [(g.uid, g.kind, g.inputs, g.output)
                for g in net.gates] == topology

    def test_aged_target_sizing(self, lib):
        net = optimized_netlist(Adder(16), lib)
        scenario = worst_case(10)
        goal = critical_path_delay(net, lib) * 1.05
        report = upsize_critical_paths(net, lib, target_ps=goal,
                                       scenario=scenario)
        aged = critical_path_delay(net, lib, scenario=scenario)
        assert report.achieved_ps == pytest.approx(aged)


class TestAgingAwareBaseline:
    def test_hardening_reduces_aged_delay(self, lib):
        scenario = worst_case(10)
        plain = optimized_netlist(Adder(16), lib)
        plain_aged = critical_path_delay(plain, lib, scenario=scenario)
        result = aging_aware_synthesize(Adder(16), lib, scenario)
        assert result.aged_delay_ps < plain_aged

    def test_reports_both_delays(self, lib):
        result = aging_aware_synthesize(Adder(8), lib, worst_case(10))
        assert result.aged_delay_ps > result.fresh_delay_ps
        assert result.target_ps > 0

    def test_unbounded_budget_can_close_timing(self, lib):
        scenario = worst_case(1)
        result = aging_aware_synthesize(Adder(8), lib, scenario,
                                        area_budget_ratio=None)
        # With no area bound the small adder can be hardened to (or very
        # near) its fresh constraint.
        assert result.aged_delay_ps <= result.target_ps * 1.10

    def test_budget_limits_hardening(self, lib):
        scenario = worst_case(10)
        tight = aging_aware_synthesize(Multiplier(6), lib, scenario,
                                       area_budget_ratio=1.01)
        loose = aging_aware_synthesize(Multiplier(6), lib, scenario,
                                       area_budget_ratio=1.5)
        assert tight.netlist.area(lib) <= loose.netlist.area(lib)
        assert loose.aged_delay_ps <= tight.aged_delay_ps

    def test_explicit_target(self, lib):
        scenario = worst_case(10)
        result = aging_aware_synthesize(Adder(8), lib, scenario,
                                        target_ps=1e6)
        assert result.sizing.met
        assert result.sizing.upsized == 0
