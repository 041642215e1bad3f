"""Tests for the Monte Carlo sample-block kernel.

Covers the pieces :func:`repro.mc.mc_block` is built from and the
equalities that make it safe:

* the where-free :func:`~repro.sta.engine.replay_cone` — every
  constant slot reads 0.0 when a touched gate consumes it, so the
  replay equals the masked replay it replaced on random DAGs, and the
  sampled ``(C, S)`` replay equals one deterministic ``(C,)`` replay
  per sample on mult8/adder8 at every precision;
* :func:`~repro.sta.engine.sampled_delays` equals the two-multiplier
  formula ``base * (1 + wp*(mp-1) + wn*(mn-1))`` under uniform
  (``worst*``, ``balance*``) and per-gate ``ActualStress`` corners;
* ``analyze_mc`` and ``run_mc`` results are ``==`` across block sizes
  and ``jobs`` 1/2.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.aging import ActualStress, actual_case
from repro.aging.bti import DEFAULT_BTI
from repro.core.specs import parse_component, parse_scenario
from repro.mc import MCSpec, VariationModel, analyze_mc, run_mc
from repro.sta.engine import (_propagate, analyze_batch, compile_timing,
                              cone_plan, corner_delays, corner_stress,
                              replay_cone, sampled_delays,
                              truncated_input_nets)
from repro.synth import synthesize_netlist
from repro.verify import random_netlist

SCENARIOS = ("fresh", "worst1y", "worst10y", "balance5y")
CORNERS = tuple(parse_scenario(s) for s in SCENARIOS)
SAMPLES = 12


@pytest.fixture(scope="module", params=["mult8", "adder8"])
def design(request, lib):
    component = parse_component(request.param)
    netlist = synthesize_netlist(component, lib, effort="high")
    program = compile_timing(netlist, lib)
    plans = [cone_plan(program, tied) for tied in (
        truncated_input_nets(component, netlist, p)
        for p in range(component.width - 1, 0, -1))]
    return netlist, program, plans


@pytest.fixture(scope="module")
def sampled(design):
    """Sampled delays and arrivals of one block of *design*."""
    __, program, __ = design
    dvth = VariationModel(sigma_mv=30.0, seed=3).gate_dvth(
        program.gate_uids, 0, SAMPLES)
    delays = corner_delays(program, CORNERS, dvth=dvth)
    return delays, _propagate(program, delays)


def masked_replay(plan, baseline, delays):
    """The replay as it was with explicit constant-input masks."""
    arr = baseline.copy()
    const = plan.const_slots
    tail = (1,) * (arr.ndim - 1)
    for step in plan.steps:
        mask = const[step.ins].reshape(step.ins.shape + tail)
        at = np.where(mask, 0.0, arr[step.ins]).max(axis=1) \
            + delays[step.rows]
        at[step.all_const] = 0.0
        arr[step.outs] = at
    return arr


def assert_const_inputs_read_zero(plan, baseline, delays):
    """Walk the replay and check every constant input it gathers."""
    arr = baseline.copy()
    for step in plan.steps:
        vals = arr[step.ins]
        assert not vals[plan.const_slots[step.ins]].any()
        at = vals.max(axis=1) + delays[step.rows]
        at[step.all_const] = 0.0
        arr[step.outs] = at
    assert not arr[plan.const_slots].any()


class TestWhereFreeReplay:
    def test_const_slots_read_zero(self, lib, design, sampled):
        netlist, program, plans = design
        batch = analyze_batch(netlist, lib, CORNERS, program=program)
        delays, arr = sampled
        for plan in plans:
            # No gate drives a rail or a tied input: both read 0.0 in
            # every propagated tensor.
            undriven = plan.const_slots.copy()
            undriven[np.concatenate([lv.out_slots
                                     for lv in program.levels])] = False
            assert undriven[[0, 1]].all()
            assert not batch.arrivals[undriven].any()
            assert not arr[undriven].any()
            assert_const_inputs_read_zero(plan, batch.arrivals,
                                          batch.delays)
            assert_const_inputs_read_zero(plan, arr, delays)

    def test_sampled_equals_per_sample_deterministic(self, design,
                                                     sampled):
        __, __, plans = design
        delays, arr = sampled
        for plan in plans:
            replayed = replay_cone(plan, arr, delays)
            assert replayed.shape == arr.shape
            for s in range(SAMPLES):
                assert (replayed[:, :, s] == replay_cone(
                    plan, arr[:, :, s], delays[:, :, s])).all()
                for c in range(len(CORNERS)):
                    assert (replayed[:, c, s] == replay_cone(
                        plan, arr[:, c, s], delays[:, c, s])).all()

    def test_equals_masked_replay(self, lib, design, sampled):
        netlist, program, plans = design
        batch = analyze_batch(netlist, lib, CORNERS, program=program)
        delays, arr = sampled
        for plan in plans:
            assert (replay_cone(plan, batch.arrivals, batch.delays)
                    == masked_replay(plan, batch.arrivals,
                                     batch.delays)).all()
            assert (replay_cone(plan, arr, delays)
                    == masked_replay(plan, arr, delays)).all()


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_where_free_replay_on_random_netlists(lib, seed, data):
    rng = np.random.default_rng(seed)
    netlist = random_netlist(rng, n_inputs=5, max_gates=30, n_outputs=3)
    program = compile_timing(netlist, lib)
    tied = data.draw(st.lists(st.sampled_from(netlist.primary_inputs),
                              unique=True))
    plan = cone_plan(program, tied)
    batch = analyze_batch(netlist, lib, CORNERS, program=program)
    assert_const_inputs_read_zero(plan, batch.arrivals, batch.delays)
    assert (replay_cone(plan, batch.arrivals, batch.delays)
            == masked_replay(plan, batch.arrivals, batch.delays)).all()


def two_multiplier_delays(program, corners, dvth, bti=DEFAULT_BTI):
    """``base * (1 + wp*(mp-1) + wn*(mn-1))`` with two multipliers."""
    sp, sn, years = corner_stress(program, corners)

    def multiplier(stress):
        shift = bti.delta_vth(stress, years[None, :])[:, :, None] \
            + dvth[:, None, :]
        return (bti.overdrive / (bti.overdrive - shift)) ** bti.alpha

    mp, mn = multiplier(sp), multiplier(sn)
    wp = np.asarray([c.wp for c in program.cells])[program.cell_index]
    wn = np.asarray([c.wn for c in program.cells])[program.cell_index]
    mult = (1.0 + wp[:, None, None] * (mp - 1.0)
            + wn[:, None, None] * (mn - 1.0))
    return program.base_delay_ps[:, None, None] * mult


class TestSampledDelays:
    def actual_corner(self, program, years):
        rng = np.random.default_rng(11)
        stress = ActualStress({int(uid): (float(p), float(n))
                               for uid, (p, n) in zip(
                                   program.gate_uids,
                                   rng.uniform(0.0, 1.0,
                                               (program.n_gates, 2)))})
        return actual_case(years, stress)

    @pytest.mark.parametrize("scenarios", [
        ("worst1y", "worst10y"), ("fresh", "balance10y"),
        ("fresh", "worst10y", "balance1y")])
    def test_uniform_corners(self, design, scenarios):
        __, program, __ = design
        corners = tuple(parse_scenario(s) for s in scenarios)
        dvth = VariationModel(seed=9).gate_dvth(program.gate_uids, 0, 40)
        assert (sampled_delays(program, corners)(dvth)
                == two_multiplier_delays(program, corners, dvth)).all()

    def test_actual_stress_corners(self, design):
        __, program, __ = design
        corners = (None, self.actual_corner(program, 10.0),
                   parse_scenario("worst5y"))
        sp, sn, __ = corner_stress(program, corners)
        assert (sp != sn).any()
        dvth = VariationModel(seed=9).gate_dvth(program.gate_uids, 7, 33)
        delays = sampled_delays(program, corners)
        assert (delays(dvth)
                == two_multiplier_delays(program, corners, dvth)).all()
        assert (corner_delays(program, corners, dvth=dvth)
                == delays(dvth)).all()

    def test_function_is_reusable_across_blocks(self, design):
        __, program, __ = design
        model = VariationModel(seed=4)
        delays = sampled_delays(program, CORNERS)
        for start, count in ((0, 5), (5, 256), (300, 1)):
            dvth = model.gate_dvth(program.gate_uids, start, count)
            assert (delays(dvth)
                    == two_multiplier_delays(program, CORNERS, dvth)).all()


class TestBlockAndJobsInvariance:
    def test_analyze_mc_blocks(self, lib, design):
        netlist, program, __ = design
        variation = VariationModel(sigma_mv=25.0, seed=21)
        runs = [analyze_mc(netlist, lib, CORNERS, variation, samples=300,
                           program=program, block=block,
                           keep_arrivals=True)
                for block in (256, 300, 100, 7)]
        for other in runs[1:]:
            assert (other.critical_path_ps == runs[0].critical_path_ps).all()
            assert (other.arrivals == runs[0].arrivals).all()

    def test_run_mc_blocks_and_jobs(self, lib):
        base = dict(component="adder8", scenarios=("worst1y", "worst10y"),
                    clock_scales=(1.0, 0.97), samples=300, seed=5,
                    sweep_bits=3, effort="high")
        want = run_mc(MCSpec(**base).validated(), library=lib,
                      jobs=1).to_dict()
        for block, jobs in ((256, 2), (64, 1), (300, 2), (7, 1)):
            got = run_mc(MCSpec(block=block, **base).validated(),
                         library=lib, jobs=jobs).to_dict()
            got["spec"].pop("block")
            ref = dict(want, spec=dict(want["spec"]))
            ref["spec"].pop("block")
            assert got == ref
