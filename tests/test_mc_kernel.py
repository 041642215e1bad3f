"""Tests for the Monte Carlo sample-block kernel.

Covers the pieces :func:`repro.mc.mc_block` is built from and the
equalities that make it safe:

* the in-place delta replay (:func:`~repro.sta.engine.delta_plan` +
  :func:`~repro.sta.engine.replay_cone`) — every constant slot reads
  0.0, so it needs no mask; a chain of deltas over any sequence of tie
  sets (nested or not, empty, repeated) equals the structural-cone
  oracle :func:`repro.verify.structural_replay` at every step, and
  ``analyze_batch`` of the :func:`~repro.sta.engine.tie_low` netlist
  on deterministic corners; the sampled ``(C, S)`` replay equals one
  deterministic ``(C,)`` replay per sample, and a block's precision
  ladder equals the oracle's critical paths on mult8/adder8 in any
  order; the ``sta.replay_rows`` counter pins how much a mult16
  ladder replays;
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
from repro.core.grid import timing_grid
from repro.core.specs import parse_component, parse_scenario
from repro.mc import MCSpec, VariationModel, analyze_mc, mc_block, run_mc
from repro.mc.engine import sample_blocks
from repro.obs import metrics as obs_metrics
from repro.sta.engine import (_critical_paths, _propagate, analyze_batch,
                              compile_timing, cone_plan, corner_delays,
                              corner_stress, delta_plan, replay_cone,
                              sampled_delays, tie_low,
                              truncated_input_nets)
from repro.synth import synthesize_netlist
from repro.verify import random_netlist, structural_replay

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


def replayed(program, plan, baseline, delays, reference=None):
    """A copy of *baseline* with the delta to *plan* applied."""
    arr = baseline.copy()
    replay_cone(delta_plan(program, reference, plan), arr, delays)
    return arr


def masked_replay(program, plan, baseline, delays):
    """The structural replay with explicit constant-input masks."""
    arr = baseline.copy()
    const = plan.const_slots
    changed = const.copy()
    tail = (1,) * (arr.ndim - 1)
    for level in program.levels:
        touched = changed[level.in_slots].any(axis=1)
        ins = level.in_slots[touched]
        mask = const[ins].reshape(ins.shape + tail)
        at = np.where(mask, 0.0, arr[ins]).max(axis=1) \
            + delays[level.rows[touched]]
        at[const[ins].all(axis=1)] = 0.0
        arr[level.out_slots[touched]] = at
        changed[level.out_slots[touched]] = True
    return arr


class TestWhereFreeReplay:
    def test_const_slots_read_zero(self, lib, design, sampled):
        netlist, program, plans = design
        batch = analyze_batch(netlist, lib, CORNERS, program=program)
        delays, arr = sampled
        for plan in plans:
            # No gate drives a rail or a tied input: both read 0.0 in
            # every propagated tensor.
            undriven = plan.const_slots.copy()
            undriven[program.out_slots] = False
            assert undriven[[0, 1]].all()
            assert not batch.arrivals[undriven].any()
            assert not arr[undriven].any()
            # Dropped outputs are zeroed by the replay itself, so every
            # constant slot reads 0.0 afterwards.
            assert not replayed(program, plan, batch.arrivals,
                                batch.delays)[plan.const_slots].any()
            assert not replayed(program, plan, arr,
                                delays)[plan.const_slots].any()

    def test_sampled_equals_per_sample_deterministic(self, design,
                                                     sampled):
        __, program, plans = design
        delays, arr = sampled
        for plan in plans:
            got = replayed(program, plan, arr, delays)
            assert got.shape == arr.shape
            for s in range(SAMPLES):
                assert (got[:, :, s] == replayed(
                    program, plan, arr[:, :, s], delays[:, :, s])).all()
                for c in range(len(CORNERS)):
                    assert (got[:, c, s] == replayed(
                        program, plan, arr[:, c, s],
                        delays[:, c, s])).all()

    def test_equals_masked_replay(self, lib, design, sampled):
        netlist, program, plans = design
        batch = analyze_batch(netlist, lib, CORNERS, program=program)
        delays, arr = sampled
        for plan in plans:
            for base, dl in ((batch.arrivals, batch.delays), (arr, delays)):
                oracle = structural_replay(program, plan.tied, base, dl)
                assert (oracle == masked_replay(program, plan, base,
                                                dl)).all()
                assert (replayed(program, plan, base, dl) == oracle).all()

    def test_ladder_equals_oracle(self, design):
        """A block's in-place ladder, walked in any order, gives the
        oracle's (C, S) critical paths at every precision."""
        __, program, plans = design
        delays_of = sampled_delays(program, CORNERS)
        variation = VariationModel(sigma_mv=30.0, seed=3)
        delays = delays_of(variation.gate_dvth(program.gate_uids, 0,
                                               SAMPLES))
        base = _propagate(program, delays)
        ladder = [None] + plans
        for order in (ladder, ladder[::-1], ladder[1::2] + ladder[::2]):
            __, cps = mc_block(program, delays_of, variation, 0, SAMPLES,
                               order)
            for plan, cp in zip(order, cps):
                want = base if plan is None else structural_replay(
                    program, plan.tied, base, delays)
                assert (cp == _critical_paths(program, want)).all()

    def test_delta_rows_are_memoized_cone_of_flipped_rows(self, design):
        __, program, plans = design
        assert delta_plan(program, None, None).rows == 0
        for plan in plans:
            assert delta_plan(program, plan, plan).rows == 0
            delta = delta_plan(program, None, plan)
            assert delta_plan(program, None, plan) is delta
            assert int(plan.dropped.sum()) <= delta.rows <= plan.cone_gates


TIE_SETS = st.lists(st.integers(0, 4), unique=True)


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_where_free_replay_on_random_netlists(lib, seed, data):
    rng = np.random.default_rng(seed)
    netlist = random_netlist(rng, n_inputs=5, max_gates=30, n_outputs=3)
    program = compile_timing(netlist, lib)
    tied = data.draw(st.lists(st.sampled_from(netlist.primary_inputs),
                              unique=True))
    plan = cone_plan(program, tied)
    batch = analyze_batch(netlist, lib, CORNERS, program=program)
    got = replayed(program, plan, batch.arrivals, batch.delays)
    assert not got[plan.const_slots].any()
    assert (got == masked_replay(program, plan, batch.arrivals,
                                 batch.delays)).all()


@given(seed=st.integers(0, 2**32 - 1),
       sequence=st.lists(st.none() | TIE_SETS, min_size=1, max_size=6))
def test_delta_chain_on_random_netlists(lib, seed, sequence):
    """Any sequence of tie sets (nested or not, empty, repeated, or
    ``None`` for untruncated), applied as a chain of in-place deltas,
    equals the structural oracle from the baseline at every step, and
    on deterministic corners the STA of the explicitly tied netlist."""
    rng = np.random.default_rng(seed)
    netlist = random_netlist(rng, n_inputs=5, max_gates=30, n_outputs=3)
    program = compile_timing(netlist, lib)
    batch = analyze_batch(netlist, lib, CORNERS, program=program)
    dvth = VariationModel(sigma_mv=30.0, seed=seed).gate_dvth(
        program.gate_uids, 0, 3)
    delays = corner_delays(program, CORNERS, dvth=dvth)
    sampled_base = _propagate(program, delays)
    chains = [(batch.arrivals, batch.arrivals.copy(), batch.delays),
              (sampled_base, sampled_base.copy(), delays)]
    previous = None
    for picks in sequence:
        tied = None if picks is None \
            else [netlist.primary_inputs[i] for i in picks]
        plan = None if tied is None else cone_plan(program, tied)
        delta = delta_plan(program, previous, plan)
        for base, arr, dl in chains:
            replay_cone(delta, arr, dl)
            want = base if tied is None \
                else structural_replay(program, tied, base, dl)
            assert (arr == want).all()
        previous = plan
        if tied is None:
            continue
        swept = analyze_batch(tie_low(netlist, tied), lib, CORNERS)
        arr = chains[0][1]
        for net, slot in swept.program.slot_of.items():
            assert (arr[program.slot_of[net]]
                    == swept.arrivals[slot]).all()
        assert (_critical_paths(program, arr)
                == swept.critical_path_ps).all()


def test_mult16_ladder_replay_rows(lib):
    """A mult16 ladder of 9 precisions replays 2278 rows per sample
    block, against 8552 in the precisions' structural cones."""
    base = dict(component="mult16", scenarios=("worst1y", "worst10y"),
                samples=64, block=32, sweep_bits=8, effort="high")
    grid = timing_grid("mult16", scenarios=base["scenarios"],
                       library=lib)
    structural = sum(grid.plan(p).cone_gates for p in range(15, 7, -1))
    assert structural == 8552
    run_mc(MCSpec(**base).validated(), library=lib, jobs=1)
    with obs_metrics.scoped() as registry:
        run_mc(MCSpec(seed=1, **base).validated(), library=lib, jobs=1)
    rows = registry.value(obs_metrics.STA_REPLAY_ROWS)
    assert rows == 2278 * len(sample_blocks(64, 32))


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
