"""The one production sizer against the dict-sizer oracle, bit for bit.

:func:`repro.synth.fastsize.upsize_fast` sizes every netlist — "ultra"
synthesis, sweep derivations and the aging-aware baseline — and must
reproduce :func:`repro.verify.upsize_critical_paths` exactly: the same
final cells and the same ``SizingReport`` (``met``, ``achieved_ps``,
``upsized``, ``rounds``) on fresh, uniformly aged (worst and balanced
stress), per-gate ``ActualStress``-aged and area-budgeted runs, with
aged delays bit-identical to the STA engine's ``corner_delays``. The timing program it
lowers from its final sizer program must equal a fresh
``compile_timing(..., memo=False)`` array for array.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aging import AgingScenario, balance_case, worst_case
from repro.aging.bti import DEFAULT_BTI
from repro.aging.stress import ActualStress
from repro.cells import default_library
from repro.core.cache import netlist_fingerprint
from repro.core.specs import parse_component
from repro.sta.engine import analyze_batch, compile_timing, corner_delays
from repro.synth import (aging_aware_synthesize, clear_sweep_memo, optimize,
                         sweep_for, synthesize, upsize_fast)
from repro.synth.fastsize import _aging, compile_sizer, timing_program
from repro.synth.synthesize import EFFORTS
from repro.verify import random_netlist, upsize_critical_paths

LIB = default_library()
MODES = ("fresh", "uniform", "balance", "actual", "budget")


@pytest.fixture(autouse=True)
def _fresh_sweep_memo():
    clear_sweep_memo()
    yield
    clear_sweep_memo()


def _fresh_cp(netlist):
    """Fresh critical path from a freshly compiled timing program."""
    program = compile_timing(netlist, LIB, memo=False)
    return analyze_batch(netlist, LIB, [None],
                         program=program).critical_paths_ps[0]


def _random_stress(netlist, seed):
    rng = np.random.default_rng(seed)
    return ActualStress({g.uid: (float(rng.random()), float(rng.random()))
                         for g in netlist.gates}, label="random")


def _sizing_args(netlist, mode, seed):
    """``(target_ps, kwargs)`` of one sizing configuration."""
    fresh_cp = _fresh_cp(netlist)
    if mode == "fresh":
        return 0.0, {}
    if mode == "uniform":
        return fresh_cp, {"scenario": worst_case(10.0)}
    if mode == "balance":
        return fresh_cp, {"scenario": balance_case(10.0)}
    if mode == "actual":
        scenario = AgingScenario(10.0, _random_stress(netlist, seed))
        return fresh_cp, {"scenario": scenario}
    return 0.0, {"max_area_um2": 1.03 * netlist.area(LIB),
                 "scenario": worst_case(1.0)}


def assert_programs_equal(lowered, compiled):
    assert lowered.slots == compiled.slots
    assert lowered.slot_of == compiled.slot_of
    assert [g.uid for g in lowered.gates] == [g.uid for g in compiled.gates]
    assert all(a is b for a, b in zip(lowered.gates, compiled.gates))
    for name in ("gate_uids", "out_slots", "base_delay_ps", "loads", "cell_index",
                 "pi_slots", "po_slots"):
        mine, theirs = getattr(lowered, name), getattr(compiled, name)
        assert mine.dtype == theirs.dtype, name
        assert np.array_equal(mine, theirs), name
    assert lowered.cells == compiled.cells
    assert len(lowered.levels) == len(compiled.levels)
    for mine, theirs in zip(lowered.levels, compiled.levels):
        for name in ("rows", "in_slots", "out_slots"):
            a, b = getattr(mine, name), getattr(theirs, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert np.array_equal(a, b), name


def assert_sizers_agree(netlist, mode, seed=0):
    """Size copies of *netlist* with both sizers; compare everything."""
    target, kwargs = _sizing_args(netlist, mode, seed)
    fast_net, ref_net = netlist.copy(), netlist.copy()
    program = compile_sizer(fast_net, LIB)
    fast, arrivals, cp = upsize_fast(fast_net, LIB, target, program,
                                     **kwargs)
    ref = upsize_critical_paths(ref_net, LIB, target, **kwargs)
    assert fast == ref, mode
    assert cp == ref.achieved_ps
    assert ([(g.uid, g.cell) for g in fast_net.gates]
            == [(g.uid, g.cell) for g in ref_net.gates]), mode
    assert_programs_equal(timing_program(program),
                          compile_timing(fast_net, LIB, memo=False))
    return fast


@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(MODES))
def test_random_netlists_match_oracle(seed, mode):
    raw = random_netlist(seed, max_gates=40)
    assert_sizers_agree(optimize(raw.copy(), LIB), mode, seed)
    # Unoptimized: constant inputs and duplicate pins survive.
    assert_sizers_agree(raw, mode, seed)


@pytest.mark.parametrize("spec", ["mult8", "adder8"])
@pytest.mark.parametrize("mode", MODES)
def test_components_match_oracle(spec, mode):
    netlist = synthesize(parse_component(spec), LIB, effort="high").netlist
    report = assert_sizers_agree(netlist, mode, seed=7)
    assert report.upsized > 0


def test_area_budget_binds():
    """The budgeted mult8 run stops on area, before the unbudgeted one."""
    netlist = synthesize(parse_component("mult8"), LIB,
                         effort="high").netlist
    budget = 1.03 * netlist.area(LIB)
    free = upsize_fast(netlist.copy(), LIB, 0.0)[0]
    sized = netlist.copy()
    bound = upsize_fast(sized, LIB, 0.0, max_area_um2=budget)[0]
    assert bound.rounds < free.rounds
    assert sized.area(LIB) >= budget and not bound.met


@pytest.mark.parametrize("effort", ["low", "high", "ultra"])
@pytest.mark.parametrize("spec", ["mult8", "adder8"])
def test_synthesis_seeds_lowered_program(spec, effort):
    component = parse_component(spec)
    results = [synthesize(component, LIB, effort=effort)]
    sweep = sweep_for(component, LIB, effort=effort)
    results += [sweep.derive(p) for p in (component.width,
                                          component.width - 2, 3)]
    # The hardened baseline, memoized on the same base.
    results.append(aging_aware_synthesize(
        component, LIB, worst_case(10.0), effort_rounds=EFFORTS[effort][0]))
    for result in results:
        netlist = result.netlist
        memo = netlist._timing_memo
        assert len(memo) == 1
        seeded = next(iter(memo.values()))
        assert compile_timing(netlist, LIB) is seeded
        assert_programs_equal(seeded,
                              compile_timing(netlist, LIB, memo=False))


@pytest.mark.parametrize("spec", ["mult8", "adder8"])
def test_aging_aware_matches_oracle_flow(spec):
    """The baseline [4] from the sweep base equals optimize + oracle."""
    component = parse_component(spec)
    scenario = worst_case(10.0)
    sweep_for(component, LIB, effort="ultra")
    got = aging_aware_synthesize(component, LIB, scenario)

    netlist = optimize(component.build().copy(), LIB, max_rounds=8)
    target = _fresh_cp(netlist)
    sizing = upsize_critical_paths(netlist, LIB, target, scenario=scenario,
                                   max_area_um2=1.15 * netlist.area(LIB))
    assert netlist_fingerprint(got.netlist) == netlist_fingerprint(netlist)
    assert got.sizing == sizing
    assert got.target_ps == target
    assert got.fresh_delay_ps == _fresh_cp(netlist)
    assert got.aged_delay_ps == sizing.achieved_ps
    # The shared sweep base was copied, not sized in place.
    base = sweep_for(component, LIB, effort="ultra")
    assert base.base_result.netlist is not got.netlist


def _corner(name, netlist):
    if name == "actual10y":
        return AgingScenario(10.0, _random_stress(netlist, 5))
    return {"worst1y": worst_case(1.0), "worst10y": worst_case(10.0),
            "balance10y": balance_case(10.0)}[name]


@pytest.mark.parametrize("corner", ["worst1y", "worst10y", "balance10y",
                                    "actual10y"])
@pytest.mark.parametrize("spec", ["mult8", "adder8"])
def test_aged_sizing_corners_match_oracle(spec, corner):
    """Aged delays (one multiplier per cell id under uniform stress, per
    gate under ``ActualStress``) equal the STA engine's products bit
    for bit, and sizing against them matches the oracle."""
    netlist = synthesize(parse_component(spec), LIB, effort="high").netlist
    scenario = _corner(corner, netlist)
    program = compile_sizer(netlist, LIB)
    aged = _aging(netlist, program, scenario, DEFAULT_BTI, None)
    rows = np.arange(program.n)
    expected = corner_delays(compile_timing(netlist, LIB), [scenario])[:, 0]
    assert np.array_equal(aged(rows), expected)
    assert np.array_equal(aged(rows[::-3]), expected[::-3])
    target = _fresh_cp(netlist)
    fast_net, ref_net = netlist.copy(), netlist.copy()
    fast = upsize_fast(fast_net, LIB, target, scenario=scenario)[0]
    ref = upsize_critical_paths(ref_net, LIB, target, scenario=scenario)
    assert fast == ref and fast.upsized > 0
    assert ([(g.uid, g.cell) for g in fast_net.gates]
            == [(g.uid, g.cell) for g in ref_net.gates])
