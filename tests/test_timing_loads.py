"""Per-gate loads come from the timing program, bit for bit.

:attr:`repro.sta.engine.TimingProgram.loads` is the one source of
per-gate output loads: ``_compile_timing`` takes them from
:meth:`Netlist.load_caps` and ``fastsize.timing_program`` copies the
sizer's, which it sums in the same order. Dynamic power reads them from
the (memoized) program instead of walking the netlist, so every Fig.
8(c) float must equal the old ``load_caps``-based formula exactly.
"""

import numpy as np
import pytest

from repro.aging import worst_case
from repro.power import dynamic_power_uw
from repro.rtl import Adder, Multiplier
from repro.sta.engine import compile_timing
from repro.synth import aging_aware_synthesize, clear_sweep_memo, synthesize
from repro.synth.synthesize import EFFORTS
from repro.synth.sweep import sweep_for
from repro.verify import load_corpus

COMPONENTS = [Multiplier(8), Adder(8)]


@pytest.fixture(autouse=True)
def _fresh_sweep_memo():
    clear_sweep_memo()
    yield
    clear_sweep_memo()


def load_caps_formula_uw(netlist, library, toggle_rates, clock_ps):
    """Dynamic power as computed before loads moved to the program."""
    vdd = library.vdd
    freq_hz = 1e12 / clock_ps
    loads = netlist.load_caps(library, wire_cap_ff=library.wire_cap_ff)
    watts = 0.0
    for gate in netlist.gates:
        alpha = toggle_rates.get(gate.output, 0.0)
        cap_f = loads[gate.uid] * 1e-15
        watts += 0.5 * cap_f * vdd * vdd * alpha * freq_hz
    return watts * 1e6


def assert_loads_exact(program, netlist, library):
    """``program.loads`` holds ``load_caps`` per row, bit for bit."""
    ref = netlist.load_caps(library, wire_cap_ff=library.wire_cap_ff)
    want = np.asarray([ref[g.uid] for g in program.gates], dtype=np.float64)
    assert program.loads.dtype == np.float64
    assert program.loads.shape == (len(netlist.gates),)
    assert program.loads.tobytes() == want.tobytes()


def assert_power_exact(netlist, library, seed):
    rng = np.random.default_rng(seed)
    rates = {g.output: float(rng.random()) for g in netlist.gates}
    for clock in (97.5, 1000.0):
        assert (dynamic_power_uw(netlist, library, rates, clock)
                == load_caps_formula_uw(netlist, library, rates, clock))


def assert_seeded_loads(netlist, library, seed=0):
    """The seeded (sizer-lowered) and a freshly compiled program both
    carry exact loads, and dynamic power matches the old formula."""
    memo = netlist._timing_memo
    assert len(memo) == 1
    seeded = next(iter(memo.values()))
    assert compile_timing(netlist, library) is seeded
    assert_loads_exact(seeded, netlist, library)
    assert_loads_exact(compile_timing(netlist, library, memo=False),
                       netlist, library)
    assert_power_exact(netlist, library, seed)


@pytest.mark.parametrize("effort", sorted(EFFORTS))
@pytest.mark.parametrize("component", COMPONENTS, ids=lambda c: c.name)
def test_synthesized_and_derived(lib, component, effort):
    assert_seeded_loads(synthesize(component, lib, effort=effort).netlist,
                        lib)
    sweep = sweep_for(component, lib, effort=effort)
    for precision in (component.width, component.width - 2, 3):
        assert_seeded_loads(sweep.derive(precision).netlist, lib,
                            seed=precision)


@pytest.mark.parametrize("effort", sorted(EFFORTS))
@pytest.mark.parametrize("component", COMPONENTS, ids=lambda c: c.name)
def test_hardened_baseline(lib, component, effort):
    rounds = EFFORTS[effort][0]
    scenario = worst_case(10.0)
    # No base in the memo: optimized and hardened afresh.
    cold = aging_aware_synthesize(component, lib, scenario,
                                  effort_rounds=rounds)
    assert_seeded_loads(cold.netlist, lib)
    # From the memoized base of this effort.
    sweep_for(component, lib, effort=effort)
    warm = aging_aware_synthesize(component, lib, scenario,
                                  effort_rounds=rounds)
    assert warm is not cold
    assert_seeded_loads(warm.netlist, lib, seed=1)


def test_corpus(lib, corpus_dir):
    corpus = load_corpus(corpus_dir)
    assert corpus
    for seed, (path, netlist) in enumerate(corpus):
        # Raw entries: compiled from load_caps (constants, duplicate
        # pins and any gate-list order survive).
        raw = netlist.copy()
        assert_loads_exact(compile_timing(raw, lib, memo=False), raw, lib)
        assert_power_exact(raw, lib, seed)
        for effort in ("low", "ultra"):
            synthesized = synthesize(netlist, lib, effort=effort).netlist
            assert_seeded_loads(synthesized, lib, seed)
        hardened = aging_aware_synthesize(netlist, lib, worst_case(10.0))
        assert_seeded_loads(hardened.netlist, lib, seed)
