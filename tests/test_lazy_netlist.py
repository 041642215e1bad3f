"""Synthesized netlists build their gates on first read.

Every netlist synthesis returns (scratch, sweep base, sweep derive) is
read-only and holds per-row arrays until ``gates``, ``_driver`` or
``topological_gates()`` is first read. Built or not, it must give
exactly what an eagerly built, frozen netlist gives: the same
fingerprint as the dict-pass oracle, equal gate lists and copies, the
same pickles, the same STA under per-gate stress, and the same
characterization at any ``jobs``. Its token, timing program and gate
count never build it, and ``synth.netlists_materialized`` counts each
build.
"""

import pickle

import numpy as np
import pytest

from repro.aging import AgingScenario, worst_case
from repro.aging.stress import ActualStress
from repro.cells import default_library
from repro.core.cache import compile_token, netlist_fingerprint
from repro.core.characterize import characterize
from repro.core.specs import parse_component
from repro.netlist import CONST0
from repro.netlist.netlist import FrozenNetlist, NetlistError
from repro.obs import metrics as obs_metrics
from repro.rtl import Multiplier
from repro.sta.engine import analyze_batch, compile_timing
from repro.synth import (clear_sweep_memo, sweep_for, synthesize,
                         synthesize_variant)
from repro.synth.synthesize import EFFORTS
from repro.verify import reference_synthesize

LIB = default_library()
SPECS = ("mult8", "adder8")


@pytest.fixture(autouse=True)
def _fresh_sweep_memo():
    clear_sweep_memo()
    yield
    clear_sweep_memo()


def unread(netlist):
    return "_rows" in netlist.__dict__


def eager_twin(variant, effort, token):
    """The dict-pass oracle's netlist of *variant*, built at once and
    frozen under *token*."""
    return reference_synthesize(variant, LIB, effort=effort).netlist.freeze(
        token)


def points(spec, effort):
    """``(variant, derived, scratch)`` from full width down to width - 4."""
    component = parse_component(spec)
    sweep = sweep_for(component, LIB, effort=effort)
    for precision in range(component.width, component.width - 5, -1):
        variant = component.with_precision(precision)
        yield (variant, sweep.derive(precision).netlist,
               synthesize(variant, LIB, effort=effort).netlist)


@pytest.mark.parametrize("effort", sorted(EFFORTS))
@pytest.mark.parametrize("spec", SPECS)
def test_unread_netlists_match_eager_and_oracle(spec, effort):
    for variant, derived, scratch in points(spec, effort):
        assert derived._token == scratch._token
        eager = eager_twin(variant, effort, derived._token)
        for netlist in (derived, scratch):
            assert unread(netlist)
            # Gate count, token and timing program need no gates.
            assert netlist.num_gates == eager.num_gates
            assert compile_token(netlist, LIB)[1] == netlist._token
            assert compile_timing(netlist, LIB).n_gates == eager.num_gates
            assert unread(netlist)
            assert netlist.gates == eager.gates
            assert not unread(netlist)
            assert netlist_fingerprint(netlist) == netlist_fingerprint(eager)
            assert netlist.copy().gates == eager.copy().gates
            assert netlist.primary_outputs == eager.primary_outputs
            assert netlist.topological_gates() == eager.topological_gates()


def _mutations(netlist):
    yield lambda: netlist.new_net()
    yield lambda: netlist.add_input()
    yield lambda: netlist.add_inputs(2, "x")
    yield lambda: netlist.set_outputs([CONST0])
    yield lambda: netlist.add_gate("INV_X1", (CONST0,))
    yield lambda: netlist.rebuild([])
    yield lambda: netlist.freeze("token")
    for name in FrozenNetlist._STRUCTURE:
        yield lambda name=name: setattr(netlist, name, None)


@pytest.mark.parametrize("spec", SPECS)
def test_mutations_raise_before_and_after_the_build(spec):
    component = parse_component(spec)
    netlist = sweep_for(component, LIB, effort="ultra").derive(
        component.width - 2).netlist
    for built in (False, True):
        assert unread(netlist) is not built
        for mutate in _mutations(netlist):
            with pytest.raises(NetlistError):
                mutate()
        assert unread(netlist) is not built
        gate = netlist.gates[0]
        with pytest.raises(AttributeError):
            gate.cell = "INV_X1"
        with pytest.raises(NetlistError):
            netlist.gates.append(gate)


@pytest.mark.parametrize("spec", SPECS)
def test_pickles_built_or_not(spec):
    component = parse_component(spec)
    netlist = sweep_for(component, LIB, effort="ultra").derive(
        component.width - 3).netlist
    copy = pickle.loads(pickle.dumps(netlist))
    assert unread(netlist) and unread(copy)
    assert copy._token == netlist._token and copy.name == netlist.name
    assert copy.gates == netlist.gates
    again = pickle.loads(pickle.dumps(netlist))
    assert not unread(again) and again.gates == netlist.gates
    assert netlist_fingerprint(again) == netlist_fingerprint(copy)


@pytest.mark.parametrize("spec", SPECS)
def test_timing_program_gates_in_topological_order(spec):
    component = parse_component(spec)
    netlist = sweep_for(component, LIB, effort="ultra").derive(
        component.width - 1).netlist
    program = compile_timing(netlist, LIB)
    assert unread(netlist)
    gates = program.gates
    assert [g.uid for g in gates] == program.gate_uids.tolist()
    assert all(a is b for a, b in zip(gates, netlist.topological_gates()))
    assert len(gates) == program.n_gates


@pytest.mark.parametrize("spec", SPECS)
def test_actual_stress_sta_equals_eager_build(spec):
    component = parse_component(spec)
    variant = component.with_precision(component.width - 2)
    netlist = sweep_for(component, LIB, effort="ultra").derive(
        variant.precision).netlist
    eager = eager_twin(variant, "ultra", netlist._token)
    rng = np.random.default_rng(11)
    stress = ActualStress({g.uid: (float(rng.random()), float(rng.random()))
                           for g in eager.gates}, label="random")
    corners = [None, worst_case(10.0), AgingScenario(10.0, stress)]
    assert unread(netlist)
    lazy = analyze_batch(netlist, LIB, corners)
    assert not unread(netlist)
    built = analyze_batch(eager, LIB, corners)
    assert np.array_equal(lazy.delays, built.delays)
    assert np.array_equal(lazy.arrivals, built.arrivals)
    assert np.array_equal(lazy.critical_path_ps, built.critical_path_ps)


def test_characterize_identical_across_jobs():
    scenarios = [worst_case(1.0), worst_case(10.0)]
    runs = []
    for jobs in (1, 2):
        clear_sweep_memo()
        runs.append(characterize(Multiplier(8), LIB, scenarios,
                                 precisions=[8, 7, 6, 5, 4], effort="high",
                                 jobs=jobs, cache=None).to_dict())
    assert runs[0] == runs[1]


def test_characterize_builds_no_netlist():
    scenarios = [worst_case(1.0), worst_case(10.0)]
    with obs_metrics.scoped() as registry:
        characterize(Multiplier(8), LIB, scenarios,
                     precisions=[8, 7, 6, 5, 4], effort="high", jobs=1,
                     cache=None)
        assert registry.value(obs_metrics.SYNTH_NETLISTS_MATERIALIZED) == 0
        netlist = synthesize_variant(Multiplier(8), 6, LIB,
                                     effort="high").netlist
        assert len(netlist.gates) == netlist.num_gates
        assert netlist.topological_gates() and netlist.driver_of(
            netlist.primary_outputs[-1]) is not None
        assert registry.value(obs_metrics.SYNTH_NETLISTS_MATERIALIZED) == 1


def test_cold_paper_pipeline_builds_no_gates(tmp_path, monkeypatch):
    """Guardband removal and the Fig. 8(c) baseline comparison of the
    smallest IDCT: simulating the activity of "ours" and the hardened
    baseline (two netlists each) runs on the timing programs synthesis
    seeded, so no netlist builds its gates."""
    from repro import (AgingApproximationLibrary, compare_with_baseline,
                       idct_microarchitecture, remove_guardband)
    from repro.core.cache import cache_enabled
    from repro.sim import activity, logic

    simulated = []

    def recording(netlist, library, memo=True):
        compiled = logic.compile_netlist(netlist, library, memo)
        simulated.append((netlist, library, compiled))
        return compiled

    monkeypatch.setattr(activity, "compile_netlist", recording)
    micro = idct_microarchitecture(width=4)
    with cache_enabled(str(tmp_path)), obs_metrics.scoped() as registry:
        report = remove_guardband(
            micro, LIB, worst_case(10.0),
            approx_library=AgingApproximationLibrary(), jobs=1)
        compare_with_baseline(micro, report.outcome, LIB, worst_case(10.0))
        assert registry.value(obs_metrics.SYNTH_NETLISTS_MATERIALIZED) == 0
    assert len(simulated) == 4
    for netlist, library, compiled in simulated:
        assert compiled.program is compile_timing(netlist, library)
    assert all(unread(netlist) for netlist, __, __ in simulated[:2])
