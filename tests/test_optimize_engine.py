"""The array optimizer against the dict-pass oracle, gate for gate.

:func:`repro.synth.optimize.optimize` runs constant propagation,
inverter cleanup, structural hashing and dead-gate elimination as
levelized NumPy sweeps over a lowered netlist; it must reproduce
:func:`repro.verify.optimize.reference_optimize` exactly (uids, cells,
input tuples, gate order, primary outputs) on any netlist: every cell
kind and drive, constant and duplicate inputs, gate lists out of
topological order and any round count. The constant-propagation table
must decode to :func:`repro.synth.optimize._constprop_step` on every
pin pattern, and synthesized netlists are read-only.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aging import worst_case
from repro.cells.cell import CELL_KINDS
from repro.core.cache import compile_token, netlist_fingerprint
from repro.core.specs import parse_component
from repro.netlist import CONST0, CONST1, Netlist
from repro.netlist.gate import split_cell
from repro.netlist.netlist import NetlistError
from repro.obs import metrics as obs_metrics
from repro.sta.engine import compile_timing
from repro.synth import (aging_aware_synthesize, clear_sweep_memo, optimize,
                         sweep_for, synthesize)
from repro.synth.optimize import (_ENTRIES, _constprop_step, _entry,
                                  cell_table)
from repro.verify import (constant_propagation, dead_gate_elimination,
                          reference_optimize, remove_inverter_pairs,
                          structural_hashing)

KINDS = sorted(CELL_KINDS)


def gate_state(netlist):
    return ([(g.uid, g.cell, tuple(g.inputs), g.output)
             for g in netlist.gates], list(netlist.primary_outputs))


def random_netlist(rng, n_inputs, n_gates, n_outputs, shuffle):
    """Random DAG over all cell kinds and drives; operands favour recent
    nets and constants, so duplicate pins, constant cones, BUF/INV
    chains and structural duplicates all occur."""
    netlist = Netlist("engine")
    pool = netlist.add_inputs(n_inputs, "x") + [CONST0, CONST1]
    for __ in range(n_gates):
        kind = KINDS[rng.integers(len(KINDS))]
        pins = []
        for __ in range(CELL_KINDS[kind][0]):
            if rng.random() < 0.3:
                pick = len(pool) - 1 - int(rng.integers(min(3, len(pool))))
            else:
                pick = int(rng.integers(len(pool)))
            pins.append(pool[pick])
        drive = (1, 2, 4)[rng.integers(3)]
        pool.append(netlist.add_gate("%s_X%d" % (kind, drive), pins))
    netlist.set_outputs([pool[int(rng.integers(len(pool)))]
                         for __ in range(n_outputs)])
    if shuffle:
        gates = list(netlist.gates)
        rng.shuffle(gates)
        netlist.gates = gates
        netlist._topo_cache = None
    return netlist


def assert_matches_oracle(raw, lib, rounds):
    mine = optimize(raw.copy(), lib, max_rounds=rounds)
    ref = reference_optimize(raw.copy(), lib, max_rounds=rounds)
    assert gate_state(mine) == gate_state(ref)


@given(seed=st.integers(0, 2 ** 32 - 1),
       n_inputs=st.integers(1, 5), n_gates=st.integers(1, 60),
       n_outputs=st.integers(1, 5), shuffle=st.booleans(),
       rounds=st.integers(1, 8))
def test_engine_equals_oracle_property(lib, seed, n_inputs, n_gates,
                                       n_outputs, shuffle, rounds):
    rng = np.random.default_rng(seed)
    raw = random_netlist(rng, n_inputs, n_gates, n_outputs, shuffle)
    assert_matches_oracle(raw, lib, rounds)


def test_engine_equals_oracle_seeded(lib):
    rng = np.random.default_rng(2017)
    for index in range(300):
        raw = random_netlist(rng, int(rng.integers(1, 6)),
                             int(rng.integers(1, 80)),
                             int(rng.integers(1, 6)), index % 2 == 1)
        assert_matches_oracle(raw, lib, 1 + index % 8)


@pytest.mark.parametrize("spec", ["adder8", "rca8", "ksa8", "csel8",
                                  "cskip8", "mult6", "booth6", "mac4"])
@pytest.mark.parametrize("rounds", [1, 4, 8])
def test_components_every_precision(lib, spec, rounds):
    component = parse_component(spec)
    for precision in range(component.width, 0, -1):
        assert_matches_oracle(component.with_precision(precision).build(),
                              lib, rounds)


def test_table_decodes_to_rewrite_rules(lib):
    """Every pin pattern of every library cell, enumerated here from
    scratch (constants and live nets, equal or not), decodes from the
    table to exactly what ``_constprop_step`` says; no other entry is
    reachable."""
    table = cell_table(lib)
    for cell in sorted(c.name for c in lib):
        table.id_of(cell)
    op, tgt, new_cell, src = table.arrays()[:4]
    live = (10, 11, 12)
    for cell in sorted(c.name for c in lib):
        kind, drive = split_cell(cell)
        arity = CELL_KINDS[kind][0]
        cid = table.ids[cell]
        seen = set()
        for pins in product((CONST0, CONST1) + live, repeat=arity):
            # The engine's view: unused pins carry the never-driven pad.
            padded = pins + (99,) * (3 - arity)
            idx = cid * _ENTRIES + _entry(padded)
            seen.add(idx)
            sources = padded[:3] + (CONST0, CONST1, 99)
            want = _constprop_step(kind, drive, pins, lib)
            if want[0] == "s":
                assert op[idx] == 1, (cell, pins)
                assert sources[tgt[idx]] == want[1], (cell, pins)
            else:
                assert op[idx] == 0, (cell, pins)
                assert table.names[new_cell[idx]] == want[1], (cell, pins)
                got = tuple(sources[s] for s in src[idx])
                assert got == want[2] + (99,) * (3 - len(want[2])), \
                    (cell, pins)
        block = op[cid * _ENTRIES:(cid + 1) * _ENTRIES]
        assert int((block >= 0).sum()) == len(seen), cell


def test_metrics_count_pass_removals(lib):
    """``synth.constprop.rewrites`` counts gates constant propagation
    removed and ``synth.dead_gates`` gates dead-gate elimination
    removed, summed over rounds, as the dict passes would."""
    raw = parse_component("mult6").with_precision(4).build()
    ref = raw.copy()
    rewrites = dead = 0
    for __ in range(8):
        before = ref.num_gates
        constant_propagation(ref, lib)
        rewrites += before - ref.num_gates
        remove_inverter_pairs(ref, lib)
        structural_hashing(ref, lib)
        after_sh = ref.num_gates
        dead_gate_elimination(ref, lib)
        dead += after_sh - ref.num_gates
        if ref.num_gates == before:
            break
    with obs_metrics.scoped() as registry:
        optimize(raw.copy(), lib)
        counters = registry.snapshot()["counters"]
    assert rewrites > 0 and dead > 0
    assert counters[obs_metrics.SYNTH_CONSTPROP_REWRITES] == rewrites
    assert counters[obs_metrics.SYNTH_DEAD_GATES] == dead


def test_cone_gates_counts_state_changes(lib):
    """``synth.sweep.cone_gates`` observes, per derive, the gates whose
    optimized state differs from the base's (unsized at "high")."""
    clear_sweep_memo()
    component = parse_component("mult6")
    sweep = sweep_for(component, lib, effort="high")
    base = {g.uid: (g.cell, g.inputs)
            for g in sweep.base_result.netlist.gates}
    with obs_metrics.scoped() as registry:
        derived = sweep.derive(4)
        cone = registry.snapshot()["histograms"][
            obs_metrics.SYNTH_SWEEP_CONE_GATES]
    mine = {g.uid: (g.cell, g.inputs) for g in derived.netlist.gates}
    differ = len(set(base) ^ set(mine)) + sum(
        base[u] != mine[u] for u in set(base) & set(mine))
    assert cone["count"] == 1 and cone["sum"] == differ > 0
    clear_sweep_memo()


def test_lowering_rejects_invalid_netlists(lib):
    netlist = Netlist("bad")
    a = netlist.add_input("a")
    netlist.add_gate("INV_X1", (a,))
    netlist.set_outputs([12345])
    with pytest.raises(NetlistError, match="primary output 12345 undriven"):
        optimize(netlist, lib)


class TestReadOnlyNetlists:
    @pytest.fixture(scope="class")
    def results(self, lib):
        clear_sweep_memo()
        component = parse_component("mult6")
        sweep = sweep_for(component, lib, effort="ultra")
        got = [synthesize(component, lib, effort="high"),
               sweep.base_result, sweep.derive(4),
               aging_aware_synthesize(component, lib, worst_case(10.0))]
        yield got
        clear_sweep_memo()

    def test_mutations_raise(self, results):
        for result in results:
            netlist = result.netlist
            gate = netlist.gates[0]
            with pytest.raises(AttributeError):
                gate.cell = "INV_X1"
            with pytest.raises(AttributeError):
                gate.inputs = (CONST0,)
            for mutate in (lambda: netlist.add_gate("INV_X1", (CONST0,)),
                           lambda: netlist.rebuild([]),
                           lambda: netlist.set_outputs([]),
                           lambda: netlist.primary_outputs.append(CONST0),
                           lambda: netlist.gates.pop()):
                with pytest.raises(NetlistError):
                    mutate()
            with pytest.raises(NetlistError):
                netlist.name = "renamed"

    def test_copy_is_editable(self, results, lib):
        dup = results[0].netlist.copy()
        dup.gates[0].cell = lib.next_drive_up(dup.gates[0].cell)
        assert compile_timing(dup, lib) is not \
            compile_timing(results[0].netlist, lib)

    def test_token_is_stored_and_content_derived(self, results, lib):
        for result in results:
            netlist = result.netlist
            assert compile_token(netlist, lib)[1] == netlist._token
        # Tokens agree exactly when the contents do.
        for one, other in product(results, repeat=2):
            assert ((one.netlist._token == other.netlist._token)
                    == (netlist_fingerprint(one.netlist)
                        == netlist_fingerprint(other.netlist)))
        assert len({r.netlist._token for r in results}) == len(results)
        again = synthesize(parse_component("mult6"), lib, effort="high")
        assert again.netlist._token == results[0].netlist._token

    def test_cell_totals_equal_netlist_sums(self, results, lib):
        for result in results:
            netlist = result.netlist
            totals = compile_timing(netlist, lib).cell_totals()
            assert totals == (netlist.area(lib), netlist.leakage(lib))
            if hasattr(result, "area_um2"):
                assert result.area_um2 == netlist.area(lib)
                assert result.leakage_nw == netlist.leakage(lib)
