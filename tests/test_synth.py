"""Tests for logic synthesis: optimization passes and the entry point."""

import numpy as np
import pytest

from repro.netlist import CONST0, CONST1, NetlistBuilder
from repro.rtl import Adder, Multiplier
from repro.sim import compile_netlist, evaluate_packed
from repro.sta import critical_path_delay
from repro.synth import EFFORTS, optimize, synthesize, synthesize_netlist
from repro.verify import (constant_propagation, dead_gate_elimination,
                          remove_inverter_pairs)


def random_netlist(rng, n_inputs=6, n_gates=40, tie_consts=True):
    """Random DAG of 2-input gates, some inputs tied to constants."""
    builder = NetlistBuilder(name="rand")
    pool = list(builder.inputs(n_inputs, "x"))
    if tie_consts:
        pool += [CONST0, CONST1]
    kinds = ["and2", "or2", "xor2", "nand2", "nor2", "xnor2", "inv"]
    for __ in range(n_gates):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "inv":
            out = builder.inv(pool[rng.integers(len(pool))])
        else:
            a = pool[rng.integers(len(pool))]
            b = pool[rng.integers(len(pool))]
            out = getattr(builder, kind)(a, b)
        pool.append(out)
    outputs = [pool[-(i + 1)] for i in range(4)]
    return builder.outputs(outputs)


def outputs_of(net, lib, stim):
    return evaluate_packed(compile_netlist(net, lib), stim)


class TestConstantPropagation:
    def test_preserves_function(self, lib, rng):
        for trial in range(5):
            net = random_netlist(np.random.default_rng(trial))
            stim = rng.integers(0, 2, (64, 6)).astype(np.uint8)
            before = outputs_of(net, lib, stim)
            optimized = constant_propagation(net.copy(), lib)
            optimized.validate()
            assert np.array_equal(outputs_of(optimized, lib, stim), before)

    def test_folds_constant_cone(self, lib):
        builder = NetlistBuilder(name="c")
        a = builder.inputs(1, "a")[0]
        dead = builder.and2(CONST0, a)       # always 0
        out = builder.or2(dead, a)           # == a
        net = builder.outputs([out])
        optimized = optimize(net, lib)
        assert optimized.num_gates == 0
        assert optimized.primary_outputs == [a]

    def test_xor_with_const1_becomes_inverter(self, lib):
        builder = NetlistBuilder(name="x1")
        a = builder.inputs(1, "a")[0]
        out = builder.xor2(a, CONST1)
        net = builder.outputs([out])
        optimized = constant_propagation(net, lib)
        assert optimized.num_gates == 1
        assert optimized.gates[0].kind == "INV"

    def test_same_input_simplifications(self, lib):
        builder = NetlistBuilder(name="same")
        a = builder.inputs(1, "a")[0]
        net = builder.outputs([builder.xor2(a, a), builder.and2(a, a)])
        optimized = constant_propagation(net, lib)
        assert optimized.primary_outputs == [CONST0, a]

    def test_mux_select_folding(self, lib):
        builder = NetlistBuilder(name="mux")
        a, b = builder.inputs(2, "x")
        out0 = builder.mux2(a, b, CONST0)
        out1 = builder.mux2(a, b, CONST1)
        net = builder.outputs([out0, out1])
        optimized = constant_propagation(net, lib)
        assert optimized.primary_outputs == [a, b]

    def test_aoi_oai_folding(self, lib, rng):
        builder = NetlistBuilder(name="aoi")
        a, b = builder.inputs(2, "x")
        outs = [builder.aoi21(a, b, CONST0),   # -> NAND2(a, b)
                builder.aoi21(a, b, CONST1),   # -> 0
                builder.oai21(a, b, CONST1),   # -> NOR2(a, b)
                builder.oai21(a, b, CONST0)]   # -> 1
        net = builder.outputs(outs)
        stim = rng.integers(0, 2, (16, 2)).astype(np.uint8)
        before = outputs_of(net, lib, stim)
        optimized = constant_propagation(net, lib)
        assert np.array_equal(outputs_of(optimized, lib, stim), before)
        kinds = {g.kind for g in optimized.gates}
        assert kinds <= {"NAND2", "NOR2"}


class TestCleanupPasses:
    def test_inverter_pairs_removed(self, lib):
        builder = NetlistBuilder(name="ii")
        a = builder.inputs(1, "a")[0]
        out = builder.inv(builder.inv(a))
        net = builder.outputs([out])
        cleaned = remove_inverter_pairs(net, lib)
        dead_gate_elimination(cleaned, lib)
        assert cleaned.num_gates == 0
        assert cleaned.primary_outputs == [a]

    def test_buffers_removed(self, lib):
        builder = NetlistBuilder(name="buf")
        a = builder.inputs(1, "a")[0]
        out = builder.buf(builder.buf(a))
        net = builder.outputs([out])
        cleaned = remove_inverter_pairs(net, lib)
        assert cleaned.primary_outputs == [a]

    def test_dead_gates_eliminated(self, lib):
        builder = NetlistBuilder(name="dead")
        a, b = builder.inputs(2, "x")
        keep = builder.and2(a, b)
        builder.xor2(a, b)  # drives nothing
        net = builder.outputs([keep])
        cleaned = dead_gate_elimination(net, lib)
        assert cleaned.num_gates == 1

    def test_passes_preserve_function(self, lib, rng):
        for trial in range(5):
            net = random_netlist(np.random.default_rng(100 + trial))
            stim = rng.integers(0, 2, (64, 6)).astype(np.uint8)
            before = outputs_of(net, lib, stim)
            cleaned = optimize(net.copy(), lib)
            cleaned.validate()
            assert np.array_equal(outputs_of(cleaned, lib, stim), before)


class TestSynthesize:
    def test_all_efforts_preserve_function(self, lib, rng):
        component = Adder(6)
        a, b = component.random_operands(200, rng=rng,
                                         distribution="uniform")
        golden = component.exact(a, b)
        from helpers import run_netlist
        for effort in EFFORTS:
            net = synthesize_netlist(component, lib, effort=effort)
            assert np.array_equal(
                run_netlist(component, lib, (a, b), netlist=net), golden)

    def test_result_metadata(self, lib):
        result = synthesize(Adder(8), lib, effort="high")
        assert result.final_gates <= result.source_gates
        assert result.delay_ps > 0
        assert result.area_um2 > 0
        assert result.netlist.validate()

    def test_unknown_effort_rejected(self, lib):
        with pytest.raises(ValueError, match="effort"):
            synthesize(Adder(4), lib, effort="mega")

    def test_truncation_shrinks_after_synthesis(self, lib):
        sizes = []
        for precision in (8, 6, 4, 2):
            net = synthesize_netlist(Adder(8, precision=precision), lib,
                                     effort="high")
            sizes.append(net.num_gates)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] < sizes[0]

    def test_ultra_is_at_least_as_fast_as_high(self, lib):
        high = synthesize(Multiplier(8), lib, effort="high")
        ultra = synthesize(Multiplier(8), lib, effort="ultra")
        assert ultra.delay_ps <= high.delay_ps

    def test_netlist_input_not_mutated(self, lib):
        source = Adder(8).build()
        gates_before = source.num_gates
        synthesize(source, lib, effort="high")
        assert source.num_gates == gates_before

    def test_interface_preserved(self, lib):
        component = Adder(8, precision=4)
        net = synthesize_netlist(component, lib, effort="high")
        assert len(net.primary_inputs) == 16
        assert len(net.primary_outputs) == 8
