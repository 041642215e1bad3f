"""Tests for the structural-hashing (CSE) synthesis pass."""

import numpy as np
import pytest

from repro.netlist import NetlistBuilder
from repro.rtl import Multiplier
from repro.sim import compile_netlist, evaluate
from repro.verify import dead_gate_elimination, structural_hashing


def test_duplicate_gates_merged(lib):
    builder = NetlistBuilder(name="dup")
    a, b = builder.inputs(2, "x")
    one = builder.and2(a, b)
    two = builder.and2(a, b)
    out = builder.or2(one, two)   # == one
    net = builder.outputs([out])
    structural_hashing(net, lib)
    dead_gate_elimination(net, lib)
    kinds = sorted(g.kind for g in net.gates)
    assert kinds == ["AND2", "OR2"] or kinds == ["AND2"]


def test_commutative_inputs_canonicalized(lib):
    builder = NetlistBuilder(name="comm")
    a, b = builder.inputs(2, "x")
    one = builder.xor2(a, b)
    two = builder.xor2(b, a)
    net = builder.outputs([one, two])
    structural_hashing(net, lib)
    assert net.num_gates == 1
    assert net.primary_outputs[0] == net.primary_outputs[1]


def test_noncommutative_order_respected(lib):
    builder = NetlistBuilder(name="mux")
    a, b, s = builder.inputs(3, "x")
    one = builder.mux2(a, b, s)
    two = builder.mux2(b, a, s)   # different function!
    net = builder.outputs([one, two])
    structural_hashing(net, lib)
    assert net.num_gates == 2


def test_function_preserved_on_real_component(lib, rng):
    component = Multiplier(5)
    net = component.build().copy()
    stim = rng.integers(0, 2, (128, 10)).astype(np.uint8)
    before = evaluate(compile_netlist(net, lib), stim)
    structural_hashing(net, lib)
    net.validate()
    after = evaluate(compile_netlist(net, lib), stim)
    assert np.array_equal(before, after)


def test_idempotent(lib):
    component = Multiplier(5)
    net = component.build().copy()
    structural_hashing(net, lib)
    count = net.num_gates
    structural_hashing(net, lib)
    assert net.num_gates == count


def test_recovers_area_on_generators(lib):
    # Arithmetic generators share propagate/generate terms.
    from repro.rtl import CarryLookaheadAdder
    net = CarryLookaheadAdder(16).build().copy()
    before = net.num_gates
    structural_hashing(net, lib)
    dead_gate_elimination(net, lib)
    assert net.num_gates < before


def test_chains_merge_transitively(lib):
    builder = NetlistBuilder(name="chain")
    a, b = builder.inputs(2, "x")
    x1 = builder.inv(builder.and2(a, b))
    x2 = builder.inv(builder.and2(a, b))
    net = builder.outputs([x1, x2])
    structural_hashing(net, lib)
    assert net.num_gates == 2  # one AND2, one INV
    assert net.primary_outputs[0] == net.primary_outputs[1]
