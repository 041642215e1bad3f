"""Unit tests for the structural netlist builder.

Every primitive is verified against its truth table by running the
vectorized functional simulator over all input combinations.
"""

import itertools

import numpy as np
import pytest

from repro.netlist import CONST0, CONST1, NetlistBuilder
from repro.sim import compile_netlist, evaluate_packed


def truth_table(lib, build, n_inputs):
    """Evaluate a 1-output circuit on all input combinations."""
    builder = NetlistBuilder(name="tt")
    pis = builder.inputs(n_inputs, "x")
    out = build(builder, pis)
    net = builder.outputs([out])
    rows = np.array(list(itertools.product((0, 1), repeat=n_inputs)),
                    dtype=np.uint8)
    result = evaluate_packed(compile_netlist(net, lib), rows)
    return {tuple(int(v) for v in row): int(result[i, 0])
            for i, row in enumerate(rows)}


@pytest.mark.parametrize("method,n,func", [
    ("inv", 1, lambda x: 1 - x[0]),
    ("buf", 1, lambda x: x[0]),
    ("nand2", 2, lambda x: 1 - (x[0] & x[1])),
    ("nor2", 2, lambda x: 1 - (x[0] | x[1])),
    ("and2", 2, lambda x: x[0] & x[1]),
    ("or2", 2, lambda x: x[0] | x[1]),
    ("xor2", 2, lambda x: x[0] ^ x[1]),
    ("xnor2", 2, lambda x: 1 - (x[0] ^ x[1])),
    ("mux2", 3, lambda x: x[1] if x[2] else x[0]),
    ("aoi21", 3, lambda x: 1 - ((x[0] & x[1]) | x[2])),
    ("oai21", 3, lambda x: 1 - ((x[0] | x[1]) & x[2])),
])
def test_primitive_truth_tables(lib, method, n, func):
    table = truth_table(lib, lambda b, pis: getattr(b, method)(*pis), n)
    for combo, got in table.items():
        assert got == func(combo), "%s%r" % (method, combo)


class TestTrees:
    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
    def test_and_tree(self, lib, width):
        table = truth_table(lib, lambda b, pis: b.and_tree(pis), width)
        for combo, got in table.items():
            assert got == int(all(combo))

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
    def test_or_tree(self, lib, width):
        table = truth_table(lib, lambda b, pis: b.or_tree(pis), width)
        for combo, got in table.items():
            assert got == int(any(combo))

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 8])
    def test_xor_tree(self, lib, width):
        table = truth_table(lib, lambda b, pis: b.xor_tree(pis), width)
        for combo, got in table.items():
            assert got == sum(combo) % 2

    def test_empty_trees_return_identity(self):
        builder = NetlistBuilder()
        assert builder.and_tree([]) == CONST1
        assert builder.or_tree([]) == CONST0
        assert builder.xor_tree([]) == CONST0

    def test_single_net_tree_is_passthrough(self):
        builder = NetlistBuilder()
        a = builder.inputs(1, "a")[0]
        assert builder.and_tree([a]) == a
        assert builder.netlist.num_gates == 0


class TestArithmeticBricks:
    def test_half_adder_truth_table(self, lib):
        builder = NetlistBuilder(name="ha")
        a, b = builder.inputs(2, "x")
        s, c = builder.half_adder(a, b)
        net = builder.outputs([s, c])
        rows = np.array(list(itertools.product((0, 1), repeat=2)),
                        dtype=np.uint8)
        out = evaluate_packed(compile_netlist(net, lib), rows)
        for i, (x, y) in enumerate(rows):
            assert int(out[i, 0]) == (x ^ y)
            assert int(out[i, 1]) == (x & y)

    def test_full_adder_truth_table(self, lib):
        builder = NetlistBuilder(name="fa")
        a, b, cin = builder.inputs(3, "x")
        s, c = builder.full_adder(a, b, cin)
        net = builder.outputs([s, c])
        rows = np.array(list(itertools.product((0, 1), repeat=3)),
                        dtype=np.uint8)
        out = evaluate_packed(compile_netlist(net, lib), rows)
        for i, (x, y, z) in enumerate(rows):
            total = int(x) + int(y) + int(z)
            assert int(out[i, 0]) == total % 2
            assert int(out[i, 1]) == total // 2


class TestDrive:
    def test_builder_drive_selects_cell_variant(self):
        builder = NetlistBuilder(name="d", drive=2)
        a = builder.inputs(1, "a")[0]
        builder.inv(a)
        assert builder.netlist.gates[0].cell == "INV_X2"
