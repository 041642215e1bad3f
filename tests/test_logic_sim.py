"""Tests for the vectorized functional simulator and bit codecs."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.netlist import NetlistBuilder
from repro.rtl import Adder
from repro.sim import (all_net_values, bits_to_int, compile_netlist,
                       evaluate, int_to_bits)


class TestBitCodecs:
    def test_int_to_bits_lsb_first(self):
        bits = int_to_bits(np.array([5]), 4)
        assert bits.tolist() == [[1, 0, 1, 0]]

    def test_negative_twos_complement(self):
        bits = int_to_bits(np.array([-1]), 4)
        assert bits.tolist() == [[1, 1, 1, 1]]
        bits = int_to_bits(np.array([-8]), 4)
        assert bits.tolist() == [[0, 0, 0, 1]]

    def test_bits_to_int_signed(self):
        assert bits_to_int(np.array([[1, 1, 1, 1]]))[0] == -1
        assert bits_to_int(np.array([[0, 0, 0, 1]]))[0] == -8

    def test_bits_to_int_unsigned(self):
        assert bits_to_int(np.array([[1, 1, 1, 1]]), signed=False)[0] == 15

    @given(st.lists(st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1),
                    min_size=1, max_size=50))
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(bits_to_int(int_to_bits(arr, 32)), arr)

    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_unsigned_roundtrip(self, value):
        arr = np.array([value], dtype=np.int64)
        back = bits_to_int(int_to_bits(arr, 16), signed=False)
        assert back[0] == value

    def test_wraparound_modulo(self):
        # Values outside the width wrap modulo 2**width.
        arr = np.array([17], dtype=np.int64)
        back = bits_to_int(int_to_bits(arr, 4))
        assert back[0] == 1


class TestCompilation:
    def test_compiled_op_count(self, lib, adder8):
        compiled = compile_netlist(adder8, lib)
        assert len(compiled.ops) == adder8.num_gates
        assert len(compiled.pi_slots) == 16
        assert len(compiled.po_slots) == 8

    def test_last_use_never_frees_outputs(self, lib, adder8):
        compiled = compile_netlist(adder8, lib)
        protected = set(compiled.po_slots) | set(compiled.pi_slots) | {0, 1}
        for dead in compiled.last_use:
            assert not (set(dead) & protected)

    def test_shape_validation(self, lib, adder8):
        compiled = compile_netlist(adder8, lib)
        with pytest.raises(ValueError, match="shape"):
            evaluate(compiled, np.zeros((4, 3), dtype=np.uint8))


class TestEvaluation:
    def test_adder_matches_golden(self, lib, adder8, rng):
        compiled = compile_netlist(adder8, lib)
        component = Adder(8)
        a, b = component.random_operands(500, rng=rng)
        bits = np.concatenate([int_to_bits(a, 8), int_to_bits(b, 8)], axis=1)
        out = bits_to_int(evaluate(compiled, bits))
        assert np.array_equal(out, component.exact(a, b))

    def test_release_flag_equivalence(self, lib, adder8, rng):
        compiled = compile_netlist(adder8, lib)
        bits = rng.integers(0, 2, (64, 16)).astype(np.uint8)
        assert np.array_equal(evaluate(compiled, bits, release=True),
                              evaluate(compiled, bits, release=False))

    def test_constants_available(self, lib):
        builder = NetlistBuilder(name="c")
        a = builder.inputs(1, "a")[0]
        out = builder.or2(a, builder.const1)
        net = builder.outputs([out])
        compiled = compile_netlist(net, lib)
        result = evaluate(compiled, np.array([[0], [1]], dtype=np.uint8))
        assert result[:, 0].tolist() == [1, 1]

    def test_all_net_values_includes_internal_nets(self, lib):
        builder = NetlistBuilder(name="i")
        a, b = builder.inputs(2, "x")
        mid = builder.xor2(a, b)
        out = builder.inv(mid)
        net = builder.outputs([out])
        compiled = compile_netlist(net, lib)
        values = all_net_values(compiled,
                                np.array([[1, 0]], dtype=np.uint8))
        assert values[0, compiled.slot_of[mid]] == 1
        assert values[0, compiled.slot_of[out]] == 0

    def test_multi_output_ordering(self, lib):
        builder = NetlistBuilder(name="mo")
        a = builder.inputs(1, "a")[0]
        inv = builder.inv(a)
        net = builder.outputs([a, inv])
        compiled = compile_netlist(net, lib)
        out = evaluate(compiled, np.array([[1]], dtype=np.uint8))
        assert out[0].tolist() == [1, 0]


class TestCompileMemo:
    def test_same_netlist_and_library_share_program(self, lib, adder8):
        first = compile_netlist(adder8, lib)
        second = compile_netlist(adder8, lib)
        assert first is second

    def test_activity_and_timing_share_program(self, lib, adder8):
        from repro.sim.activity import simulate_activity
        from repro.sim.timing import TimedSimulator
        bits = np.zeros((4, len(adder8.primary_inputs)), dtype=np.uint8)
        simulate_activity(adder8, lib, bits)
        sim = TimedSimulator(adder8, lib, t_clock_ps=1000.0)
        assert sim.compiled is compile_netlist(adder8, lib)

    def test_memo_bypass(self, lib, adder8):
        memoized = compile_netlist(adder8, lib)
        fresh = compile_netlist(adder8, lib, memo=False)
        assert fresh is not memoized
        assert fresh.ops == memoized.ops
        assert fresh.pi_slots == memoized.pi_slots

    def test_mutation_invalidates(self, lib):
        netlist = Adder(4).build()
        first = compile_netlist(netlist, lib)
        netlist.add_gate("INV_X1", [netlist.primary_outputs[0]])
        second = compile_netlist(netlist, lib)
        assert second is not first
        assert len(second.ops) == len(first.ops) + 1

    def test_in_place_gate_mutation_recompiles(self, lib):
        # Regression: the memo used to key on gate *count*, so editing a
        # gate's cell in place (bypassing rebuild/add_gate) kept serving
        # the stale compiled program.
        builder = NetlistBuilder(name="memo_mut")
        a, b = builder.inputs(2, "i")
        netlist = builder.outputs([builder.and2(a, b)])
        bits = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=np.uint8)
        before = evaluate(compile_netlist(netlist, lib), bits)
        assert before[:, 0].tolist() == [0, 0, 0, 1]
        gate = netlist.gates[0]
        gate.cell = gate.cell.replace("AND2", "OR2")
        after = evaluate(compile_netlist(netlist, lib), bits)
        assert after[:, 0].tolist() == [0, 1, 1, 1]

    def test_rewired_input_recompiles(self, lib):
        builder = NetlistBuilder(name="memo_pin")
        a, b = builder.inputs(2, "i")
        netlist = builder.outputs([builder.inv(a)])
        bits = np.array([[1, 0]], dtype=np.uint8)
        assert evaluate(compile_netlist(netlist, lib), bits)[0, 0] == 0
        netlist.gates[0].inputs = (b,)
        assert evaluate(compile_netlist(netlist, lib), bits)[0, 0] == 1

    def test_different_library_compiles_separately(self, adder8):
        from repro.cells import nangate45
        lib_a = nangate45()
        lib_b = nangate45(drives=(1, 2))
        assert compile_netlist(adder8, lib_a) is not \
            compile_netlist(adder8, lib_b)

    def test_memo_evicts_single_lru_entry(self):
        from repro.sim import logic
        netlist = Adder(4).build()
        # The memo keys libraries by content: each one must differ.
        libs = [_renamed_library("lru%d" % i)
                for i in range(logic._COMPILE_MEMO_LIMIT + 1)]
        programs = [compile_netlist(netlist, lib) for lib in libs]
        cache = netlist._compiled_memo
        # Overflow evicted exactly one entry (the oldest), not the lot.
        assert len(cache) == logic._COMPILE_MEMO_LIMIT
        assert compile_netlist(netlist, libs[1]) is programs[1]
        assert compile_netlist(netlist, libs[0]) is not programs[0]

    def test_collected_library_never_aliases_new_one(self):
        import gc
        netlist = Adder(4).build()
        lib_a = _renamed_library("collected")
        first = compile_netlist(netlist, lib_a)
        del lib_a
        gc.collect()
        # New library objects frequently recycle the dead library's
        # id(); an id-keyed memo would resurrect `first` for them.
        for i in range(10):
            lib_b = _renamed_library("recycled%d" % i)
            assert compile_netlist(netlist, lib_b) is not first
            del lib_b
            gc.collect()

    def test_equal_library_copy_shares_program(self, lib, adder8):
        import pickle
        first = compile_netlist(adder8, lib)
        assert compile_netlist(adder8, pickle.loads(pickle.dumps(lib))) \
            is first
        assert compile_netlist(adder8, _renamed_library("copy")) \
            is not first

    def test_library_stand_in_keyed_by_identity(self, adder8):
        from repro.cells import nangate45
        stand_in = {cell.name: cell for cell in nangate45()}
        first = compile_netlist(adder8, stand_in)
        assert compile_netlist(adder8, stand_in) is first
        assert compile_netlist(adder8, dict(stand_in)) is not first


def _renamed_library(name):
    """The one-drive bundled library under its own name (so its own
    content fingerprint)."""
    from repro.cells import CellLibrary, nangate45
    return CellLibrary(name, list(nangate45(drives=(1,))))
