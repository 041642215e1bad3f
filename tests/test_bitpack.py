"""Tests for the bit-packed 64-way simulation engine.

The packed engine must be *bit-identical* to the ``uint8`` reference
engine (activity statistics: the ``repro.verify.simulate_activity_bytes``
oracle) — outputs, signal probabilities, and toggle rates — on the full
component library, on random netlists under random stimuli, and across
awkward batch sizes (non-multiples of 64, single vectors, empty).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cells import default_library
from repro.cells.cell import CELL_KINDS
from repro.netlist import CONST0, CONST1, NetlistBuilder
from repro.sim import (bits_to_int, compile_netlist, evaluate,
                       evaluate_packed, evaluate_words, int_to_bits,
                       pack_bits, pack_ints, popcount, simulate_activity,
                       unpack_bits, unpack_ints)
from repro.sim import bitpack
from repro.verify import load_corpus, simulate_activity_bytes

LIB = default_library()

#: Batch sizes straddling word boundaries, plus the degenerate ones.
EDGE_BATCHES = (0, 1, 2, 63, 64, 65, 127, 128, 130)


class TestPackUnpack:
    @pytest.mark.parametrize("batch", EDGE_BATCHES)
    def test_roundtrip(self, batch, rng):
        bits = rng.integers(0, 2, (batch, 5)).astype(np.uint8)
        packed = pack_bits(bits)
        assert packed.shape == (5, bitpack.word_count(batch))
        assert packed.dtype == np.uint64
        assert np.array_equal(unpack_bits(packed, batch), bits)

    def test_layout_lsb_first(self):
        # Vector i lands in word i // 64 at bit i % 64.
        bits = np.zeros((65, 1), dtype=np.uint8)
        bits[1, 0] = 1
        bits[64, 0] = 1
        packed = pack_bits(bits)
        assert packed[0].tolist() == [2, 1]

    def test_pad_bits_are_zero(self):
        packed = pack_bits(np.ones((3, 2), dtype=np.uint8))
        assert packed[0, 0] == 7

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros(8, dtype=np.uint8))
        with pytest.raises(ValueError):
            unpack_bits(np.zeros(2, dtype=np.uint64), 8)

    def test_unpack_capacity_check(self):
        with pytest.raises(ValueError):
            unpack_bits(np.zeros((1, 1), dtype=np.uint64), 65)


class TestIntCodecs:
    """``pack_ints``/``unpack_ints`` equal the bit-matrix codecs."""

    @given(data=st.data(), width=st.integers(1, 64),
           batch=st.integers(0, 200), signed=st.booleans())
    def test_pack_ints_matches_bit_matrix(self, data, width, batch, signed):
        # Any int64, negative included: both codecs take values modulo
        # 2 ** width.
        values = np.asarray(data.draw(st.lists(
            st.integers(-2**63, 2**63 - 1), min_size=batch,
            max_size=batch)), dtype=np.int64)
        packed = pack_ints(values, width)
        assert packed.dtype == np.uint64
        assert np.array_equal(packed, pack_bits(int_to_bits(values, width)))
        assert np.array_equal(
            unpack_ints(packed, batch, signed=signed),
            bits_to_int(int_to_bits(values, width), signed=signed))

    @given(seed=st.integers(0, 2**31 - 1), width=st.integers(1, 64),
           batch=st.integers(0, 200), signed=st.booleans())
    def test_unpack_ints_ignores_tail_bits(self, seed, width, batch, signed):
        # Random words, tail bits (positions >= batch) set at random.
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**64, (width, bitpack.word_count(batch)),
                             dtype=np.uint64)
        want = bits_to_int(unpack_bits(words, batch), signed=signed)
        assert np.array_equal(unpack_ints(words, batch, signed=signed), want)

    @given(seed=st.integers(0, 2**31 - 1), signed=st.booleans())
    def test_width_64(self, seed, signed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-2**63, 2**63, 300, dtype=np.int64)
        values[:2] = (-2**63, 2**63 - 1)
        packed = pack_ints(values, 64)
        assert np.array_equal(packed, pack_bits(int_to_bits(values, 64)))
        assert np.array_equal(unpack_ints(packed, 300, signed=signed),
                              values)

    @pytest.mark.parametrize("full,tail", [(2, 0), (1, 1), (1, 63),
                                           (2, 37), (2, 64 * 5 + 9)])
    @pytest.mark.parametrize("width", [1, 8, 13, 32, 64])
    def test_batches_spanning_tiles(self, full, tail, width, rng):
        # Whole tiles plus a partial one, ending mid-word when *tail* is
        # not a multiple of 64.
        batch = full * bitpack.TILE_BYTES * 8 + tail
        values = rng.integers(-2**63, 2**63, batch, dtype=np.int64)
        bits = int_to_bits(values, width)
        packed = pack_ints(values, width)
        assert np.array_equal(packed, pack_bits(bits))
        # Random tail bits past the batch must not leak into the decode.
        words = packed.copy()
        words[:, -1] |= ~bitpack.tail_mask(batch) & rng.integers(
            0, 2**64, width, dtype=np.uint64)
        for signed in (True, False):
            assert np.array_equal(unpack_ints(words, batch, signed=signed),
                                  bits_to_int(bits, signed=signed))

    def test_signed_decode_of_extremes(self):
        values = np.array([-8, -1, 0, 7, 8, 15], dtype=np.int64)
        packed = pack_ints(values, 4)
        assert unpack_ints(packed, 6).tolist() == [-8, -1, 0, 7, -8, -1]
        assert unpack_ints(packed, 6, signed=False).tolist() \
            == [8, 15, 0, 7, 8, 15]

    def test_unpack_capacity_check(self):
        with pytest.raises(ValueError):
            unpack_ints(np.zeros((3, 1), dtype=np.uint64), 65)


class TestPopcount:
    def test_matches_python_bit_count(self, rng):
        words = rng.integers(0, 1 << 63, 100, dtype=np.uint64)
        got = np.asarray(popcount(words), dtype=np.int64)
        want = [bin(int(w)).count("1") for w in words]
        assert got.tolist() == want

    def test_swar_fallback_matches(self, rng):
        words = rng.integers(0, 1 << 63, 100, dtype=np.uint64)
        swar = np.asarray(bitpack._popcount_swar(words), dtype=np.int64)
        fast = np.asarray(popcount(words), dtype=np.int64)
        assert np.array_equal(swar, fast)

    def test_tail_mask(self):
        assert bitpack.tail_mask(64) == bitpack.ALL_ONES
        assert bitpack.tail_mask(0) == bitpack.ALL_ONES
        assert bitpack.tail_mask(1) == 1
        assert bitpack.tail_mask(3) == 7


class TestPackedKernels:
    @pytest.mark.parametrize("kind", sorted(CELL_KINDS))
    def test_kernel_matches_byte_function(self, kind):
        arity, byte_func = CELL_KINDS[kind]
        kernel = bitpack.packed_cell_function(kind)
        rows = np.array([[(m >> i) & 1 for i in range(arity)]
                         for m in range(1 << arity)], dtype=np.uint8)
        packed_ins = pack_bits(rows)
        out = kernel(*[packed_ins[i:i + 1] for i in range(arity)])
        got = unpack_bits(out, rows.shape[0])[:, 0]
        want = [byte_func(*row) & 1 for row in rows.tolist()]
        assert got.tolist() == want

    def test_truth_table_fallback(self):
        # An "unknown" 3-input kind synthesizes from its truth table.
        def majority(a, b, c):
            return (a & b) | (a & c) | (b & c)

        kernel = bitpack.packed_cell_function("MAJ3__test", arity=3,
                                              reference=majority)
        rows = np.array([[(m >> i) & 1 for i in range(3)]
                         for m in range(8)], dtype=np.uint8)
        packed_ins = pack_bits(rows)
        out = kernel(*[packed_ins[i:i + 1] for i in range(3)])
        got = unpack_bits(out, 8)[:, 0]
        assert got.tolist() == [majority(*row) for row in rows.tolist()]

    def test_constant_zero_fallback(self):
        kernel = bitpack.packed_cell_function("ZERO__test", arity=1,
                                              reference=lambda a: 0)
        out = kernel(np.full(2, bitpack.ALL_ONES, dtype=np.uint64))
        assert out.tolist() == [0, 0]


class TestEngineEquivalence:
    """Acceptance: packed is bit-identical to bytes on the component
    library (adder/multiplier/MAC) and on awkward batch sizes."""

    @pytest.mark.parametrize("batch", EDGE_BATCHES)
    def test_outputs_identical(self, lib, adder8, mult6, mac4, batch, rng):
        for netlist in (adder8, mult6, mac4):
            compiled = compile_netlist(netlist, lib)
            bits = rng.integers(
                0, 2, (batch, len(compiled.pi_slots))).astype(np.uint8)
            ref = evaluate(compiled, bits)
            got = evaluate_packed(compiled, bits)
            assert got.shape == ref.shape
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("batch", EDGE_BATCHES)
    def test_activity_identical(self, lib, adder8, mult6, mac4, batch, rng):
        for netlist in (adder8, mult6, mac4):
            n_pi = len(netlist.primary_inputs)
            bits = rng.integers(0, 2, (batch, n_pi)).astype(np.uint8)
            ref = simulate_activity_bytes(netlist, lib, bits)
            got = simulate_activity(netlist, lib, bits)
            assert got.vectors == ref.vectors
            assert got.signal_probability == ref.signal_probability
            assert got.toggle_rate == ref.toggle_rate

    def test_release_flag_equivalence(self, lib, mult6, rng):
        compiled = compile_netlist(mult6, lib)
        bits = rng.integers(
            0, 2, (100, len(compiled.pi_slots))).astype(np.uint8)
        assert np.array_equal(
            evaluate_packed(compiled, bits, release=True),
            evaluate_packed(compiled, bits, release=False))

    def test_shape_validation(self, lib, adder8):
        compiled = compile_netlist(adder8, lib)
        with pytest.raises(ValueError, match="shape"):
            evaluate_packed(compiled, np.zeros((4, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="shape"):
            evaluate_words(compiled, np.zeros((3, 1), dtype=np.uint64))


class TestPackedCore:
    """The packed-in/packed-out core behind every packed evaluation."""

    @pytest.mark.parametrize("batch", (1, 64, 130))
    def test_empty_masks_equal_evaluate_packed_on_corpus(
            self, lib, corpus_dir, batch, rng):
        corpus = load_corpus(corpus_dir)
        assert corpus
        for path, netlist in corpus:
            compiled = compile_netlist(netlist, lib, memo=False)
            bits = rng.integers(
                0, 2, (batch, len(compiled.pi_slots))).astype(np.uint8)
            got = evaluate_words(compiled, pack_bits(bits), {})
            assert got.shape == (len(compiled.po_slots),
                                 bitpack.word_count(batch)), path
            assert np.array_equal(unpack_bits(got, batch),
                                  evaluate_packed(compiled, bits)), path
            assert np.array_equal(
                got, evaluate_words(compiled, pack_bits(bits))), path


# ---------------------------------------------------------------------------
# property test: random netlists x random stimuli
# ---------------------------------------------------------------------------

_BINARY = ("and2", "or2", "xor2", "xnor2", "nand2", "nor2")


@st.composite
def random_netlists(draw, max_gates=25):
    """Random DAG over 4 inputs plus constants (all cell kinds)."""
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    builder = NetlistBuilder(name="packfuzz")
    pool = list(builder.inputs(4, "x")) + [CONST0, CONST1]
    for __ in range(n_gates):
        choice = draw(st.integers(0, len(_BINARY) + 1))
        if choice == len(_BINARY):
            pool.append(builder.inv(pool[draw(st.integers(0, len(pool) - 1))]))
        elif choice == len(_BINARY) + 1:
            a, b, s = (pool[draw(st.integers(0, len(pool) - 1))]
                       for __ in range(3))
            pool.append(builder.mux2(a, b, s))
        else:
            a, b = (pool[draw(st.integers(0, len(pool) - 1))]
                    for __ in range(2))
            pool.append(getattr(builder, _BINARY[choice])(a, b))
    outputs = [pool[-(i % len(pool)) - 1] for i in range(2)]
    return builder.outputs(outputs)


@given(netlist=random_netlists(),
       batch=st.sampled_from(EDGE_BATCHES),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_engines_agree_on_random_netlists(netlist, batch, seed):
    stim_rng = np.random.default_rng(seed)
    bits = stim_rng.integers(0, 2, (batch, 4)).astype(np.uint8)
    compiled = compile_netlist(netlist, LIB)
    assert np.array_equal(evaluate_packed(compiled, bits),
                          evaluate(compiled, bits))
    ref = simulate_activity_bytes(netlist, LIB, bits)
    got = simulate_activity(netlist, LIB, bits)
    assert got.signal_probability == ref.signal_probability
    assert got.toggle_rate == ref.toggle_rate
