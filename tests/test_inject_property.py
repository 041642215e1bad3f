"""Property tests for the packed fault injector (satellite 1).

The packed 64-way XOR injector must be bit-exact against the scalar
uint8 reference injector on arbitrary netlists, masks, and seeds —
random DAGs from the fuzz generator plus every committed corpus entry
in ``tests/corpus/``. Also pins the mask sampler's monotone-nesting
property on arbitrary probability pairs.
"""

import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cells import default_library
from repro.inject.inject_sim import count_mask_bits, unpack_op_masks
from repro.inject.masks import (PROB_ONE, bernoulli_words, flip_threshold)
from repro.sim import bitpack, compile_netlist, evaluate_packed
from repro.verify import (evaluate_bytes, evaluate_bytes_injected,
                          load_corpus, random_netlist)
from repro.verify.pytest_plugin import CORPUS_DIRNAME

LIB = default_library()
CORPUS_DIR = os.path.join(os.path.dirname(__file__), CORPUS_DIRNAME)
_CORPUS = load_corpus(CORPUS_DIR)


def _random_masks(compiled, vectors, rng, seed):
    """Masks for a random subset of rows at random probabilities."""
    words = bitpack.word_count(vectors)
    op_masks = {}
    for row in range(len(compiled.outs)):
        if rng.random() < 0.4:
            threshold = flip_threshold(float(rng.random()))
            op_masks[row] = bernoulli_words(seed, row, threshold, words)
    return op_masks


def _assert_packed_matches_scalar(netlist, vectors, rng, seed):
    compiled = compile_netlist(netlist, LIB)
    pi_bits = rng.integers(0, 2, size=(vectors, len(
        netlist.primary_inputs)), dtype=np.uint8)
    op_masks = _random_masks(compiled, vectors, rng, seed)
    packed = evaluate_packed(compiled, pi_bits, op_masks=op_masks)
    scalar = evaluate_bytes_injected(
        compiled, pi_bits, unpack_op_masks(op_masks, vectors))
    assert packed.shape == scalar.shape
    assert (packed == scalar).all()
    if not op_masks:
        assert (packed == evaluate_bytes(compiled, pi_bits)).all()
    injected, faulted = count_mask_bits(op_masks, vectors)
    assert faulted <= min(injected, vectors)


@given(seed=st.integers(0, 2**32 - 1),
       vectors=st.integers(1, 200))
def test_packed_matches_scalar_on_random_netlists(seed, vectors):
    """Packed XOR injection == scalar uint8 reference, bit for bit."""
    rng = np.random.default_rng(seed)
    netlist = random_netlist(rng, n_inputs=4, max_gates=30, n_outputs=3)
    _assert_packed_matches_scalar(netlist, vectors, rng, seed)


@pytest.mark.verify
@pytest.mark.skipif(not _CORPUS, reason="no fuzz corpus committed")
@given(data=st.data())
def test_packed_matches_scalar_on_corpus(data):
    """Same bit-exactness over every committed regression netlist."""
    __, netlist = data.draw(st.sampled_from(_CORPUS))
    seed = data.draw(st.integers(0, 2**32 - 1))
    vectors = data.draw(st.sampled_from([1, 63, 64, 65, 128, 200]))
    rng = np.random.default_rng(seed)
    _assert_packed_matches_scalar(netlist, vectors, rng, seed)


@given(seed=st.integers(0, 2**32 - 1),
       uid=st.integers(0, 2**20),
       p1=st.floats(0.0, 1.0, allow_nan=False),
       p2=st.floats(0.0, 1.0, allow_nan=False),
       words=st.integers(1, 64))
def test_mask_nesting_and_determinism(seed, uid, p1, p2, words):
    """Lower probability => subset mask; same inputs => same mask."""
    lo, hi = sorted([p1, p2])
    t_lo, t_hi = flip_threshold(lo), flip_threshold(hi)
    assert 0 <= t_lo <= t_hi <= PROB_ONE
    m_lo = bernoulli_words(seed, uid, t_lo, words)
    m_hi = bernoulli_words(seed, uid, t_hi, words)
    assert not (m_lo & ~m_hi).any()
    assert (m_lo == bernoulli_words(seed, uid, t_lo, words)).all()
    # Prefix stability: a shorter mask is a prefix of a longer one.
    if words > 1:
        assert (bernoulli_words(seed, uid, t_hi, words - 1)
                == m_hi[:words - 1]).all()
