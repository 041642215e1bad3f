"""Property tests for the shared Philox streams (``repro.core.streams``).

The vectorized key derivation must equal NumPy's own
``SeedSequence(...).generate_state(2, np.uint64)`` for every key, and
both stream consumers must equal per-gate ``SeedSequence`` streams:
Monte Carlo variation draws (domain ``"mc"``, drawn from re-keyed
generators) and packed fault masks (no domain tag).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.streams import philox_stream, rekey, stream_keys
from repro.inject import masks as inject_masks
from repro.mc import (SAMPLE_CHUNK, VariationModel, gate_stream,
                      standard_draws)
from repro.mc.variation import _MC_DOMAIN

#: Word-boundary values: one word, the largest one-word value, the
#: smallest two-word value, the largest two-word value.
EDGES = (0, 2**32 - 1, 2**32, 2**64 - 1)
WORDS = st.sampled_from(EDGES) | st.integers(0, 2**64 - 1)
CHUNKS = st.sampled_from((0, 1, 2**31, 2**40, 2**64 - 1)) \
    | st.integers(0, 2**64 - 1)


def seedseq_key(*words):
    return np.random.SeedSequence(list(words)).generate_state(2, np.uint64)


def seedseq_stream(*words):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(list(words))))


def seedseq_draws(seed, uid, start, count):
    """Per-gate draws straight from ``SeedSequence`` streams."""
    out = []
    for chunk in range(start // SAMPLE_CHUNK,
                       (start + count - 1) // SAMPLE_CHUNK + 1):
        z = seedseq_stream(seed, uid, chunk, _MC_DOMAIN).standard_normal(
            SAMPLE_CHUNK)
        lo = max(start, chunk * SAMPLE_CHUNK) - chunk * SAMPLE_CHUNK
        hi = min(start + count, (chunk + 1) * SAMPLE_CHUNK) \
            - chunk * SAMPLE_CHUNK
        out.append(z[lo:hi])
    return np.concatenate(out) if out else np.empty(0)


class TestStreamKeys:
    @pytest.mark.parametrize("domain", [None, _MC_DOMAIN])
    def test_edge_words_exhaustive(self, domain):
        tail = () if domain is None else (domain,)
        for seed, chunk in itertools.product(EDGES, (0, 7, 2**40)):
            keys = stream_keys(seed, np.asarray(EDGES, dtype=np.uint64),
                               chunk, domain)
            for uid, key in zip(EDGES, keys):
                assert (key == seedseq_key(seed, uid, chunk, *tail)).all()

    @given(seed=WORDS, uids=st.lists(WORDS, min_size=1, max_size=6),
           chunk=CHUNKS, domain=st.none() | WORDS)
    def test_equal_seedsequence(self, seed, uids, chunk, domain):
        """3-word keys (no domain) and 4-word keys, any word widths."""
        tail = () if domain is None else (domain,)
        keys = stream_keys(seed, uids, chunk, domain)
        assert keys.shape == (len(uids), 2) and keys.dtype == np.uint64
        for uid, key in zip(uids, keys):
            assert (key == seedseq_key(seed, uid, chunk, *tail)).all()

    def test_int64_uid_arrays_and_empty(self):
        uids = np.arange(0, 4000, 37, dtype=np.int64)
        keys = stream_keys(11, uids, 3, _MC_DOMAIN)
        for uid, key in zip(uids, keys):
            assert (key == seedseq_key(11, int(uid), 3, _MC_DOMAIN)).all()
        assert stream_keys(11, [], 3).shape == (0, 2)

    def test_rejects_negative_words(self):
        with pytest.raises(ValueError):
            stream_keys(1, np.asarray([3, -1]), 0)
        with pytest.raises(ValueError):
            stream_keys(-1, [3], 0)
        with pytest.raises(ValueError):
            stream_keys(1, [3], 0, domain=-5)


class TestStreams:
    @given(seed=WORDS, uid=WORDS, chunk=CHUNKS,
           domain=st.none() | st.just(_MC_DOMAIN))
    def test_philox_stream_equals_seedsequence_stream(self, seed, uid,
                                                      chunk, domain):
        tail = () if domain is None else (domain,)
        ours = philox_stream(seed, uid, chunk, domain)
        theirs = seedseq_stream(seed, uid, chunk, *tail)
        assert (ours.integers(0, 1 << 64, size=9, dtype=np.uint64)
                == theirs.integers(0, 1 << 64, size=9,
                                   dtype=np.uint64)).all()
        assert (ours.standard_normal(33) == theirs.standard_normal(33)).all()

    def test_rekey_restarts_a_used_generator(self):
        gen = philox_stream(1, 2, 3)
        gen.standard_normal(5)
        gen.integers(0, 7)  # leaves buffered output behind
        rekey(gen, stream_keys(7, [42], 0, _MC_DOMAIN)[0])
        assert (gen.standard_normal(300)
                == seedseq_stream(7, 42, 0, _MC_DOMAIN).standard_normal(
                    300)).all()

    def test_mc_gate_stream_carries_the_domain(self):
        assert (gate_stream(7, 42, 1).standard_normal(8)
                == seedseq_stream(7, 42, 1, _MC_DOMAIN).standard_normal(
                    8)).all()

    def test_fault_masks_equal_seedsequence_masks(self, monkeypatch):
        words = inject_masks.CHUNK_WORDS + 5
        thresholds = (1, inject_masks.flip_threshold(0.3), 0xABCDEF)
        ours = [inject_masks.bernoulli_words(13, 4, t, words)
                for t in thresholds]
        monkeypatch.setattr(inject_masks, "gate_stream",
                            lambda seed, uid, chunk:
                            seedseq_stream(seed, uid, chunk))
        for t, mask in zip(thresholds, ours):
            assert (mask == inject_masks.bernoulli_words(13, 4, t,
                                                         words)).all()


class TestMaskPlanes:
    """Fault masks draw bit-planes as raw Philox output, which must be
    the very words of full-range ``integers(0, 2**64)`` draws."""

    STREAMS = ((0, 0, 0), (13, 4, 0), (20170618, 1613, 1),
               (2**64 - 1, 2**32, 7), (7, 2**63, 2**40))

    @pytest.mark.parametrize("seed,uid,chunk", STREAMS)
    def test_raw_planes_equal_full_range_integers(self, seed, uid, chunk):
        raw = philox_stream(seed, uid, chunk).bit_generator.random_raw
        ints = philox_stream(seed, uid, chunk)
        for __ in range(inject_masks.PROB_BITS):
            assert (raw(inject_masks.CHUNK_WORDS)
                    == ints.integers(0, 1 << 64,
                                     size=inject_masks.CHUNK_WORDS,
                                     dtype=np.uint64)).all()


class TestGateDraws:
    @given(seed=WORDS,
           uids=st.lists(st.integers(0, 2**40) | st.sampled_from(EDGES),
                         min_size=1, max_size=4, unique=True),
           start=st.integers(0, 3 * SAMPLE_CHUNK),
           count=st.integers(0, 2 * SAMPLE_CHUNK + 3))
    def test_gate_dvth_equals_per_gate_draws(self, seed, uids, start,
                                             count):
        model = VariationModel(sigma_mv=30.0, seed=seed, clip_sigmas=2.0)
        got = model.gate_dvth(np.asarray(uids, dtype=np.uint64), start,
                              count)
        assert got.shape == (len(uids), count)
        for row, uid in zip(got, uids):
            z = standard_draws(seed, uid, start, count)
            assert (z == seedseq_draws(seed, uid, start, count)).all()
            assert (row == np.clip(z, -2.0, 2.0) * model.sigma_v).all()

    def test_block_rows_straddle_chunks(self):
        model = VariationModel(sigma_mv=20.0, seed=5)
        uids = np.arange(50, dtype=np.int64) * 3 + 1
        whole = model.gate_dvth(uids, 0, 3 * SAMPLE_CHUNK)
        for start, count in ((0, 1), (SAMPLE_CHUNK - 1, 2),
                             (100, SAMPLE_CHUNK),
                             (SAMPLE_CHUNK, SAMPLE_CHUNK),
                             (10, 2 * SAMPLE_CHUNK + 5)):
            assert (model.gate_dvth(uids, start, count)
                    == whole[:, start:start + count]).all()
