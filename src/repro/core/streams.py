"""Counter-based Philox streams keyed by ``(seed, uid, chunk[, domain])``.

Fault masks (:mod:`repro.inject.masks`, no domain tag) and Monte Carlo
variation draws (:mod:`repro.mc.variation`, tag ``"mc"``) draw one
stream per key: Philox at counter 0 under the key
``np.random.SeedSequence([seed, uid, chunk, domain]).generate_state(2,
np.uint64)``, the state ``Philox(SeedSequence(...))`` starts from.
:func:`stream_keys` derives the keys of many uids at once: it runs
``SeedSequence``'s ``hashmix``/``mix`` rounds as uint32 array arithmetic,
one lane per uid, on integers split into little-endian 32-bit words as
``SeedSequence`` splits them, so the keys are the same numbers for any
entropy length. :func:`rekey` then points one generator at each stream
in turn instead of building a generator per stream;
:func:`philox_stream` builds the generator of a single stream.
"""

import itertools

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_SHIFT = np.uint32(16)
_ZEROS4 = np.zeros(4, dtype=np.uint64)


def _words(value):
    """``SeedSequence``'s little-endian uint32 words of one integer."""
    value = int(value)
    if value < 0:
        raise ValueError("stream key words must be non-negative, got %r"
                         % (value,))
    words = [value & _MASK32]
    while value >> 32 * len(words):
        words.append(value >> 32 * len(words) & _MASK32)
    return words


def _hasher(hash_const, mult):
    """``SeedSequence``'s ``hashmix`` with its running multiplier."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value *= np.uint32(hash_const)
        return value ^ value >> _SHIFT
    return hashmix


def _mix(x, y):
    out = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
    return out ^ out >> _SHIFT


def _pool_keys(entropy):
    """``SeedSequence(entropy).generate_state(2, np.uint64)`` per lane;
    *entropy* is a list of ``(n,)`` uint32 columns, one per word."""
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    zeros = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros)
            for i in range(_POOL_SIZE)]
    for src, dst in itertools.permutations(range(_POOL_SIZE), 2):
        pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = _hasher(0x8B51F9DD, 0x58F38DED)
    lo0, hi0, lo1, hi1 = (state(word).astype(np.uint64) for word in pool)
    return np.stack([lo0 | hi0 << np.uint64(32),
                     lo1 | hi1 << np.uint64(32)], axis=1)


def stream_keys(seed, uids, chunk, domain=None):
    """Philox keys of the ``(seed, uid, chunk[, domain])`` streams.

    Returns ``(len(uids), 2)`` uint64, row ``i`` equal to
    ``np.random.SeedSequence([seed, uids[i], chunk] + [domain]
    ).generate_state(2, np.uint64)`` (``domain=None`` drops the word).
    """
    if not isinstance(uids, np.ndarray):      # exact for uids >= 2**63
        uids = np.array([int(uid) for uid in uids], dtype=object)
    uids = uids.reshape(-1)
    if uids.size and (uids.dtype.kind not in "uiO" or (uids < 0).any()):
        raise ValueError("stream uids must be non-negative integers")
    uids = uids.astype(np.uint64)
    keys = np.empty((len(uids), 2), dtype=np.uint64)
    lo = (uids & np.uint64(_MASK32)).astype(np.uint32)
    hi = (uids >> np.uint64(32)).astype(np.uint32)
    wide = hi != 0
    head = _words(seed)
    tail = _words(chunk) + ([] if domain is None else _words(domain))
    for rows, cols in ((~wide, (lo,)), (wide, (lo, hi))):
        n = int(np.count_nonzero(rows))
        if n:
            keys[rows] = _pool_keys(
                [np.full(n, w, dtype=np.uint32) for w in head]
                + [col[rows] for col in cols]
                + [np.full(n, w, dtype=np.uint32) for w in tail])
    return keys


def rekey(generator, key):
    """Restart *generator*'s Philox at the stream of *key*: counter 0,
    the key, an empty output buffer. Returns *generator*."""
    generator.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": _ZEROS4, "key": key},
        "buffer": _ZEROS4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return generator


def philox_stream(seed, uid, chunk, domain=None):
    """A fresh generator on the ``(seed, uid, chunk[, domain])`` stream.

    For a single stream NumPy's own ``SeedSequence`` derives the key
    faster than :func:`stream_keys`; batches of uids should re-key one
    generator with :func:`stream_keys` keys instead.
    """
    words = [int(seed), int(uid), int(chunk)]
    if domain is not None:
        words.append(int(domain))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(
        words)))
