"""Reproducible packed Bernoulli fault masks.

A fault mask is a ``(words,)`` uint64 array aligned with the 64-way
packed simulation words of :mod:`repro.sim.bitpack`: bit *i* of word
*w* set means "flip the gate output seen by vector ``w * 64 + i``".
Masks are sampled per gate with a fixed-point Bernoulli comparison so
that campaigns are bit-reproducible from ``(seed, gate uid)`` alone.

Seed-splitting scheme
---------------------
Each ``(gate, chunk)`` pair owns an independent counter-based RNG
stream::

    Generator(Philox(SeedSequence([campaign_seed, gate_uid, chunk])))

where ``chunk`` indexes :data:`CHUNK_WORDS`-word slices of the packed
vector stream (:func:`repro.core.streams.philox_stream` with no domain
tag; the Monte Carlo variation draws use the same streams under their
own tag). Three properties follow, and the determinism and
monotonicity guarantees of :mod:`repro.inject` rest on them:

* **Partition independence** — a stream is a pure function of
  ``(seed, uid, chunk)``, never of worker count, task order, or which
  process draws it. ``--jobs 1`` vs ``--jobs N`` and in-process vs
  served campaigns therefore produce bit-identical masks.
* **Prefix stability** — uniform bit-planes are drawn from the stream
  one at a time, most-significant first, always a full
  :data:`CHUNK_WORDS` words wide, so plane *i* is always the *i*-th
  draw and word *w* of it is always the same value regardless of how
  many planes a threshold needs or how many words a caller asks for.
  Two corners that share ``(seed, uid, chunk)`` see the same planes,
  and a shorter mask is an exact prefix of a longer one.
* **Monotone nesting** — a lane flips iff its 24-bit uniform ``U``
  (assembled from the planes) satisfies ``U < T`` for the gate's
  threshold ``T``. With shared planes, ``T1 <= T2`` implies the ``T1``
  mask is a subset of the ``T2`` mask, so injected-fault counts are
  exactly non-decreasing in flip probability — the lever behind the
  lifetime/clock monotonicity invariants of
  :func:`repro.verify.invariants.check_injection`.
"""

import math

import numpy as np

from ..core.streams import philox_stream as gate_stream
from ..sim import bitpack

#: Fixed-point resolution of flip probabilities: thresholds live in
#: ``[0, 2**PROB_BITS]`` and a lane flips when its PROB_BITS-bit
#: uniform is strictly below the threshold.
PROB_BITS = 24

#: Threshold value representing probability exactly 1.0.
PROB_ONE = 1 << PROB_BITS

#: Words per RNG chunk (8192 words = 524288 packed vectors). Chunking
#: keeps streams addressable without replaying a whole campaign's
#: worth of draws to reach a late slice.
CHUNK_WORDS = 8192


def flip_threshold(probability):
    """Quantize *probability* into a ``PROB_BITS``-bit threshold.

    Rounds up so any strictly positive probability keeps a non-zero
    chance of faulting; values at or beyond the ends clamp to the
    exact 0 / :data:`PROB_ONE` codes.
    """
    if probability <= 0.0:
        return 0
    if probability >= 1.0:
        return PROB_ONE
    return min(PROB_ONE, int(math.ceil(probability * PROB_ONE)))


def _chunk_mask(seed, gate_uid, chunk, threshold, n_words):
    """Bernoulli mask for one chunk via bitwise threshold comparison.

    Draws uniform 64-lane bit-planes MSB-first and accumulates, per
    lane, whether the assembled uniform is strictly below *threshold*:
    ``lt`` collects decided-below lanes, ``eq`` tracks lanes still
    matching the threshold prefix. Early exits never change the
    result — once the remaining threshold bits are all zero no
    undecided lane can still fall below, and once ``eq`` is empty no
    lane is undecided — they only skip draws, which is safe because
    planes are consumed strictly in order (prefix stability above).

    Planes are always drawn :data:`CHUNK_WORDS` wide and sliced, so a
    partial final chunk yields the same words as a full one would.
    """
    # Raw Philox output: the very words ``integers(0, 2**64,
    # dtype=np.uint64)`` returns, without the bounded-integer wrapper.
    draw = gate_stream(seed, gate_uid, chunk).bit_generator.random_raw
    lt = np.zeros(n_words, dtype=np.uint64)
    eq = np.full(n_words, bitpack.ALL_ONES, dtype=np.uint64)
    for bit in range(PROB_BITS - 1, -1, -1):
        plane = draw(CHUNK_WORDS)[:n_words]
        if (threshold >> bit) & 1:
            lt |= eq & ~plane
            eq &= plane
        else:
            eq &= ~plane
        if not threshold & ((1 << bit) - 1):
            break
        if not eq.any():
            break
    return lt


def bernoulli_words(seed, gate_uid, threshold, words):
    """Packed Bernoulli(``threshold / 2**PROB_BITS``) mask of *words* words."""
    out = np.zeros(int(words), dtype=np.uint64)
    if threshold <= 0:
        return out
    if threshold >= PROB_ONE:
        out[:] = bitpack.ALL_ONES
        return out
    for chunk, lo in enumerate(range(0, int(words), CHUNK_WORDS)):
        n_words = min(CHUNK_WORDS, int(words) - lo)
        out[lo:lo + n_words] = _chunk_mask(
            seed, gate_uid, chunk, int(threshold), n_words)
    return out
