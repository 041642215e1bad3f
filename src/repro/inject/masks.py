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
  one at a time, most-significant first, each occupying a full
  :data:`CHUNK_WORDS` words of it (a shorter mask advances past the
  words it does not use), so plane *i* is always the *i*-th plane and
  word *w* of it is always the same value regardless of how many
  planes a threshold needs or how many words a caller asks for.
  Two corners that share ``(seed, uid, chunk)`` see the same planes,
  and a shorter mask is an exact prefix of a longer one.
* **Monotone nesting** — a lane flips iff its 24-bit uniform ``U``
  (assembled from the planes) satisfies ``U < T`` for the gate's
  threshold ``T``. With shared planes, ``T1 <= T2`` implies the ``T1``
  mask is a subset of the ``T2`` mask, so injected-fault counts are
  exactly non-decreasing in flip probability — the lever behind the
  lifetime/clock monotonicity invariants of
  :func:`repro.verify.invariants.check_injection`.

Plane sharing
-------------
Because a gate's planes depend only on ``(seed, uid, chunk)``, one
draw serves every threshold the gate has anywhere in a campaign:
:func:`bernoulli_masks` opens each ``(uid, chunk)`` stream once and
compares every plane against all of the gate's thresholds (one per
grid point that finds the gate violating), and a campaign chunk calls
it once per violating gate (:func:`repro.inject.faultload.point_masks`)
instead of redrawing the planes at every grid point. Masks drawn ahead
for later points are held within a fixed byte budget
(:data:`repro.inject.faultload.HELD_MASK_BYTES`); past it a gate is
drawn again at a later point. Each mask is
bit-identical to a one-threshold draw (:func:`bernoulli_words`), since
plane *i* is the *i*-th draw of the same stream either way; the
``inject.mask_streams`` counter counts the streams opened.
"""

import math

import numpy as np

from ..core.streams import philox_stream as gate_stream
from ..obs import metrics as obs_metrics
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


def flip_thresholds(probabilities):
    """:func:`flip_threshold` of every element: an ``int64`` array.

    The same rounding (up) and clamping (to ``0`` / :data:`PROB_ONE`)
    as the scalar form, so both agree value for value.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if np.isnan(p).any():
        raise ValueError("flip probabilities must not be NaN")
    return np.ceil(np.clip(p, 0.0, 1.0) * PROB_ONE).astype(np.int64)


def bernoulli_masks(seed, gate_uid, thresholds, words):
    """Packed Bernoulli masks of one gate, one per threshold.

    Returns a list of ``(words,)`` uint64 masks, mask *k* flipping with
    probability ``thresholds[k] / 2**PROB_BITS``; equal thresholds
    share one array, and callers must not write to the masks.

    Per chunk the gate's stream is opened once and its uniform 64-lane
    bit-planes are drawn MSB-first, each compared against every
    threshold: per threshold, ``lt`` collects decided-below lanes and
    ``eq`` tracks lanes still matching the threshold prefix. A
    threshold retires once its remaining bits are all zero (no
    undecided lane can still fall below) or its ``eq`` is empty (no
    lane is undecided); the draw stops when every threshold has
    retired. Early exits never change a mask, only skip draws, which
    is safe because planes are consumed strictly in order (prefix
    stability above). Thresholds at ``0`` or :data:`PROB_ONE` are
    decided without opening a stream.

    Each plane occupies :data:`CHUNK_WORDS` words of the stream, so a
    partial chunk yields the same words as a full one would. Philox is
    counter-based, so a partial chunk draws only its words (rounded up
    to the generator's 4-word block) and advances the stream past the
    rest instead of drawing them.
    """
    words = int(words)
    thresholds = [int(t) for t in thresholds]
    masks = {}
    for threshold in thresholds:
        if threshold not in masks:
            masks[threshold] = np.zeros(words, dtype=np.uint64)
            if threshold >= PROB_ONE:
                masks[threshold][:] = bitpack.ALL_ONES
    live = [t for t in masks if 0 < t < PROB_ONE]
    for chunk, lo in enumerate(range(0, words, CHUNK_WORDS) if live else ()):
        n_words = min(CHUNK_WORDS, words - lo)
        obs_metrics.inc(obs_metrics.INJECT_MASK_STREAMS)
        # Raw Philox output: the very words ``integers(0, 2**64,
        # dtype=np.uint64)`` returns, without the bounded-integer wrapper.
        philox = gate_stream(seed, gate_uid, chunk).bit_generator
        drawn = -(-n_words // 4) * 4
        skip = (CHUNK_WORDS - drawn) // 4
        undecided = [(t, masks[t][lo:lo + n_words],
                      np.full(n_words, bitpack.ALL_ONES, dtype=np.uint64))
                     for t in live]
        for bit in range(PROB_BITS - 1, -1, -1):
            plane = philox.random_raw(drawn)[:n_words]
            if skip:
                philox.advance(skip)
            clear = ~plane
            still = []
            for threshold, lt, eq in undecided:
                if (threshold >> bit) & 1:
                    lt |= eq & clear
                    eq &= plane
                else:
                    eq &= clear
                if threshold & ((1 << bit) - 1) and eq.any():
                    still.append((threshold, lt, eq))
            undecided = still
            if not undecided:
                break
    return [masks[t] for t in thresholds]


def bernoulli_words(seed, gate_uid, threshold, words):
    """Packed Bernoulli(``threshold / 2**PROB_BITS``) mask of *words* words."""
    return bernoulli_masks(seed, gate_uid, (threshold,), words)[0]
