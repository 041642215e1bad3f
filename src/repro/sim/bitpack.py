"""Bit-packed value representation for 64-way parallel logic simulation.

The functional simulator's batch dimension is embarrassingly
bit-parallel: every cell is a bitwise function, so 64 stimulus vectors
can ride through each gate in a single ``uint64`` word. This module
provides the packed representation and the packed cell kernels:

* **Layout** — a signal's waveform over a batch of ``B`` vectors is a
  1-D ``uint64`` array of ``ceil(B / 64)`` words; vector ``i`` lives in
  word ``i // 64`` at bit ``i % 64`` (LSB first). 2-D packed arrays are
  ``(signals, words)``, one contiguous row per signal.
* **Kernels** — the byte-wide cell functions in
  :mod:`repro.cells.cell` are LSB-only (``_inv`` is ``a ^ 1``), so each
  kind is lowered here to a full-word bitwise form (inversion becomes
  XOR with all-ones, i.e. ``~``). Unknown kinds fall back to a kernel
  synthesized from the byte function's truth table, so any future cell
  kind packs automatically.
* **Integer codecs** — :func:`pack_ints` / :func:`unpack_ints` encode
  integer streams straight into packed rows (one per bit) and decode
  packed output rows straight back to integers, so a ``(batch, width)``
  byte matrix never exists between stimulus and metrics. Both are
  tiled 8x8 bit-matrix transposes: one byte of eight values (or of
  eight packed rows) is gathered into a ``uint64``, transposed with
  three SWAR masked shift/XOR steps, and read back as one byte of
  eight packed rows (or of eight values), in column tiles of
  :data:`TILE_BYTES` packed bytes.
* **Popcount** — :func:`popcount` reduces packed words straight to
  statistics (signal probabilities, toggle counts) without unpacking.

Bits at positions ``>= B`` in the last word are *unspecified* for gate
outputs (the constant-1 slot carries ones there); mask with
:func:`tail_mask` before counting, and :func:`unpack_bits` slices them
away.
"""

import sys

import numpy as np

from ..cells.cell import CELL_KINDS

#: Vectors packed per word.
WORD_BITS = 64

#: All-ones word (the packed constant 1).
ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

_ONE = np.uint64(1)


def word_count(batch):
    """Number of ``uint64`` words needed to pack *batch* vectors."""
    return (int(batch) + WORD_BITS - 1) // WORD_BITS


def tail_mask(batch):
    """Mask of valid bits in the last word of a *batch*-vector packing.

    All-ones when ``batch`` is a multiple of 64 (or zero).
    """
    rem = int(batch) % WORD_BITS
    if rem == 0:
        return ALL_ONES
    return np.uint64((1 << rem) - 1)


def pack_bits(bits):
    """Pack a ``(batch, signals)`` 0/1 array into ``(signals, words)``.

    Row ``s`` of the result is signal ``s``'s packed waveform: vector
    ``i`` at word ``i // 64``, bit ``i % 64``. The transpose is
    deliberate — per-signal words are contiguous, which is what the
    packed evaluator and the popcount reductions want.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2:
        raise ValueError("expected a (batch, signals) bit array, got %r"
                         % (bits.shape,))
    batch, signals = bits.shape
    words = word_count(batch)
    if batch % WORD_BITS:
        cols = np.zeros((signals, words * WORD_BITS), dtype=np.uint8)
        cols[:, :batch] = bits.T
    else:
        cols = np.ascontiguousarray(bits.T)
    packed = np.packbits(cols, axis=1, bitorder="little").view(np.uint64)
    if sys.byteorder == "big":  # pragma: no cover - x86/ARM are little
        packed = packed.byteswap()
    return packed


def unpack_bits(packed, batch):
    """Inverse of :func:`pack_bits`: ``(signals, words)`` -> ``(batch, signals)``.

    Tail bits at positions ``>= batch`` are discarded.
    """
    rows = _byte_rows(packed, batch)
    bits = np.unpackbits(rows, axis=1, bitorder="little")
    return np.ascontiguousarray(bits[:, :int(batch)].T)


def _byte_rows(packed, batch):
    """Validated little-endian ``uint8`` view of ``(rows, words)`` words."""
    packed = np.ascontiguousarray(packed, dtype=np.uint64)
    if packed.ndim != 2:
        raise ValueError("expected a (signals, words) packed array, got %r"
                         % (packed.shape,))
    if int(batch) > packed.shape[1] * WORD_BITS:
        raise ValueError("batch %d exceeds packed capacity %d"
                         % (int(batch), packed.shape[1] * WORD_BITS))
    if sys.byteorder == "big":  # pragma: no cover
        packed = packed.byteswap()
    return packed.view(np.uint8)


#: Packed bytes per row in one codec tile (32768 vectors): the tile's
#: gathered words stay cache-sized whatever the batch.
TILE_BYTES = 4096
_TILE_VECTORS = TILE_BYTES * 8

#: Masked shift/XOR steps of an 8x8 bit-matrix transpose, one per
#: power-of-two block size (Hacker's Delight, ``transpose8``).
_TRANSPOSE_STEPS = (
    (np.uint64(7), np.uint64(0x00AA00AA00AA00AA)),
    (np.uint64(14), np.uint64(0x0000CCCC0000CCCC)),
    (np.uint64(28), np.uint64(0x00000000F0F0F0F0)),
)


def _transpose8(x):
    """Transpose the 8x8 bit matrix in each word of *x*, in place.

    Bit ``c`` of byte ``r`` moves to bit ``r`` of byte ``c``: eight
    bytes of eight packed rows become eight bytes of eight values, and
    back (the transpose is its own inverse).
    """
    t = np.empty_like(x)
    for shift, mask in _TRANSPOSE_STEPS:
        np.right_shift(x, shift, out=t)
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    return x


def pack_ints(values, width):
    """Encode integers straight into packed words: ``(width, words)``.

    Row ``i`` holds bit ``i`` (LSB first, two's complement, so values
    are taken modulo ``2 ** width``) of every value, in the
    :func:`pack_bits` layout; equal to
    ``pack_bits(int_to_bits(values, width))`` without its ``(batch,
    width)`` byte matrix and transpose. Byte ``p`` of eight consecutive
    values is gathered into one word whose 8x8 bit transpose holds
    byte ``j`` of packed rows ``8p .. 8p + 7``; the batch is coded in
    :data:`TILE_BYTES`-byte column tiles.
    """
    values = np.asarray(values, dtype="<i8").ravel()
    width = int(width)
    batch = values.shape[0]
    packed = np.zeros((width, word_count(batch)), dtype="<u8")
    rows = packed.view(np.uint8)
    value_bytes = values.view(np.uint8).reshape(batch, 8)
    planes = (width + 7) // 8
    for lo in range(0, batch, _TILE_VECTORS):
        n = min(_TILE_VECTORS, batch - lo)
        # words[p, j] holds byte p of values lo + 8j .. lo + 8j + 7.
        words = np.zeros((planes, (n + 7) // 8), dtype="<u8")
        gathered = words.view(np.uint8)
        for p in range(planes):
            gathered[p, :n] = value_bytes[lo:lo + n, p]
        _transpose8(words)
        col = lo // 8
        for p in range(planes):
            hi = min(8, width - 8 * p)
            rows[8 * p:8 * p + hi, col:col + words.shape[1]] = \
                gathered[p].reshape(-1, 8)[:, :hi].T
    return packed.astype(np.uint64, copy=False)


def unpack_ints(packed, batch, signed=True):
    """Decode ``(width, words)`` packed rows into ``(batch,)`` integers.

    Row ``i`` is bit ``i`` (LSB first); with *signed* the MSB row is a
    two's-complement sign bit. Equal to
    ``bits_to_int(unpack_bits(packed, batch), signed)``; tail bits at
    positions ``>= batch`` are ignored. The inverse of
    :func:`pack_ints`' tiled transposes: each tile's value bytes land
    straight in one preallocated output, sign-extended in place.
    """
    rows = _byte_rows(packed, batch)
    width = rows.shape[0]
    batch = int(batch)
    out = np.zeros(batch, dtype="<i8")
    value_bytes = out.view(np.uint8).reshape(batch, 8)
    planes = (width + 7) // 8
    for lo in range(0, batch, _TILE_VECTORS):
        n = min(_TILE_VECTORS, batch - lo)
        # words[p, j] holds byte lo / 8 + j of rows 8p .. 8p + 7.
        words = np.zeros((planes, (n + 7) // 8), dtype="<u8")
        gathered = words.view(np.uint8)
        col = lo // 8
        for p in range(planes):
            hi = min(8, width - 8 * p)
            gathered[p].reshape(-1, 8)[:, :hi] = \
                rows[8 * p:8 * p + hi, col:col + words.shape[1]].T
        _transpose8(words)
        for p in range(planes):
            value_bytes[lo:lo + n, p] = gathered[p, :n]
    if signed and 0 < width < 64:
        sign = np.int64(1) << np.int64(width - 1)
        out ^= sign
        out -= sign
    return out.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# popcount
# ---------------------------------------------------------------------------

_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def _popcount_swar(words):
    """Branch-free SWAR popcount (NumPy < 2.0 fallback)."""
    w = np.array(words, dtype=np.uint64, copy=True)
    w -= (w >> _ONE) & _M1
    w = (w & _M2) + ((w >> np.uint64(2)) & _M2)
    w = (w + (w >> np.uint64(4))) & _M4
    return (w * _H01) >> np.uint64(56)


if hasattr(np, "bitwise_count"):
    def popcount(words):
        """Per-word count of set bits (sum with an explicit wide dtype)."""
        return np.bitwise_count(words)
else:  # pragma: no cover - exercised only on NumPy < 2.0
    popcount = _popcount_swar


# ---------------------------------------------------------------------------
# packed cell kernels
# ---------------------------------------------------------------------------

def _pinv(a):
    return ~a


def _pbuf(a):
    return a


def _pnand2(a, b):
    return ~(a & b)


def _pnor2(a, b):
    return ~(a | b)


def _pand2(a, b):
    return a & b


def _por2(a, b):
    return a | b


def _pxor2(a, b):
    return a ^ b


def _pxnor2(a, b):
    return ~(a ^ b)


def _pmux2(a, b, s):
    """Select *b* when s=1 else *a* (matches the byte kernel)."""
    return (a & ~s) | (b & s)


def _paoi21(a, b, c):
    return ~((a & b) | c)


def _poai21(a, b, c):
    return ~((a | b) & c)


#: kind -> full-word bitwise kernel, mirroring ``CELL_KINDS``.
PACKED_KERNELS = {
    "INV": _pinv,
    "BUF": _pbuf,
    "NAND2": _pnand2,
    "NOR2": _pnor2,
    "AND2": _pand2,
    "OR2": _por2,
    "XOR2": _pxor2,
    "XNOR2": _pxnor2,
    "MUX2": _pmux2,
    "AOI21": _paoi21,
    "OAI21": _poai21,
}

#: kind -> kernel synthesized from a truth table (unknown kinds).
_SYNTHESIZED = {}


def _kernel_from_truth_table(arity, reference):
    """Build a packed kernel as a sum of the byte function's minterms.

    Evaluates *reference* (a scalar/LSB logic function) on all ``2 **
    arity`` input combinations and returns an OR-of-ANDs over the true
    rows — correct for any bitwise-safe cell function, just slower than
    a hand-written kernel.
    """
    minterms = []
    for row in range(1 << arity):
        ins = [(row >> pos) & 1 for pos in range(arity)]
        if reference(*ins) & 1:
            minterms.append(tuple(ins))

    def kernel(*args):
        acc = np.zeros_like(args[0])
        for ins in minterms:
            term = None
            for value, arg in zip(ins, args):
                literal = arg if value else ~arg
                term = literal if term is None else term & literal
            acc |= term
        return acc

    return kernel


def packed_cell_function(kind, arity=None, reference=None):
    """Return the full-word packed kernel for a cell *kind*.

    Known kinds use the hand-written kernels above; anything else is
    synthesized (once) from the kind's byte-level truth table. *arity*
    and *reference* default to the ``CELL_KINDS`` entry and only need
    to be passed for kinds outside the table.
    """
    kernel = PACKED_KERNELS.get(kind)
    if kernel is not None:
        return kernel
    kernel = _SYNTHESIZED.get(kind)
    if kernel is not None:
        return kernel
    if arity is None or reference is None:
        table_arity, table_func = CELL_KINDS[kind]
        arity = table_arity if arity is None else arity
        reference = table_func if reference is None else reference
    kernel = _kernel_from_truth_table(arity, reference)
    _SYNTHESIZED[kind] = kernel
    return kernel
