"""Pure-Python golden reference models.

Every RTL component in :mod:`repro.rtl` already carries *two* models of
itself — the arithmetic :meth:`~repro.rtl.component.RTLComponent.exact`
/ ``approximate`` pair (NumPy) and the gate-level netlist. Both were
written by the same hands against the same spec, so a shared
misconception would slip through a two-way diff. This module adds a
third, deliberately *different* implementation: integer-only Python
that manipulates two's-complement encodings digit by digit — ripple
carries for the adders, signed digit-serial accumulation for the
Baugh-Wooley multiplier, an explicit radix-4 recoding loop for the
Booth multiplier, and per-tap/per-coefficient loops for the FIR and
DCT datapaths.

The golden-model contract (enforced by ``tests/test_verify_golden.py``
and the ``repro-aging verify`` CLI):

* ``golden_model(component)`` returns a callable over Python integers
  that equals ``component.approximate`` elementwise for every operand
  tuple and every precision, and
* both equal the synthesized netlist simulated by any engine.

All functions here are scalar and slow on purpose — clarity over speed;
the vectorized engines are the ones under test.
"""

from dataclasses import dataclass
from typing import List

from ..approx.truncation import truncate_lsbs


def wrap(value, width):
    """Reduce an unbounded Python int into the signed *width*-bit range."""
    mask = (1 << width) - 1
    value &= mask
    if value >= 1 << (width - 1):
        value -= 1 << width
    return value


def to_bits(value, width):
    """Two's-complement encoding of *value*, LSB first."""
    return [(value >> i) & 1 for i in range(width)]


def from_bits(bits):
    """Decode an LSB-first two's-complement bit list."""
    value = sum(bit << i for i, bit in enumerate(bits))
    if bits and bits[-1]:
        value -= 1 << len(bits)
    return value


def _truncated(component, operands):
    """Apply the component's LSB truncation to scalar operands."""
    out = []
    for value, opwidth in zip(operands, component.operand_widths):
        drop = min(component.drop_bits, opwidth)
        out.append(truncate_lsbs(int(value), drop))
    return out


# ---------------------------------------------------------------------------
# primitive golden datapaths (bit-level, scalar)
# ---------------------------------------------------------------------------

def golden_add(a, b, width):
    """Ripple-carry sum of two signed *width*-bit values, wrapped.

    Implemented as an explicit full-adder chain over bit lists — the
    same structure as :func:`repro.rtl.adder.ripple_core`, but over
    Python bools instead of gates.
    """
    abits = to_bits(wrap(a, width), width)
    bbits = to_bits(wrap(b, width), width)
    carry = 0
    sums = []
    for abit, bbit in zip(abits, bbits):
        sums.append(abit ^ bbit ^ carry)
        carry = (abit & bbit) | ((abit ^ bbit) & carry)
    return from_bits(sums)


def golden_multiply(a, b, width):
    """Signed product via digit-serial accumulation over ``2*width`` bits.

    Walks the multiplier's bits with explicit two's-complement weights
    (bit ``width-1`` weighs ``-2**(width-1)``), accumulating shifted
    copies of the multiplicand — a different decomposition than both
    the NumPy ``int64`` product and the netlist's Baugh-Wooley columns.
    """
    a = wrap(a, width)
    bbits = to_bits(wrap(b, width), width)
    acc = 0
    for i, bit in enumerate(bbits):
        if not bit:
            continue
        term = a << i
        if i == width - 1:      # the sign bit carries negative weight
            term = -term
        acc += term
    return wrap(acc, 2 * width)


def golden_booth_multiply(a, b, width):
    """Signed product via an explicit radix-4 Booth recoding loop.

    Decodes the multiplier into ``ceil(width/2)`` digits in
    ``{-2, -1, 0, +1, +2}`` from overlapping bit triples and
    accumulates ``digit * a << 2i`` — mirroring the recoding spec the
    Booth netlist implements, independently of its gate structure.
    """
    a = wrap(a, width)
    bbits = to_bits(wrap(b, width), width)

    def bit(i):
        if i < 0:
            return 0
        if i >= width:
            return bbits[width - 1]      # sign extension
        return bbits[i]

    acc = 0
    for i in range((width + 1) // 2):
        triple = (bit(2 * i + 1), bit(2 * i), bit(2 * i - 1))
        digit = {(0, 0, 0): 0, (0, 0, 1): 1, (0, 1, 0): 1, (0, 1, 1): 2,
                 (1, 0, 0): -2, (1, 0, 1): -1, (1, 1, 0): -1,
                 (1, 1, 1): 0}[triple]
        acc += digit * (a << (2 * i))
    return wrap(acc, 2 * width)


def golden_mac(a, b, c, width):
    """``wrap(a*b + c)`` over ``2*width`` bits via the golden product."""
    prod = golden_multiply(a, b, width)
    return wrap(prod + wrap(c, 2 * width), 2 * width)


def golden_descale(value, bits):
    """Round-to-nearest removal of a fixed-point scale (arithmetic shift).

    Mirrors :func:`repro.rtl.dct.descale` on scalars: add half an LSB,
    then shift right (floor division for negatives).
    """
    if bits == 0:
        return int(value)
    return (int(value) + (1 << (bits - 1))) >> bits


def golden_fir(taps, signal, coeff_bits, align_bits):
    """Direct-form FIR over Python ints, one tap product at a time.

    Matches :class:`repro.rtl.fir.FixedPointFIR` with exact arithmetic:
    each product is computed at the aligned coefficient scale and
    descaled *before* accumulation (the hardware's product register
    takes the top slice), so rounding happens in the same place.
    """
    taps = [int(t) for t in taps]
    signal = [int(s) for s in signal]
    n_taps = len(taps)
    out = []
    for n in range(len(signal)):
        acc = 0
        for k, tap in enumerate(taps):
            # tap k multiplies the sample k steps back in time
            idx = n - (n_taps - 1 - k)
            sample = signal[idx] if idx >= 0 else 0
            prod = (tap << align_bits) * sample
            acc += golden_descale(prod, coeff_bits + align_bits)
        out.append(acc)
    return out


def golden_transform_1d(row, coeffs, coeff_bits, align_bits):
    """One 1-D pass of the fixed-point DCT/IDCT datapath.

    ``coeffs`` is the integer coefficient matrix (rows select outputs);
    every product is descaled before the accumulation, matching
    :meth:`repro.rtl.dct.FixedPointTransform8._apply_matrix` with exact
    arithmetic.
    """
    out = []
    for k in range(len(coeffs)):
        acc = 0
        for n, sample in enumerate(row):
            prod = (int(coeffs[k][n]) << align_bits) * int(sample)
            acc += golden_descale(prod, coeff_bits + align_bits)
        out.append(acc)
    return out


def golden_dct_2d(block, coeffs, coeff_bits, align_bits, inverse=False):
    """2-D fixed-point DCT/IDCT of one 8x8 block.

    Pass order matches :class:`repro.rtl.dct.FixedPointTransform8`
    exactly — rows then columns for the forward transform, columns then
    rows for the inverse — because the per-product rounding makes the
    two orders differ by an LSB here and there.
    """
    mat = [[int(coeffs[j][i]) for j in range(len(coeffs))]
           for i in range(len(coeffs))] if inverse else \
          [[int(v) for v in row] for row in coeffs]

    def pass_rows(data):
        return [golden_transform_1d(row, mat, coeff_bits, align_bits)
                for row in data]

    def pass_cols(data):
        done = pass_rows([list(col) for col in zip(*data)])
        return [list(row) for row in zip(*done)]

    if inverse:
        return pass_rows(pass_cols(block))
    return pass_cols(pass_rows(block))


# ---------------------------------------------------------------------------
# component dispatch
# ---------------------------------------------------------------------------

#: component families implementing ``wrap(a + b)``
ADDER_FAMILIES = ("adder", "rca", "ksa", "csel", "cskip")
#: component families implementing the exact signed product
MULTIPLIER_FAMILIES = ("multiplier", "array_multiplier")
#: families with a dedicated recoding-level golden model
BOOTH_FAMILIES = ("booth",)
MAC_FAMILIES = ("mac",)


def golden_model(component):
    """Return the pure-Python golden function of *component*.

    The returned callable takes one Python int per operand and returns
    the signed result at the component's configured precision (operand
    LSBs are truncated exactly as the netlist ties them to 0).

    Raises
    ------
    KeyError
        For component families without a golden model.
    """
    family = component.family
    width = component.width
    if family in ADDER_FAMILIES:
        def model(a, b):
            a, b = _truncated(component, (a, b))
            return golden_add(a, b, width)
    elif family in MULTIPLIER_FAMILIES:
        def model(a, b):
            a, b = _truncated(component, (a, b))
            return golden_multiply(a, b, width)
    elif family in BOOTH_FAMILIES:
        def model(a, b):
            a, b = _truncated(component, (a, b))
            return golden_booth_multiply(a, b, width)
    elif family in MAC_FAMILIES:
        def model(a, b, c):
            a, b, c = _truncated(component, (a, b, c))
            return golden_mac(a, b, c, width)
    else:
        raise KeyError("no golden model for component family %r" % family)
    model.__name__ = "golden_%s_w%d_p%d" % (family, width,
                                            component.precision)
    return model


@dataclass
class GoldenMismatch:
    """One operand tuple where the three models disagree."""

    component: str
    operands: List[int]
    golden: int
    arithmetic: int
    netlist: int

    def describe(self):
        parts = ["%s(%s): golden=%d arithmetic=%d"
                 % (self.component, ", ".join(str(o) for o in self.operands),
                    self.golden, self.arithmetic)]
        if self.netlist is not None:
            parts.append("netlist=%d" % self.netlist)
        return " ".join(parts)


def check_golden(component, library=None, vectors=64, rng=None,
                 effort="high", netlist=None):
    """Diff golden model vs arithmetic model vs (optional) netlist.

    Parameters
    ----------
    component:
        The RTL component (at any precision).
    library:
        Cell library; when given (or *netlist* is passed) the synthesized
        netlist is simulated and included in the three-way diff.
    vectors:
        Number of random operand tuples (corner cases are always added).
    rng:
        NumPy RNG or seed for the random operands.
    effort:
        Synthesis effort when the netlist must be built here.
    netlist:
        Pre-synthesized netlist of *component* (skips synthesis).

    Returns
    -------
    list of GoldenMismatch
        Empty when all models agree on every probed operand tuple.
    """
    import numpy as np

    from ..sim.activity import operand_stream_bits
    from ..sim.logic import bits_to_int, compile_netlist, evaluate

    rng = np.random.default_rng(rng)
    operands = component.random_operands(vectors, rng=rng)
    # Corner rows: all-extreme combinations plus zero.
    corners = []
    for opwidth in component.operand_widths:
        lo = -(1 << (opwidth - 1))
        hi = (1 << (opwidth - 1)) - 1
        corners.append([lo, hi, -1, 0, 1, lo, hi])
    corner_rows = [[col[i] for col in corners]
                   for i in range(len(corners[0]))]
    columns = [np.concatenate([np.asarray(op, dtype=np.int64),
                               np.array([row[j] for row in corner_rows],
                                        dtype=np.int64)])
               for j, op in enumerate(operands)]

    model = golden_model(component)
    arithmetic = np.asarray(component.approximate(*columns), dtype=np.int64)

    net_values = None
    if netlist is None and library is not None:
        from ..synth.synthesize import synthesize_netlist
        netlist = synthesize_netlist(component, library, effort=effort)
    if netlist is not None and library is not None:
        bits = operand_stream_bits(columns, component.operand_widths)
        out = evaluate(compile_netlist(netlist, library, memo=False), bits)
        net_values = bits_to_int(out)

    mismatches = []
    for i in range(len(columns[0])):
        ops = [int(col[i]) for col in columns]
        gold = model(*ops)
        arith = int(arithmetic[i])
        net = int(net_values[i]) if net_values is not None else None
        if gold != arith or (net is not None and net != gold):
            mismatches.append(GoldenMismatch(
                component=component.name, operands=ops, golden=gold,
                arithmetic=arith, netlist=net))
    return mismatches
