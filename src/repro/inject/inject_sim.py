"""Fault-injecting twins of the :mod:`repro.sim.logic` evaluators.

Injection is an XOR on a gate's freshly computed output before any
reader consumes it: downstream gates then propagate (or logically mask)
the corrupted value exactly as real silicon would. The packed variant
(the *op_masks* of the packed op loop: a full replay with
:func:`repro.sim.logic.evaluate_words`, or the cone replay campaigns
run with :func:`repro.sim.logic.replay_words`) flips 64 vectors per
word per mask word — this is what makes campaign throughput of
millions of injected vectors per second possible — while the scalar
uint8 variant is the slow reference the property tests compare against
bit-for-bit.

Masks address ops by *row*: the index into ``compiled.ops``, which is
also the row in :class:`repro.sta.engine.TimingProgram` (both orders
come from ``netlist.topological_gates()``;
:func:`check_alignment` asserts it via gate uids).
"""

import numpy as np

from ..sim import bitpack
from ..sim.logic import evaluate, evaluate_packed


def check_alignment(compiled, program):
    """Assert sim ops and STA rows describe the same gate order."""
    sim_uids = [op[3] for op in compiled.ops]
    sta_uids = np.asarray(program.gate_uids).tolist()
    if sim_uids != sta_uids:
        raise AssertionError(
            "compiled netlist and timing program disagree on gate order "
            "(%d vs %d gates)" % (len(sim_uids), len(sta_uids)))


def evaluate_packed_injected(compiled, pi_bits, op_masks, release=True):
    """:func:`repro.sim.logic.evaluate_packed` with XOR fault masks.

    *op_masks* maps op row -> ``(words,)`` uint64 fault mask. With an
    empty mapping this is bit-identical to the clean evaluator. A
    bit-matrix wrapper of :func:`repro.sim.logic.evaluate_words`.
    """
    return evaluate_packed(compiled, pi_bits, release=release,
                           op_masks=op_masks)


def evaluate_bytes_injected(compiled, pi_bits, op_mask_bits):
    """Scalar uint8 reference injector (one byte per vector per net).

    *op_mask_bits* maps op row -> ``(batch,)`` uint8 0/1 flip flags —
    the unpacked form of the packed masks (:func:`unpack_op_masks`).
    Exists purely as the independent oracle for the packed injector:
    the byte engine (:func:`repro.sim.logic.evaluate`) with flips.
    """
    return evaluate(compiled, pi_bits, op_mask_bits=op_mask_bits)


def unpack_op_masks(op_masks, batch):
    """Unpack ``{row: packed words}`` masks to ``{row: (batch,) uint8}``."""
    return {row: bitpack.unpack_bits(
        np.asarray(mask, dtype=np.uint64)[None, :], batch)[:, 0]
        for row, mask in op_masks.items()}


def count_mask_bits(op_masks, batch):
    """``(injected_faults, faulted_vectors)`` over valid (< batch) lanes.

    ``injected_faults`` sums flips across all masked gates;
    ``faulted_vectors`` counts vectors with at least one flip anywhere
    (popcount of the OR across masks). Tail bits beyond *batch* are
    masked off — mask generation is word-granular and does not know
    the batch size.
    """
    if not op_masks:
        return 0, 0
    valid = None
    injected = 0
    union = None
    for mask in op_masks.values():
        mask = np.asarray(mask, dtype=np.uint64)
        if valid is None:
            valid = np.full(mask.shape[0], bitpack.ALL_ONES, dtype=np.uint64)
            valid[-1] = bitpack.tail_mask(batch)
            union = np.zeros(mask.shape[0], dtype=np.uint64)
        live = mask & valid
        injected += int(bitpack.popcount(live).sum())
        union |= live
    return injected, int(bitpack.popcount(union).sum())
