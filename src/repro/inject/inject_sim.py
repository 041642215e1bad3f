"""Fault-mask helpers of the packed evaluator's injection path.

Injection is an XOR on a gate's freshly computed output before any
reader consumes it: downstream gates then propagate (or logically mask)
the corrupted value exactly as real silicon would. The packed engine
applies it through the *op_masks* of its row loop (a full replay with
:func:`repro.sim.logic.evaluate_words` or
:func:`repro.sim.logic.evaluate_packed`, or the cone replay campaigns
run with :func:`repro.sim.logic.replay_words`), flipping 64 vectors per
word per mask word — this is what makes campaign throughput of millions
of injected vectors per second possible. The scalar uint8 reference the
property tests compare against bit for bit is
:func:`repro.verify.reference_sim.evaluate_bytes_injected`.

Masks address gates by *row*: a simulator row is the same row of the
netlist's :class:`repro.sta.engine.TimingProgram`, because the
simulator program is derived from it
(:func:`repro.sim.logic.compile_netlist`).
"""

import numpy as np

from ..sim import bitpack


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
