"""Packed functional gate-level simulation on the netlist's timing program.

A netlist is lowered once, by :func:`repro.sta.engine.compile_timing`.
:func:`compile_netlist` reads that
:class:`~repro.sta.engine.TimingProgram` as a flat evaluation program
(:class:`CompiledNetlist`): the same dense value slots and gate rows,
each row applying its cell's full-word kernel. Row ``i`` of the
simulator is row ``i`` of the timing program, so STA rows (faultloads,
fan-out cones) address simulator rows directly. This is what makes
million-vector experiments (the paper applies 10^6 stimuli to the
adder/multiplier) tractable in Python.

The engine packs 64 vectors per ``uint64`` word
(:mod:`repro.sim.bitpack`) and pushes each batch through full-word
bitwise kernels — 64 vectors per gate row. Its core
:func:`evaluate_words` takes packed PI words (and optional XOR fault
masks) and returns packed PO words; :func:`evaluate_packed` wraps it
for byte-matrix callers. A faulty evaluation need not re-run the whole
program: :func:`replay_words` re-runs only the fan-out cone of the
masked rows, over the frontier slots (:func:`cone_frontier`) a clean
evaluation kept, through the same row loop.

The one-byte-per-vector reference engine that checks this one lives in
:mod:`repro.verify.reference_sim`.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..netlist.netlist import pin_tuples
from ..sta.engine import compile_timing
from . import bitpack


@dataclass
class CompiledNetlist:
    """A netlist's :class:`~repro.sta.engine.TimingProgram` read as a
    flat evaluation program.

    Row ``i`` is row ``i`` of ``program``: gate ``uids[i]``, an
    instance of ``cells[i]``, reads slots ``ins[i]`` (one per pin) and
    writes slot ``outs[i]`` through the full-word kernel
    ``kernels[i]``. Slots are the program's (``slot_of`` maps net id ->
    slot); ``pi_slots`` / ``po_slots`` are the interface slots in
    declaration order and ``last_use[i]`` the slots that die after row
    ``i`` (never a rail, primary input or output), so an evaluator can
    release batch memory early. All are plain Python lists, so the row
    loop reads no NumPy scalars.
    """

    program: object
    slots: int
    slot_of: dict
    uids: List[int]
    cells: List
    ins: List[Tuple[int, ...]]
    outs: List[int]
    kernels: List
    pi_slots: List[int]
    po_slots: List[int]
    last_use: List[List[int]]

    @property
    def netlist(self):
        """The source netlist (kept for metadata)."""
        return self.program.netlist


def compile_netlist(netlist, library, memo=True):
    """The :class:`CompiledNetlist` of *netlist* under *library*.

    Derived from :func:`repro.sta.engine.compile_timing` and memoized on
    the timing program it returns, so simulation and STA share one
    lowering and one memo (content token + library fingerprint): any
    mutation, including in-place gate edits that bypass
    ``rebuild``/``add_gate`` (e.g. assigning ``gate.cell`` directly),
    recompiles both. Pass ``memo=False`` for a fresh lowering and a
    fresh program.
    """
    program = compile_timing(netlist, library, memo=memo)
    if not memo:
        return _derive(program)
    compiled = program.__dict__.get("_compiled")
    if compiled is None:
        compiled = program._compiled = _derive(program)
    return compiled


def _derive(program):
    """Read *program* as a :class:`CompiledNetlist`: kernels per
    distinct cell, pins from the level schedule, liveness from the
    arrays."""
    cells = program.cells
    index = program.cell_index.tolist()
    kernels = [bitpack.packed_cell_function(cell.kind, arity=cell.n_inputs,
                                            reference=cell.function)
               for cell in cells]
    n = program.n_gates
    arity = np.asarray([cell.n_inputs for cell in cells],
                       dtype=np.int64)[program.cell_index]
    ins = np.zeros((n, 3), dtype=np.int64)
    for level in program.levels:
        ins[level.rows, :level.in_slots.shape[1]] = level.in_slots

    # Liveness: a slot dies after its last reading row, unless it is a
    # rail, a PI or a PO (callers may inspect those afterwards).
    rows, pins = np.nonzero(np.arange(3)[None, :] < arity[:, None])
    last = np.full(program.slots, -1, dtype=np.int64)
    np.maximum.at(last, ins[rows, pins], rows)
    last[:2] = -1
    last[program.pi_slots] = -1
    last[program.po_slots] = -1
    dead = np.flatnonzero(last >= 0)
    last_use = [[] for __ in range(n)]
    for slot, row in zip(dead.tolist(), last[dead].tolist()):
        last_use[row].append(slot)
    return CompiledNetlist(
        program=program, slots=program.slots, slot_of=program.slot_of,
        uids=program.gate_uids.tolist(), cells=[cells[i] for i in index],
        ins=pin_tuples(ins, arity), outs=program.out_slots.tolist(),
        kernels=[kernels[i] for i in index],
        pi_slots=program.pi_slots.tolist(),
        po_slots=program.po_slots.tolist(), last_use=last_use)


def check_pi_bits(compiled, pi_bits):
    """*pi_bits* as ``uint8``, checked to be ``(batch, n_pi)``."""
    pi_bits = np.asarray(pi_bits, dtype=np.uint8)
    if pi_bits.ndim != 2 or pi_bits.shape[1] != len(compiled.pi_slots):
        raise ValueError(
            "expected pi_bits of shape (batch, %d), got %r"
            % (len(compiled.pi_slots), pi_bits.shape))
    return pi_bits


def evaluate_words(compiled, pi_words, op_masks=None, release=True,
                   keep=None):
    """The packed evaluator core: packed PI words in, packed PO words out.

    *pi_words* is ``(n_pi, words)`` ``uint64`` in the
    :mod:`repro.sim.bitpack` layout (e.g. from
    :func:`repro.sim.bitpack.pack_ints`); the result is ``(n_po,
    words)``, decoded with :func:`repro.sim.bitpack.unpack_ints` or
    :func:`repro.sim.bitpack.unpack_bits`. *op_masks* optionally maps
    row -> ``(words,)`` ``uint64`` XOR fault mask applied to that
    gate's output before any reader consumes it (see
    :mod:`repro.inject.inject_sim`); without masks this is the clean
    evaluation. With a *keep* set of slots the result is ``(PO words,
    {slot: words})``: those slots are exempt from *release* and
    returned, e.g. the frontier a later :func:`replay_words` reads.
    """
    values = _input_values(compiled, pi_words)
    _run_ops(compiled, values, op_masks, release, keep=keep or ())
    outs = np.empty((len(compiled.po_slots), values[0].shape[0]),
                    dtype=np.uint64)
    for row, slot in enumerate(compiled.po_slots):
        outs[row] = values[slot]
    if keep is None:
        return outs
    return outs, {slot: values[slot] for slot in keep}


def cone_frontier(compiled, rows):
    """The gate-output slots that *rows* read but none of them writes:
    what :func:`replay_words` needs from a clean evaluation beyond the
    rails and primary inputs."""
    ins = compiled.ins
    outs = compiled.outs
    read = {slot for row in rows for slot in ins[row]}
    return (read - {0, 1} - set(compiled.pi_slots)
            - {outs[row] for row in rows})


def replay_words(compiled, pi_words, kept, rows, op_masks, clean_outs):
    """PO words of a faulty evaluation that re-runs only *rows*.

    *rows* must hold every masked row and be closed under fan-out, in
    topological order (e.g. :func:`repro.sta.engine.fanout_rows`, whose
    rows are simulator rows). *kept* maps at least the
    :func:`cone_frontier` slots of *rows* to their clean words and
    *clean_outs* holds the clean PO words (both from
    ``evaluate_words(..., keep=...)``). A slot outside *rows* reads
    unchanged inputs, so copying *clean_outs* and splicing in the PO
    rows the replay writes equals
    ``evaluate_words(compiled, pi_words, op_masks)`` bit for bit.
    """
    values = _input_values(compiled, pi_words)
    for slot, words in kept.items():
        values[slot] = words
    # Every reader of a slot the rows write is in the rows (fan-out
    # closure), so releasing at last use frees no value a row needs.
    _run_ops(compiled, values, op_masks, release=True, rows=rows)
    outs = compiled.outs
    written = {outs[row] for row in rows}
    result = clean_outs.copy()
    for row, slot in enumerate(compiled.po_slots):
        if slot in written:
            result[row] = values[slot]
    return result


def _input_values(compiled, pi_words):
    """Per-slot value list holding the rails and the packed PI rows."""
    pi_words = np.asarray(pi_words, dtype=np.uint64)
    if pi_words.ndim != 2 or pi_words.shape[0] != len(compiled.pi_slots):
        raise ValueError(
            "expected pi_words of shape (%d, words), got %r"
            % (len(compiled.pi_slots), pi_words.shape))
    words = pi_words.shape[1]
    values = [None] * compiled.slots
    values[0] = np.zeros(words, dtype=np.uint64)
    values[1] = np.full(words, bitpack.ALL_ONES, dtype=np.uint64)
    for row, slot in enumerate(compiled.pi_slots):
        values[slot] = pi_words[row]
    return values


def evaluate_packed(compiled, pi_bits, release=True, op_masks=None):
    """Bit-matrix wrapper of :func:`evaluate_words` (64 vectors per word).

    Takes ``(batch, n_pi)`` ``uint8`` bits and returns ``(batch,
    n_po)``; internally it packs, runs the packed core (with the XOR
    fault *op_masks*, if any) and unpacks.
    """
    pi_bits = check_pi_bits(compiled, pi_bits)
    outs = evaluate_words(compiled, bitpack.pack_bits(pi_bits), op_masks,
                          release)
    return bitpack.unpack_bits(outs, pi_bits.shape[0])


def all_net_values_packed(compiled, pi_bits):
    """The packed waveform of every net.

    Returns a ``(slots, words)`` ``uint64`` array: row ``s`` is slot
    ``s``'s packed waveform (vector ``i`` at word ``i // 64``, bit
    ``i % 64``). Bits at positions ``>= batch`` in the last word are
    unspecified (the constant-1 row carries ones there) — mask with
    :func:`repro.sim.bitpack.tail_mask` before counting.
    """
    packed_pi = bitpack.pack_bits(check_pi_bits(compiled, pi_bits))
    values = np.zeros((compiled.slots, packed_pi.shape[1]), dtype=np.uint64)
    values[1] = bitpack.ALL_ONES
    values[compiled.pi_slots] = packed_pi
    _run_ops(compiled, values)
    return values


def _run_ops(compiled, values, masks=None, release=False, rows=None,
             keep=()):
    """The packed engine's one row loop: apply each row's full-word
    kernel, in topological order, to *values* (by slot).

    *values* is a list of per-slot word arrays or a ``(slots, words)``
    matrix (rows assigned in place; *release* needs the list form).
    *masks* maps row -> XOR mask applied to that row's output before
    any reader consumes it (fault injection). *rows* restricts the loop
    to those rows (ascending; default every row) and *release* frees no
    slot in *keep*.
    """
    ins = compiled.ins
    outs = compiled.outs
    kernels = compiled.kernels
    last_use = compiled.last_use
    for idx in range(len(outs)) if rows is None else rows:
        value = kernels[idx](*[values[s] for s in ins[idx]])
        if masks and idx in masks:
            value = value ^ masks[idx]
        values[outs[idx]] = value
        if release:
            for slot in last_use[idx]:
                if slot not in keep:
                    values[slot] = None


# ---------------------------------------------------------------------------
# integer <-> bit-vector codecs
# ---------------------------------------------------------------------------

def int_to_bits(values, width):
    """Encode integers as two's-complement bit vectors, LSB first.

    Parameters
    ----------
    values:
        Integer array (any signed dtype); values are taken modulo
        ``2**width``.
    width:
        Number of bits per value.

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of shape ``(len(values), width)``.
    """
    values = np.asarray(values, dtype=np.int64)
    shifts = np.arange(width, dtype=np.int64)
    return ((values.reshape(-1, 1) >> shifts) & 1).astype(np.uint8)


def bits_to_int(bits, signed=True):
    """Decode LSB-first bit vectors back to integers.

    Parameters
    ----------
    bits:
        ``(batch, width)`` array of 0/1 values.
    signed:
        Interpret the MSB as a two's-complement sign bit.
    """
    bits = np.asarray(bits, dtype=np.int64)
    width = bits.shape[1]
    shifts = np.arange(width, dtype=np.int64)
    out = np.bitwise_or.reduce(bits << shifts, axis=1)
    if signed and width < 64:
        sign = bits[:, width - 1] == 1
        out = out - (sign.astype(np.int64) << np.int64(width))
    return out
