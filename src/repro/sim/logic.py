"""Vectorized functional gate-level simulation.

Netlists are compiled once into a flat "program" (a topologically ordered
list of cell-function applications over integer-indexed value slots) and
then evaluated over a whole batch of input vectors at once. This is what
makes million-vector experiments (the paper applies 10^6 stimuli to the
adder/multiplier) tractable in Python.

Two engines share the compiled program:

* the **bytes** engine (:func:`evaluate` / :func:`all_net_values`)
  stores one simulated bit per ``uint8`` byte — the simple reference
  implementation;
* the **packed** engine packs 64 vectors per ``uint64`` word
  (:mod:`repro.sim.bitpack`) and pushes each batch through full-word
  bitwise kernels — 64 vectors per gate-op, an 8th of the memory
  traffic. Its core :func:`evaluate_words` takes packed PI words (and
  optional XOR fault masks) and returns packed PO words;
  :func:`evaluate_packed` wraps it for byte-matrix callers. A faulty
  evaluation need not re-run the whole program: :func:`replay_words`
  re-runs only the fan-out cone of the masked ops, over the frontier
  slots (:func:`cone_frontier`) a clean evaluation kept, through the
  same op loop.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..netlist.net import CONST0, CONST1
from . import bitpack


@dataclass
class CompiledNetlist:
    """A netlist lowered to a flat evaluation program.

    Attributes
    ----------
    netlist:
        The source netlist (kept for metadata).
    slots:
        Number of value slots (dense re-indexing of net ids).
    slot_of:
        Map net id -> slot index.
    ops:
        ``(function, input_slots, output_slot, gate_uid)`` in topological
        order.
    pi_slots / po_slots:
        Slot indices of primary inputs / outputs in declaration order.
    last_use:
        For each op index, the list of slots that become dead after it —
        used to release batch memory early.
    packed_funcs:
        Per-op full-word kernels (``uint64`` bitwise forms of the byte
        functions in ``ops``), aligned with ``ops``; used by the packed
        engine.
    """

    netlist: object
    slots: int
    slot_of: dict
    ops: List[Tuple]
    pi_slots: List[int]
    po_slots: List[int]
    last_use: List[List[int]]
    packed_funcs: List = None


#: Per-netlist memo bound (several libraries may compile one netlist).
_COMPILE_MEMO_LIMIT = 8


def compile_netlist(netlist, library, memo=True):
    """Lower *netlist* into a :class:`CompiledNetlist` program.

    The lowering is memoized on the netlist instance (keyed by the
    library's content fingerprint and the netlist *contents*: interface
    nets plus every gate's cell/pins), so the activity extractor and the
    timed simulator share one compiled program instead of lowering the
    same netlist twice — while any mutation, including in-place gate
    edits that bypass ``rebuild``/``add_gate`` (e.g. assigning
    ``gate.cell`` directly), changes the key and recompiles. Pass
    ``memo=False`` to force a fresh lowering.
    """
    if not memo:
        return _compile_netlist(netlist, library)
    # A mutation counter would be cheaper than the content token but
    # misses in-place gate mutations; building the token is O(gates),
    # the same order as one evaluate() row.
    from ..core.cache import compile_token

    token = compile_token(netlist, library)
    cache = getattr(netlist, "_compiled_memo", None)
    if cache is None:
        cache = {}
        netlist._compiled_memo = cache
    compiled = cache.get(token)
    if compiled is None:
        if len(cache) >= _COMPILE_MEMO_LIMIT:
            # Evict the least recently used entry only; hits below
            # refresh an entry's insertion order.
            cache.pop(next(iter(cache)))
        compiled = _compile_netlist(netlist, library)
        cache[token] = compiled
    else:
        cache[token] = cache.pop(token)
    return compiled


def _compile_netlist(netlist, library):
    order = netlist.topological_gates()
    slot_of = {CONST0: 0, CONST1: 1}
    for net in netlist.primary_inputs:
        slot_of.setdefault(net, len(slot_of))
    for gate in order:
        slot_of.setdefault(gate.output, len(slot_of))

    ops = []
    packed_funcs = []
    for gate in order:
        cell = library[gate.cell]
        func = cell.function
        ins = tuple(slot_of[n] for n in gate.inputs)
        ops.append((func, ins, slot_of[gate.output], gate.uid))
        packed_funcs.append(bitpack.packed_cell_function(
            cell.kind, arity=cell.n_inputs, reference=func))

    pi_slots = [slot_of[n] for n in netlist.primary_inputs]
    po_slots = [slot_of[n] for n in netlist.primary_outputs]

    # Liveness: a slot dies after its last reading op, unless it is a PO
    # (or a constant / PI, which callers may inspect afterwards).
    keep = set(po_slots) | {0, 1} | set(pi_slots)
    last_reader = {}
    for idx, (__, ins, out, __uid) in enumerate(ops):
        for slot in ins:
            last_reader[slot] = idx
    last_use = [[] for __ in ops]
    for slot, idx in last_reader.items():
        if slot not in keep:
            last_use[idx].append(slot)
    return CompiledNetlist(netlist=netlist, slots=len(slot_of),
                           slot_of=slot_of, ops=ops, pi_slots=pi_slots,
                           po_slots=po_slots, last_use=last_use,
                           packed_funcs=packed_funcs)


def check_pi_bits(compiled, pi_bits):
    """*pi_bits* as ``uint8``, checked to be ``(batch, n_pi)``."""
    pi_bits = np.asarray(pi_bits, dtype=np.uint8)
    if pi_bits.ndim != 2 or pi_bits.shape[1] != len(compiled.pi_slots):
        raise ValueError(
            "expected pi_bits of shape (batch, %d), got %r"
            % (len(compiled.pi_slots), pi_bits.shape))
    return pi_bits


def evaluate(compiled, pi_bits, release=True, op_mask_bits=None):
    """Evaluate a compiled netlist on a batch of input vectors.

    Parameters
    ----------
    compiled:
        :class:`CompiledNetlist` from :func:`compile_netlist`.
    pi_bits:
        ``uint8`` array of shape ``(batch, n_primary_inputs)`` holding
        one bit per input, in the netlist's PI order.
    release:
        Free dead intermediate arrays eagerly (bounds peak memory).
    op_mask_bits:
        Optional op row -> ``(batch,)`` ``uint8`` 0/1 flip flags (the
        scalar reference of fault injection).

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of shape ``(batch, n_primary_outputs)``.
    """
    pi_bits = check_pi_bits(compiled, pi_bits)
    batch = pi_bits.shape[0]
    values = [None] * compiled.slots
    values[0] = np.zeros(batch, dtype=np.uint8)
    values[1] = np.ones(batch, dtype=np.uint8)
    for col, slot in enumerate(compiled.pi_slots):
        values[slot] = np.ascontiguousarray(pi_bits[:, col])
    # The reference keeps its own loop, apart from the packed engine's
    # _run_ops, so a fault there cannot hide in both engines at once.
    flips = op_mask_bits or {}
    for idx, (func, ins, out, __uid) in enumerate(compiled.ops):
        value = func(*[values[s] for s in ins])
        values[out] = value ^ flips[idx] if idx in flips else value
        if release:
            for slot in compiled.last_use[idx]:
                values[slot] = None
    outs = np.empty((batch, len(compiled.po_slots)), dtype=np.uint8)
    for col, slot in enumerate(compiled.po_slots):
        outs[:, col] = values[slot]
    return outs


def all_net_values(compiled, pi_bits):
    """Evaluate and return the values of *every* net.

    Returns a ``(batch, slots)`` uint8 array (column ``s`` is slot
    ``s``); used by activity extraction's reference, which needs
    internal nets.
    """
    pi_bits = check_pi_bits(compiled, pi_bits)
    values = np.zeros((compiled.slots, pi_bits.shape[0]), dtype=np.uint8)
    values[1] = 1
    values[compiled.pi_slots] = pi_bits.T
    for func, ins, out, __uid in compiled.ops:
        values[out] = func(*[values[s] for s in ins])
    return values.T


# ---------------------------------------------------------------------------
# packed (64-way) engine
# ---------------------------------------------------------------------------

def evaluate_words(compiled, pi_words, op_masks=None, release=True,
                   keep=None):
    """The packed evaluator core: packed PI words in, packed PO words out.

    *pi_words* is ``(n_pi, words)`` ``uint64`` in the
    :mod:`repro.sim.bitpack` layout (e.g. from
    :func:`repro.sim.bitpack.pack_ints`); the result is ``(n_po,
    words)``, decoded with :func:`repro.sim.bitpack.unpack_ints` or
    :func:`repro.sim.bitpack.unpack_bits`. *op_masks* optionally maps
    op row -> ``(words,)`` ``uint64`` XOR fault mask applied to that
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
    """The gate-output slots that op *rows* read but none of them
    writes: what :func:`replay_words` needs from a clean evaluation
    beyond the rails and primary inputs."""
    ops = compiled.ops
    inputs = {0, 1}.union(compiled.pi_slots)
    read = {slot for row in rows for slot in ops[row][1]}
    return read - inputs - {ops[row][2] for row in rows}


def replay_words(compiled, pi_words, kept, rows, op_masks, clean_outs):
    """PO words of a faulty evaluation that re-runs only op *rows*.

    *rows* must hold every masked op and be closed under fan-out, in
    topological order (e.g. :func:`repro.sta.engine.fanout_rows`, whose
    rows equal op rows). *kept* maps at least the
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
    written = {compiled.ops[row][2] for row in rows}
    outs = clean_outs.copy()
    for row, slot in enumerate(compiled.po_slots):
        if slot in written:
            outs[row] = values[slot]
    return outs


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

    Takes and returns the same byte-wide arrays as :func:`evaluate`
    (``(batch, n_pi)`` in, ``(batch, n_po)`` out) and is bit-identical
    to it; internally it packs, runs the packed core and unpacks.
    """
    pi_bits = check_pi_bits(compiled, pi_bits)
    outs = evaluate_words(compiled, bitpack.pack_bits(pi_bits), op_masks,
                          release)
    return bitpack.unpack_bits(outs, pi_bits.shape[0])


def all_net_values_packed(compiled, pi_bits):
    """Packed twin of :func:`all_net_values`.

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
    """The packed engine's one op loop: apply each op's full-word
    kernel, in topological order, to *values* (by slot).

    *values* is a list of per-slot word arrays or a ``(slots, words)``
    matrix (rows assigned in place; *release* needs the list form).
    *masks* maps op row -> XOR mask applied to that op's output before
    any reader consumes it (fault injection). *rows* restricts the loop
    to those op rows (ascending; default every op) and *release* frees
    no slot in *keep*.
    """
    ops = compiled.ops
    funcs = compiled.packed_funcs
    for idx in range(len(ops)) if rows is None else rows:
        __func, ins, out, __uid = ops[idx]
        value = funcs[idx](*[values[s] for s in ins])
        if masks and idx in masks:
            value = value ^ masks[idx]
        values[out] = value
        if release:
            for slot in compiled.last_use[idx]:
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
