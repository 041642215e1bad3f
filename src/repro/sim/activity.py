"""Switching-activity and signal-probability extraction.

Runs a (functional, fast) gate-level simulation of a netlist under a
stimulus stream and reduces the per-net waveforms to the statistics the
aging flow needs:

* **signal probability** ``P(net = 1)`` — determines actual-case BTI
  stress factors (Fig. 3(c) of the paper),
* **toggle rate** (transitions per applied vector) — drives the dynamic
  power model.
"""

import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..aging.stress import ActualStress
from ..obs import logs, metrics as obs_metrics, trace as obs_trace
from . import bitpack
from .logic import (all_net_values_packed, check_pi_bits, compile_netlist,
                    int_to_bits)

_log = logs.get_logger("sim.activity")


@dataclass
class ActivityReport:
    """Per-net statistics of one simulated stimulus stream.

    Attributes
    ----------
    signal_probability:
        Map net id -> fraction of vectors where the net is 1.
    toggle_rate:
        Map net id -> transitions per consecutive vector pair.
    vectors:
        Number of stimulus vectors simulated.
    """

    signal_probability: Dict[int, float]
    toggle_rate: Dict[int, float]
    vectors: int

    @classmethod
    def from_slots(cls, compiled, p1, toggles, vectors):
        """Report of per-slot statistics, keyed by *compiled*'s net ids."""
        return cls(signal_probability={net: float(p1[slot]) for net, slot
                                       in compiled.slot_of.items()},
                   toggle_rate={net: float(toggles[slot]) for net, slot
                                in compiled.slot_of.items()},
                   vectors=int(vectors))

    def gate_output_toggle(self, netlist):
        """Toggle rate of each gate's output net, keyed by gate uid."""
        return {g.uid: self.toggle_rate.get(g.output, 0.0)
                for g in netlist.gates}


def _packed_statistics(compiled, pi_bits):
    """Popcount statistics over packed words — internal nets never
    unpack.

    Per-slot ones counts come from ``popcount(w & valid)``; toggle
    counts from ``popcount((w ^ (w << 1 | carry)) & valid')`` where the
    1-bit shift across word boundaries aligns each vector with its
    predecessor and ``valid'`` additionally drops bit 0 of word 0 (the
    first vector has no predecessor).
    """
    batch = pi_bits.shape[0]
    values = all_net_values_packed(compiled, pi_bits)  # (slots, words)
    slots, words = values.shape
    valid = np.full(words, bitpack.ALL_ONES, dtype=np.uint64)
    valid[-1] = bitpack.tail_mask(batch)
    valid[0] &= ~np.uint64(1)  # the first vector has no predecessor
    ones = np.zeros(slots, dtype=np.int64)
    flips = np.zeros(slots, dtype=np.int64)
    # Reduce in slot blocks so the shift/XOR temporaries stay a small
    # fraction of the packed matrix itself (the matrix dominates peak).
    block = max(1, (1 << 21) // max(words * 8, 1))
    for lo in range(0, slots, block):
        chunk = values[lo:lo + block]
        # Tail bits beyond the batch are masked in the last word only.
        ones[lo:lo + block] = bitpack.popcount(chunk[:, :-1]).sum(
            axis=1, dtype=np.int64)
        ones[lo:lo + block] += bitpack.popcount(
            chunk[:, -1] & bitpack.tail_mask(batch))
        if batch > 1:
            # Bit i of `shifted` becomes v[i] ^ v[i-1]: shift the
            # stream up by one (carrying bit 63 across words) and XOR.
            shifted = chunk << np.uint64(1)
            if words > 1:
                shifted[:, 1:] |= chunk[:, :-1] >> np.uint64(63)
            shifted ^= chunk
            shifted &= valid
            flips[lo:lo + block] = bitpack.popcount(shifted).sum(
                axis=1, dtype=np.int64)
    p1 = ones / float(batch)
    toggles = (flips / float(batch - 1) if batch > 1
               else np.zeros(slots))
    return p1, toggles


def simulate_activity(netlist, library, pi_bits):
    """Measure signal probabilities and toggle rates under *pi_bits*.

    Parameters
    ----------
    netlist, library:
        Design and cell library.
    pi_bits:
        ``(vectors, n_pi)`` bit array; rows are applied as a time
        sequence, so toggle rates reflect consecutive-vector transitions.

    Runs the 64-way bit-parallel engine and reduces by popcount; the
    ``uint8`` byte engine is the :func:`repro.verify.simulate_activity_bytes`
    oracle, bit-identical by test.
    """
    compiled = compile_netlist(netlist, library)
    pi_bits = check_pi_bits(compiled, pi_bits)
    vectors = int(pi_bits.shape[0])
    start = time.perf_counter()
    with obs_trace.span("sim.activity", design=netlist.name,
                        vectors=vectors, nets=compiled.slots):
        if vectors == 0:
            p1 = np.zeros(compiled.slots)
            toggles = np.zeros(compiled.slots)
        else:
            p1, toggles = _packed_statistics(compiled, pi_bits)
    elapsed = time.perf_counter() - start
    obs_metrics.inc(obs_metrics.SIM_RUNS)
    obs_metrics.inc(obs_metrics.SIM_VECTORS, vectors)
    if elapsed > 0 and vectors:
        obs_metrics.set_gauge(obs_metrics.SIM_VECTORS_PER_SEC,
                              vectors / elapsed)
    _log.debug("simulated %d vectors over %d nets (%.1f ms)",
               vectors, compiled.slots, elapsed * 1e3)
    return ActivityReport.from_slots(compiled, p1, toggles, vectors)


def extract_stress(netlist, library, pi_bits, label="actual"):
    """One-call helper: simulate activity and build an actual-case
    :class:`~repro.aging.stress.ActualStress` annotation (Fig. 3(c))."""
    with obs_trace.span("stress.extract", design=netlist.name,
                        label=label):
        report = simulate_activity(netlist, library, pi_bits)
        annotation = ActualStress.from_signal_probabilities(
            netlist, report.signal_probability, label=label)
    obs_metrics.inc(obs_metrics.STRESS_EXTRACTIONS)
    return annotation


def operand_stream_bits(operands, widths):
    """Pack per-operand integer streams into a PI bit matrix.

    Parameters
    ----------
    operands:
        Sequence of integer arrays, one per operand, equal lengths.
    widths:
        Bit width of each operand; concatenated in order (operand 0's
        LSB is PI 0), matching the RTL component generators' PI layout.
    """
    if len(operands) != len(widths):
        raise ValueError("need one width per operand")
    parts = [int_to_bits(np.asarray(vals), width)
             for vals, width in zip(operands, widths)]
    return np.concatenate(parts, axis=1)


def operand_stream_words(operands, widths):
    """Packed twin of :func:`operand_stream_bits`: ``(n_pi, words)``.

    Each operand is encoded straight into packed rows
    (:func:`repro.sim.bitpack.pack_ints`), in the same PI order, ready
    for :func:`repro.sim.logic.evaluate_words`.
    """
    if len(operands) != len(widths):
        raise ValueError("need one width per operand")
    return np.concatenate([bitpack.pack_ints(vals, width)
                           for vals, width in zip(operands, widths)])
