"""Reference simulators: the oracles of the production engines.

* The **byte engine** (:func:`evaluate_bytes`, :func:`all_net_values`)
  runs the same :class:`~repro.sim.logic.CompiledNetlist` rows as the
  packed engine, one simulated bit per ``uint8`` byte, through each
  cell's byte-level function and its own loop, so a fault in the packed
  kernels or row loop (:mod:`repro.sim.logic`) cannot hide in both.
  :func:`evaluate_bytes_injected` adds XOR fault flips, the scalar
  reference of fault injection (:mod:`repro.inject`).
* The **event-driven simulator** (:class:`EventSimulator`) walks the
  netlist itself: a classic transport-delay event queue that reproduces
  glitches and exact per-net settle times. It is the ground truth of
  the vectorized timed simulator (:mod:`repro.sim.timing`) on small
  circuits, deliberately simple and scalar.
"""

import heapq
import itertools
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..aging.bti import DEFAULT_BTI
from ..aging.delay import gate_delays
from ..netlist.net import CONST0, CONST1
from ..sim.logic import check_pi_bits


def evaluate_bytes(compiled, pi_bits, release=True, op_mask_bits=None):
    """Evaluate a compiled netlist on a batch of input vectors, bytewise.

    Parameters
    ----------
    compiled:
        :class:`~repro.sim.logic.CompiledNetlist` from
        :func:`~repro.sim.logic.compile_netlist`.
    pi_bits:
        ``uint8`` array of shape ``(batch, n_primary_inputs)`` holding
        one bit per input, in the netlist's PI order.
    release:
        Free dead intermediate arrays eagerly (bounds peak memory).
    op_mask_bits:
        Optional row -> ``(batch,)`` ``uint8`` 0/1 flip flags.

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
    flips = op_mask_bits or {}
    for idx, (cell, ins, out) in enumerate(zip(compiled.cells, compiled.ins,
                                               compiled.outs)):
        value = cell.function(*[values[s] for s in ins])
        values[out] = value ^ flips[idx] if idx in flips else value
        if release:
            for slot in compiled.last_use[idx]:
                values[slot] = None
    outs = np.empty((batch, len(compiled.po_slots)), dtype=np.uint8)
    for col, slot in enumerate(compiled.po_slots):
        outs[:, col] = values[slot]
    return outs


def evaluate_bytes_injected(compiled, pi_bits, op_mask_bits):
    """Scalar uint8 reference injector (one byte per vector per net).

    *op_mask_bits* maps row -> ``(batch,)`` uint8 0/1 flip flags — the
    unpacked form of the packed masks
    (:func:`repro.inject.inject_sim.unpack_op_masks`). The independent
    oracle of the packed injector: :func:`evaluate_bytes` with flips.
    """
    return evaluate_bytes(compiled, pi_bits, op_mask_bits=op_mask_bits)


def all_net_values(compiled, pi_bits):
    """Evaluate bytewise and return the values of *every* net.

    Returns a ``(batch, slots)`` uint8 array (column ``s`` is slot
    ``s``); the reference of activity extraction, which needs internal
    nets.
    """
    pi_bits = check_pi_bits(compiled, pi_bits)
    values = np.zeros((compiled.slots, pi_bits.shape[0]), dtype=np.uint8)
    values[1] = 1
    values[compiled.pi_slots] = pi_bits.T
    for cell, ins, out in zip(compiled.cells, compiled.ins, compiled.outs):
        values[out] = cell.function(*[values[s] for s in ins])
    return values.T


@dataclass
class Waveform:
    """Recorded activity of one net: ``[(time_ps, value)]`` transitions."""

    transitions: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def final_value(self):
        return self.transitions[-1][1] if self.transitions else None

    @property
    def settle_time(self):
        """Time of the last transition (0.0 if the net never moved)."""
        return self.transitions[-1][0] if self.transitions else 0.0

    @property
    def glitch_count(self):
        """Number of transitions beyond the first (a settled net has 0)."""
        return max(0, len(self.transitions) - 1)


class EventSimulator:
    """Transport-delay event-driven simulation of one clock cycle.

    Parameters
    ----------
    netlist, library:
        Design and cell library.
    scenario / bti / degradation:
        Optional aging configuration (same plumbing as STA).
    """

    def __init__(self, netlist, library, scenario=None, bti=DEFAULT_BTI,
                 degradation=None):
        self.netlist = netlist
        self.library = library
        self.delays = gate_delays(netlist, library, scenario=scenario,
                                  bti=bti, degradation=degradation)
        self._fanout = netlist.fanout_map()

    def settle(self, prev_inputs, cur_inputs):
        """Apply an input transition and run until quiescence.

        Parameters
        ----------
        prev_inputs / cur_inputs:
            Map PI net id -> bit value before / after the clock edge.

        Returns
        -------
        dict
            Map net id -> :class:`Waveform` (every net gets an entry;
            index 0 of a waveform is its initial settled value at t<=0).
        """
        values = {CONST0: 0, CONST1: 1}
        values.update(prev_inputs)
        # Settle the previous state functionally.
        for gate in self.netlist.topological_gates():
            func = self.library[gate.cell].function
            values[gate.output] = func(*[values[n] for n in gate.inputs])
        waves = {net: Waveform([(0.0, val)]) for net, val in values.items()}

        counter = itertools.count()
        queue = []
        for net, new_val in cur_inputs.items():
            if values.get(net) != new_val:
                heapq.heappush(queue, (0.0, next(counter), net, new_val))

        while queue:
            time, __, net, val = heapq.heappop(queue)
            if values.get(net) == val:
                continue
            values[net] = val
            waves.setdefault(net, Waveform()).transitions.append((time, val))
            for gate in self._fanout.get(net, ()):  # re-evaluate sinks
                func = self.library[gate.cell].function
                new_out = func(*[values[n] for n in gate.inputs])
                heapq.heappush(queue, (time + self.delays[gate.uid],
                                       next(counter), gate.output, new_out))
        return waves

    def sample_outputs(self, prev_inputs, cur_inputs, t_clock_ps):
        """Value captured on each PO at the sampling edge ``t_clock_ps``.

        Returns ``(sampled, settled, settle_times)`` lists in PO order.
        """
        waves = self.settle(prev_inputs, cur_inputs)
        sampled, settled, times = [], [], []
        for net in self.netlist.primary_outputs:
            wave = waves[net]
            value_at_clock = wave.transitions[0][1]
            for time, val in wave.transitions:
                if time <= t_clock_ps:
                    value_at_clock = val
                else:
                    break
            sampled.append(value_at_clock)
            settled.append(wave.final_value)
            times.append(wave.settle_time)
        return sampled, settled, times
