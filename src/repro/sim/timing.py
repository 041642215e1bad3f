"""Vectorized timed gate-level simulation with timing-violation sampling.

This module makes aging-induced timing errors concrete. It models one
clock cycle of a combinational block between registers:

1. at the clock edge the inputs switch from the previous vector to the
   current one;
2. transitions propagate through the gates, each contributing its
   (possibly aged) delay;
3. at the *next* clock edge, ``t_clock`` later, the outputs are sampled.

An output bit whose last transition settles after ``t_clock`` is sampled
mid-flight; we model the captured value as the *previous* cycle's settled
value (the classic late-transition capture model — deterministic, but
input-history dependent, which is exactly the nondeterminism the paper
warns about).

Arrival times are data dependent, using a *static-sensitization glitch
model* based on the Boolean difference: an input's activity (a settled
transition or a glitch) propagates through a gate when the gate's output
is sensitive to that input given the other inputs' settled values —
e.g. an AND gate passes glitches on one input while the other input is
1, an XOR passes everything. A gate whose settled output changes is
always active. The output's possible-transition time is
``max(arrival of contributing active inputs) + gate delay``.

The exact event-driven simulator in :mod:`repro.verify.reference_sim`
quantifies this approximation on small circuits, and static arrival
times from :mod:`repro.sta` upper-bound these dynamic arrivals — both
properties are enforced by the test suite.
"""

from dataclasses import dataclass

import numpy as np

from ..aging.bti import DEFAULT_BTI
from ..aging.delay import gate_delays
from .logic import compile_netlist, int_to_bits, bits_to_int


@dataclass
class TimedResult:
    """Result of one batched timed-simulation call.

    Attributes
    ----------
    sampled:
        ``(batch, n_po)`` uint8 — bits captured at the clock edge.
    settled:
        ``(batch, n_po)`` uint8 — the eventual (error-free) bits.
    arrivals:
        ``(batch, n_po)`` float64 — per-bit settle times in ps.
    violations:
        ``(batch, n_po)`` bool — True where the bit settled after the
        clock edge (sampled may differ from settled there).
    """

    sampled: np.ndarray
    settled: np.ndarray
    arrivals: np.ndarray
    violations: np.ndarray

    @property
    def any_violation(self):
        """Per-vector bool: did any output bit violate timing?"""
        return self.violations.any(axis=1)

    @property
    def error_rate(self):
        """Fraction of vectors whose *sampled* word differs from settled."""
        wrong = (self.sampled != self.settled).any(axis=1)
        return float(wrong.mean()) if wrong.size else 0.0


class TimedSimulator:
    """Reusable timed simulator for one netlist under one aging scenario.

    Parameters
    ----------
    netlist:
        Combinational design to simulate.
    library:
        Cell library.
    scenario:
        Aging scenario scaling the gate delays; fresh when omitted.
    t_clock_ps:
        Sampling clock period. The paper's experiments clock aged
        circuits at the *fresh* maximum frequency, i.e. ``t_clock`` is
        the unaged critical-path delay.
    bti / degradation:
        Aging-model plumbing, as in :mod:`repro.sta`.
    """

    #: Slop added to the clock edge when classifying late arrivals.
    #: Arrival times accumulate in float64 — the same floats static STA
    #: propagates — so a dynamic arrival can never drift past the static
    #: bound and a fresh circuit clocked at its own critical path shows
    #: exactly zero violations without any slop. (Arrivals historically
    #: accumulated in float32, which needed 0.05 ps of tolerance and let
    #: the timed simulator flag "violations" that static STA disproved;
    #: the sta-crosscheck suite pins the agreement now.)
    LATE_TOLERANCE_PS = 0.0

    #: Supported activity-propagation models (ablation axis):
    #: ``"sensitization"`` — Boolean-difference static sensitization (the
    #: default, validated against the event-driven simulator);
    #: ``"optimistic"`` — only settled transitions propagate (no
    #: glitches; underestimates errors);
    #: ``"pessimistic"`` — any input activity propagates (topological;
    #: overestimates errors toward static STA).
    GLITCH_MODELS = ("sensitization", "optimistic", "pessimistic")

    def __init__(self, netlist, library, t_clock_ps, scenario=None,
                 bti=DEFAULT_BTI, degradation=None, max_batch=8192,
                 glitch_model="sensitization"):
        if glitch_model not in self.GLITCH_MODELS:
            raise ValueError("glitch_model must be one of %r"
                             % (self.GLITCH_MODELS,))
        self.glitch_model = glitch_model
        self.netlist = netlist
        self.library = library
        self.t_clock_ps = float(t_clock_ps)
        self.scenario = scenario
        self.compiled = compile_netlist(netlist, library)
        delays = gate_delays(netlist, library, scenario=scenario, bti=bti,
                             degradation=degradation)
        # Align per-gate delays with the compiled rows.
        self._op_delays = np.array(
            [delays[uid] for uid in self.compiled.uids], dtype=np.float64)
        self.max_batch = int(max_batch)
        # Per-row constant metadata, hoisted out of the per-chunk batch
        # loop: ``probe`` marks rows that need the Boolean-difference
        # sensitization probe (only the "sensitization" model on
        # multi-input gates), ``always`` marks rows whose inputs always
        # contribute activity (1-input gates are trivially sensitive;
        # the pessimistic model propagates everything).
        self._op_meta = []
        for cell, ins, out in zip(self.compiled.cells, self.compiled.ins,
                                  self.compiled.outs):
            always = glitch_model == "pessimistic" or len(ins) == 1
            probe = glitch_model == "sensitization" and len(ins) > 1
            self._op_meta.append((cell.function, ins, out, probe, always))

    # ------------------------------------------------------------------
    def run_bits(self, prev_bits, cur_bits):
        """Simulate one clock cycle for a batch of (previous, current) pairs.

        Both arguments are ``(batch, n_pi)`` bit arrays; the previous
        vector defines the circuit's settled state before the edge.
        """
        prev_bits = np.asarray(prev_bits, dtype=np.uint8)
        cur_bits = np.asarray(cur_bits, dtype=np.uint8)
        if prev_bits.shape != cur_bits.shape:
            raise ValueError("prev/cur batches must have the same shape")
        pieces = []
        for lo in range(0, cur_bits.shape[0], self.max_batch):
            hi = lo + self.max_batch
            pieces.append(self._run_chunk(prev_bits[lo:hi], cur_bits[lo:hi]))
        if len(pieces) == 1:
            return pieces[0]
        return TimedResult(
            sampled=np.concatenate([p.sampled for p in pieces]),
            settled=np.concatenate([p.settled for p in pieces]),
            arrivals=np.concatenate([p.arrivals for p in pieces]),
            violations=np.concatenate([p.violations for p in pieces]))

    def _run_chunk(self, prev_bits, cur_bits):
        comp = self.compiled
        batch = cur_bits.shape[0]
        v_old = [None] * comp.slots
        v_new = [None] * comp.slots
        act = [None] * comp.slots    # net carries (possibly glitch) activity
        arr = [None] * comp.slots    # time of the last possible transition
        zero_u8 = np.zeros(batch, dtype=np.uint8)
        one_u8 = np.ones(batch, dtype=np.uint8)
        zero_f = np.zeros(batch, dtype=np.float64)
        no_act = np.zeros(batch, dtype=bool)
        v_old[0] = v_new[0] = zero_u8
        v_old[1] = v_new[1] = one_u8
        arr[0] = arr[1] = zero_f
        act[0] = act[1] = no_act
        for col, slot in enumerate(comp.pi_slots):
            v_old[slot] = np.ascontiguousarray(prev_bits[:, col])
            v_new[slot] = np.ascontiguousarray(cur_bits[:, col])
            act[slot] = v_old[slot] != v_new[slot]
            arr[slot] = zero_f

        zero_u8.setflags(write=False)
        one_u8.setflags(write=False)
        for idx, (func, ins, out, probe, always) in enumerate(self._op_meta):
            new_ins = [v_new[s] for s in ins]
            old = func(*[v_old[s] for s in ins])
            new = func(*new_ins)
            changed = old != new
            # Boolean-difference sensitization: input i's activity
            # (transition or glitch) reaches the output when toggling
            # input i flips the output given the other inputs' settled
            # values. Simultaneous multi-input changes are covered by
            # the `changed` term.
            a_out_act = changed.copy()
            a_in = zero_f
            for pos, s in enumerate(ins):
                if probe:
                    saved = new_ins[pos]
                    new_ins[pos] = zero_u8
                    low = func(*new_ins)
                    new_ins[pos] = one_u8
                    sens = low != func(*new_ins)
                    new_ins[pos] = saved
                    contributes = act[s] & (sens | changed)
                elif always:
                    contributes = act[s]  # INV/BUF are always sensitive
                else:  # optimistic: only settled transitions propagate
                    contributes = act[s] & changed
                a_out_act = a_out_act | contributes
                a_in = np.maximum(a_in, np.where(contributes, arr[s], 0.0))
            a_out = np.where(a_out_act, a_in + self._op_delays[idx], 0.0)
            v_old[out], v_new[out] = old, new
            act[out], arr[out] = a_out_act, a_out
            for slot in comp.last_use[idx]:
                v_old[slot] = v_new[slot] = arr[slot] = act[slot] = None

        n_po = len(comp.po_slots)
        sampled = np.empty((batch, n_po), dtype=np.uint8)
        settled = np.empty((batch, n_po), dtype=np.uint8)
        arrivals = np.empty((batch, n_po), dtype=np.float64)
        violations = np.empty((batch, n_po), dtype=bool)
        deadline = self.t_clock_ps + self.LATE_TOLERANCE_PS
        for col, slot in enumerate(comp.po_slots):
            late = arr[slot] > deadline
            changed = v_old[slot] != v_new[slot]
            # A late-settling bit that actually changed captures stale
            # data; a late glitch on an unchanged bit is reported as a
            # violation but deterministically resolves to the (equal)
            # settled value.
            sampled[:, col] = np.where(late & changed, v_old[slot],
                                       v_new[slot])
            settled[:, col] = v_new[slot]
            arrivals[:, col] = arr[slot]
            violations[:, col] = late
        return TimedResult(sampled=sampled, settled=settled,
                           arrivals=arrivals, violations=violations)

    # ------------------------------------------------------------------
    def run_stream(self, stream_bits, initial=None):
        """Simulate a stream of consecutive input vectors.

        Vector ``i`` is applied with vector ``i-1`` as the previous state
        (vector 0 uses *initial*, defaulting to itself, i.e. no initial
        transition).

        Returns a :class:`TimedResult` for the whole stream.
        """
        stream_bits = np.asarray(stream_bits, dtype=np.uint8)
        if initial is None:
            initial = stream_bits[:1]
        prev = np.concatenate([np.asarray(initial, dtype=np.uint8),
                               stream_bits[:-1]], axis=0)
        return self.run_bits(prev, stream_bits)


def max_frequency_ghz(t_clock_ps):
    """Convert a clock period in ps to a frequency in GHz."""
    if t_clock_ps <= 0:
        raise ValueError("clock period must be positive")
    return 1000.0 / t_clock_ps
