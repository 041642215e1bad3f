"""Cross-engine oracles: four simulators, one truth.

The codebase grew four ways to compute what a combinational netlist
settles to:

* ``bytes`` — the vectorized ``uint8`` reference engine
  (:func:`repro.sim.logic.evaluate`),
* ``packed`` — the 64-way bit-parallel engine
  (:func:`repro.sim.logic.evaluate_packed`),
* ``event`` — the scalar event-driven simulator
  (:class:`repro.sim.event.EventSimulator`), whose quiescent values are
  produced by a completely different mechanism (a delay-ordered event
  queue),
* ``timed`` — the vectorized timed simulator
  (:class:`repro.sim.timing.TimedSimulator`), whose ``settled`` word is
  its functional answer (and whose ``sampled`` word must equal it at a
  relaxed clock).

This module runs one netlist through all of them on one stimulus and
diffs the outputs bit-exactly. Disagreements become
:class:`Counterexample` records: a shrunken netlist (via
:mod:`repro.verify.shrink`), the stimulus bits, and the engine pair
that disagrees — small enough to paste into a regression test.

:func:`analyze_mc_reference` is the Monte Carlo engine's oracle: the
per-sample scalar loop that :func:`repro.mc.analyze_mc` vectorizes.
:func:`structural_replay` is the truncation replay's oracle: it
re-propagates the whole structural fan-out cone of the tied inputs
from the baseline, where :func:`repro.sta.engine.replay_cone` applies
only the cone of the gates that drop, in place.
:func:`bernoulli_masks_reference` is the fault-mask sampler's oracle:
whole 24-bit uniforms compared against each threshold, with none of
the kernel's bitwise comparison or early exits.

Netlists are always compiled with ``memo=False`` here so that an
injected kernel fault (or any global-table mutation) is picked up
instead of being masked by a previously cached program.
"""

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..aging.bti import DEFAULT_BTI
from ..sim.activity import ActivityReport
from ..sim.event import EventSimulator
from ..sim.logic import (all_net_values, compile_netlist, evaluate,
                         evaluate_packed)
from ..sim.timing import TimedSimulator
from ..sta.engine import (_critical_paths, _propagate, compile_timing,
                          corner_stress)

#: Engine names, in reporting order; ``bytes`` is the reference.
ENGINES = ("bytes", "packed", "event", "timed")

#: Clock period (ps) at which the timed engine cannot be late.
RELAXED_CLOCK_PS = 1e9

#: Default cap on vectors pushed through the scalar event engine.
EVENT_VECTOR_CAP = 64


def simulate_activity_bytes(netlist, library, pi_bits):
    """Byte-engine oracle of :func:`repro.sim.activity.simulate_activity`.

    Materializes the full ``(vectors, slots)`` ``uint8`` net matrix and
    reduces it by mean and consecutive-row comparison; the production
    packed popcount reduction must match it bit for bit.
    """
    compiled = compile_netlist(netlist, library, memo=False)
    values = all_net_values(compiled, pi_bits)
    vectors = values.shape[0]
    p1 = values.mean(axis=0) if vectors else np.zeros(compiled.slots)
    if vectors > 1:
        toggles = (values[1:] != values[:-1]).mean(axis=0)
    else:
        toggles = np.zeros(compiled.slots)
    return ActivityReport.from_slots(compiled, p1, toggles, vectors)


def exhaustive_bits(n_inputs):
    """All ``2**n_inputs`` input vectors as a ``(batch, n_pi)`` array."""
    count = 1 << n_inputs
    return np.array([[(row >> i) & 1 for i in range(n_inputs)]
                     for row in range(count)], dtype=np.uint8)


def default_stimulus(netlist, vectors=None, rng=None, exhaustive_limit=6):
    """Stimulus for *netlist*: exhaustive when small, random otherwise.

    Up to ``2**exhaustive_limit`` vectors are enumerated exhaustively;
    wider interfaces draw *vectors* random rows (default 128).
    """
    n_pi = len(netlist.primary_inputs)
    if n_pi <= exhaustive_limit and vectors is None:
        return exhaustive_bits(n_pi)
    rng = np.random.default_rng(rng)
    count = 128 if vectors is None else int(vectors)
    return rng.integers(0, 2, size=(count, n_pi), dtype=np.uint8)


def engine_outputs(netlist, library, pi_bits, engine):
    """Settled PO bits of *netlist* under one engine.

    Returns a ``(batch, n_po)`` ``uint8`` array in PO order. The
    ``timed`` engine additionally asserts its own internal consistency
    (``sampled == settled`` at the relaxed clock).
    """
    pi_bits = np.asarray(pi_bits, dtype=np.uint8)
    if engine == "bytes":
        compiled = compile_netlist(netlist, library, memo=False)
        return evaluate(compiled, pi_bits)
    if engine == "packed":
        compiled = compile_netlist(netlist, library, memo=False)
        return evaluate_packed(compiled, pi_bits)
    if engine == "timed":
        sim = TimedSimulator(netlist, library, t_clock_ps=RELAXED_CLOCK_PS)
        result = sim.run_stream(pi_bits)
        if not np.array_equal(result.sampled, result.settled):
            raise AssertionError(
                "timed engine sampled != settled at a relaxed clock on %s"
                % netlist.name)
        return result.settled
    if engine == "event":
        sim = EventSimulator(netlist, library)
        pis = netlist.primary_inputs
        outs = np.empty((pi_bits.shape[0], len(netlist.primary_outputs)),
                        dtype=np.uint8)
        prev_row = pi_bits[0]
        for row_idx in range(pi_bits.shape[0]):
            cur_row = pi_bits[row_idx]
            prev = {net: int(prev_row[col]) for col, net in enumerate(pis)}
            cur = {net: int(cur_row[col]) for col, net in enumerate(pis)}
            waves = sim.settle(prev, cur)
            for col, net in enumerate(netlist.primary_outputs):
                outs[row_idx, col] = waves[net].final_value
            prev_row = cur_row
        return outs
    raise ValueError("unknown engine %r (choose from %s)"
                     % (engine, ", ".join(ENGINES)))


@dataclass
class EngineMismatch:
    """First disagreement between one engine and the reference engine."""

    engine: str
    reference: str
    vector_index: int
    output_index: int
    inputs: List[int]
    expected: int
    got: int
    total_mismatching_vectors: int = 1

    def describe(self):
        return ("%s != %s at vector %d output bit %d (inputs %s): "
                "expected %d, got %d (%d vector(s) differ)"
                % (self.engine, self.reference, self.vector_index,
                   self.output_index,
                   "".join(str(b) for b in self.inputs),
                   self.expected, self.got,
                   self.total_mismatching_vectors))


def diff_engines(netlist, library, pi_bits, engines=ENGINES,
                 reference="bytes", event_cap=EVENT_VECTOR_CAP):
    """Diff every engine in *engines* against *reference* bit-exactly.

    The scalar ``event`` engine only sees the first *event_cap* vectors
    (it is orders of magnitude slower); all vectorized engines see the
    full stimulus.

    Returns a list of :class:`EngineMismatch` (empty on agreement).
    """
    pi_bits = np.asarray(pi_bits, dtype=np.uint8)
    ref_out = engine_outputs(netlist, library, pi_bits, reference)
    mismatches = []
    for engine in engines:
        if engine == reference:
            continue
        bits = pi_bits[:event_cap] if engine == "event" else pi_bits
        try:
            out = engine_outputs(netlist, library, bits, engine)
        except AssertionError as exc:
            mismatches.append(EngineMismatch(
                engine=engine, reference=reference, vector_index=-1,
                output_index=-1, inputs=[], expected=-1, got=-1))
            mismatches[-1].describe = lambda exc=exc: str(exc)
            continue
        ref = ref_out[:bits.shape[0]]
        if np.array_equal(out, ref):
            continue
        wrong = np.argwhere(out != ref)
        row, col = (int(wrong[0][0]), int(wrong[0][1]))
        mismatches.append(EngineMismatch(
            engine=engine, reference=reference, vector_index=row,
            output_index=col,
            inputs=[int(b) for b in bits[row]],
            expected=int(ref[row, col]), got=int(out[row, col]),
            total_mismatching_vectors=int(
                (out != ref).any(axis=1).sum())))
    return mismatches


@dataclass
class OracleReport:
    """Result of one cross-engine check."""

    design: str
    engines: Tuple[str, ...]
    vectors: int
    gates: int
    mismatches: List[EngineMismatch] = field(default_factory=list)
    counterexample: Optional["Counterexample"] = None

    @property
    def passed(self):
        return not self.mismatches

    def describe(self):
        if self.passed:
            return ("%s: %s agree on %d vectors (%d gates)"
                    % (self.design, "/".join(self.engines), self.vectors,
                       self.gates))
        lines = ["%s: ENGINE DISAGREEMENT (%d gates)"
                 % (self.design, self.gates)]
        lines += ["  " + m.describe() for m in self.mismatches]
        if self.counterexample is not None:
            lines.append("  shrunk to %d gate(s)"
                         % self.counterexample.gates)
        return "\n".join(lines)


def cross_engine_check(netlist, library, vectors=None, engines=ENGINES,
                       rng=None, event_cap=EVENT_VECTOR_CAP, minimize=True):
    """Run the full cross-engine oracle on one netlist.

    Exhaustive stimulus for narrow interfaces, random otherwise; on
    disagreement the netlist is shrunk to a minimal counterexample
    (unless ``minimize=False``).
    """
    pi_bits = default_stimulus(netlist, vectors=vectors, rng=rng)
    mismatches = diff_engines(netlist, library, pi_bits, engines=engines,
                              event_cap=event_cap)
    report = OracleReport(design=netlist.name, engines=tuple(engines),
                          vectors=int(pi_bits.shape[0]),
                          gates=netlist.num_gates, mismatches=mismatches)
    if mismatches and minimize:
        report.counterexample = minimize_counterexample(
            netlist, library, pi_bits, mismatches, engines=engines,
            event_cap=event_cap)
    return report


# ---------------------------------------------------------------------------
# counterexamples
# ---------------------------------------------------------------------------

@dataclass
class Counterexample:
    """A minimized engine-disagreement reproducer.

    Attributes
    ----------
    netlist_dict:
        Serialized shrunken netlist
        (:func:`repro.verify.fuzz.netlist_to_dict` format — the same
        JSON schema as the regression corpus).
    engines:
        The ``(reference, engine)`` pair that disagrees.
    inputs:
        One PI bit vector exposing the disagreement on the shrunken
        netlist (LSB-first PI order).
    gates:
        Gate count of the shrunken netlist.
    original_design / original_gates:
        Where the counterexample came from.
    """

    netlist_dict: Dict
    engines: Tuple[str, str]
    inputs: List[int]
    gates: int
    original_design: str
    original_gates: int

    def to_json(self):
        return json.dumps({
            "schema": "repro.verify.counterexample/1",
            "engines": list(self.engines),
            "inputs": list(self.inputs),
            "gates": self.gates,
            "original_design": self.original_design,
            "original_gates": self.original_gates,
            "netlist": self.netlist_dict,
        }, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        return cls(netlist_dict=data["netlist"],
                   engines=tuple(data["engines"]),
                   inputs=list(data["inputs"]), gates=int(data["gates"]),
                   original_design=data.get("original_design", "?"),
                   original_gates=int(data.get("original_gates", -1)))

    def netlist(self):
        """Rebuild the shrunken netlist."""
        from .fuzz import netlist_from_dict
        return netlist_from_dict(self.netlist_dict)

    def replay(self, library):
        """Re-run the disagreeing engine pair; return the mismatches."""
        netlist = self.netlist()
        bits = np.array([self.inputs], dtype=np.uint8)
        reference, engine = self.engines
        return diff_engines(netlist, library, bits, engines=(engine,),
                            reference=reference)

    def describe(self):
        return ("counterexample: %s vs %s disagree on %d-gate netlist "
                "(shrunk from %s, %d gates), inputs %s"
                % (self.engines[0], self.engines[1], self.gates,
                   self.original_design, self.original_gates,
                   "".join(str(b) for b in self.inputs)))


def minimize_counterexample(netlist, library, pi_bits, mismatches,
                            engines=ENGINES, event_cap=EVENT_VECTOR_CAP):
    """Shrink a disagreeing netlist to a minimal reproducer.

    Keeps the first mismatching engine pair, shrinks the netlist while
    the pair still disagrees on *any* stimulus vector, then reduces the
    stimulus to the single first disagreeing vector.
    """
    from .fuzz import netlist_to_dict
    from .shrink import shrink_netlist

    first = mismatches[0]
    pair = (first.reference, first.engine)
    bits = (pi_bits[:event_cap] if first.engine == "event"
            else pi_bits)

    def still_fails(candidate):
        found = diff_engines(candidate, library, bits,
                             engines=(pair[1],), reference=pair[0],
                             event_cap=event_cap)
        return bool(found)

    shrunk = shrink_netlist(netlist, still_fails)
    final = diff_engines(shrunk, library, bits, engines=(pair[1],),
                         reference=pair[0], event_cap=event_cap)
    if final:
        witness = [int(b) for b in bits[final[0].vector_index]]
    else:  # pragma: no cover - shrinker guarantees the predicate
        witness = [int(b) for b in bits[first.vector_index]]
    return Counterexample(
        netlist_dict=netlist_to_dict(shrunk), engines=pair,
        inputs=witness, gates=shrunk.num_gates,
        original_design=netlist.name, original_gates=netlist.num_gates)


def analyze_mc_reference(netlist, library, corners, variation, samples,
                         bti=DEFAULT_BTI, program=None):
    """Per-sample scalar-loop oracle: ``(C, S)`` critical paths.

    Computes every gate delay with one scalar
    :meth:`~repro.aging.bti.BTIModel.delay_multiplier_from_dvth` /
    :meth:`~repro.aging.bti.BTIModel.delta_vth` call per (gate, corner,
    sample) and propagates one sample at a time — the pre-vectorization
    approach. Draw-for-draw identical inputs to
    :func:`repro.mc.analyze_mc` (same Philox streams), so the two agree
    to float tolerance; the benchmark and the tier-1 suite compare them
    at ``rtol = 1e-12``.
    """
    corners = tuple(corners)
    if program is None:
        program = compile_timing(netlist, library)
    sp, sn, years = corner_stress(program, corners)
    wp = np.asarray([cell.wp for cell in program.cells],
                    dtype=np.float64)[program.cell_index] \
        if program.n_gates else np.zeros(0)
    wn = np.asarray([cell.wn for cell in program.cells],
                    dtype=np.float64)[program.cell_index] \
        if program.n_gates else np.zeros(0)
    dvth = variation.gate_dvth(program.gate_uids, 0, samples)
    n, C = program.n_gates, len(corners)
    cp = np.empty((C, samples), dtype=np.float64)
    delays = np.empty((n, C), dtype=np.float64)
    for s in range(samples):
        for g in range(n):
            dv = float(dvth[g, s])
            for c in range(C):
                mp = bti.delay_multiplier_from_dvth(
                    bti.delta_vth(float(sp[g, c]), float(years[c])) + dv,
                    allow_speedup=True)
                mn = bti.delay_multiplier_from_dvth(
                    bti.delta_vth(float(sn[g, c]), float(years[c])) + dv,
                    allow_speedup=True)
                mult = (1.0 + wp[g] * (mp - 1.0) + wn[g] * (mn - 1.0))
                delays[g, c] = program.base_delay_ps[g] * mult
        arr = _propagate(program, delays)
        cp[:, s] = _critical_paths(program, arr)
    return cp


def structural_replay(program, tied_pis, baseline_arrivals, delays):
    """Structural-cone oracle of :func:`repro.sta.engine.replay_cone`.

    Returns a fresh arrival tensor for *tied_pis* tied low: starting
    from *baseline_arrivals* (the untruncated propagation, ``(slots,
    ...)``), every gate downstream of a tied input or a rail is
    recomputed as ``max(inputs) + delay``, and a gate whose inputs are
    all constant arrives at 0.0. Works on deterministic ``(slots, C)``
    and sampled ``(slots, C, S)`` tensors alike.
    """
    const = np.zeros(program.slots, dtype=bool)
    const[[0, 1]] = True
    for net in tied_pis:
        const[program.slot_of[net]] = True
    changed = const.copy()
    arr = baseline_arrivals.copy()
    for level in program.levels:
        touched = changed[level.in_slots].any(axis=1)
        if not touched.any():
            continue
        ins = level.in_slots[touched]
        outs = level.out_slots[touched]
        all_const = const[ins].all(axis=1)
        at = arr[ins].max(axis=1) + delays[level.rows[touched]]
        at[all_const] = 0.0
        arr[outs] = at
        const[outs] = all_const
        changed[outs] = True
    return arr


def bernoulli_masks_reference(seed, gate_uid, thresholds, words):
    """Whole-uniform oracle of :func:`repro.inject.masks.bernoulli_masks`.

    Per chunk it draws all ``PROB_BITS`` planes of the gate's
    ``SeedSequence([seed, gate_uid, chunk])`` Philox stream as
    full-range integers, assembles each lane's uniform ``U`` (the
    *i*-th plane carries bit ``PROB_BITS - 1 - i``) and sets the lane
    iff ``U < T``, for each threshold ``T``. No early exits.
    """
    from ..inject.masks import CHUNK_WORDS, PROB_BITS

    words = int(words)
    masks = [np.zeros(words, dtype="<u8") for __ in thresholds]
    for chunk, lo in enumerate(range(0, words, CHUNK_WORDS)):
        n_words = min(CHUNK_WORDS, words - lo)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence([int(seed), int(gate_uid), chunk])))
        uniform = np.zeros(64 * n_words, dtype=np.int64)
        for __ in range(PROB_BITS):
            plane = rng.integers(0, 1 << 64, size=CHUNK_WORDS,
                                 dtype=np.uint64)[:n_words]
            lanes = np.unpackbits(plane.astype("<u8").view(np.uint8),
                                  bitorder="little")
            uniform = uniform << 1 | lanes
        for mask, threshold in zip(masks, thresholds):
            mask[lo:lo + n_words] = np.packbits(
                uniform < int(threshold), bitorder="little").view("<u8")
    return [mask.astype(np.uint64) for mask in masks]
