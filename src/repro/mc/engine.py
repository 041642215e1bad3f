"""Sample-axis Monte Carlo STA over the batched timing engine.

:func:`analyze_mc` extends :func:`repro.sta.engine.analyze_batch` with a
trailing **sample axis**: per-gate Vth draws
(:class:`~repro.mc.variation.VariationModel`) perturb the aged delay of
every gate, and the levelized propagation sweeps the whole
``(gates, corners, samples)`` tensor with the same per-level NumPy
gather/max/add the deterministic path uses — no per-gate or per-sample
Python loop anywhere on the hot path.

Memory model
------------
A full mult16 tensor at 6 corners x 2000 samples would hold ~50M
float64 arrivals. The sample axis is therefore processed in **chunked
sample blocks** (:data:`DEFAULT_BLOCK` samples at a time): each block
materializes only ``(slots, corners, block)`` arrivals, critical paths
are reduced per block, and blocks are concatenated in absolute sample
order. Peak RSS is bounded by the block size while results are
independent of it — draws are indexed by absolute sample position
(:mod:`repro.mc.variation`), and each block's propagation touches no
state outside the block.

Zero-sigma routing
------------------
``sigma = 0`` must *equal* the deterministic engine, not approximate
it: :func:`analyze_mc` then routes through
:func:`~repro.sta.engine.analyze_batch` (the memoized multiplier path)
and broadcasts its arrivals across the sample axis, so every value is
bit-identical (``==``, no epsilon) to the deterministic report. This is
also the benchmark's correctness gate.

Block kernel
------------
:func:`mc_block` runs every sample block, for :func:`analyze_mc` and
for the :mod:`repro.mc.yield_curves` workers alike: draws, delays from
a per-run :func:`~repro.sta.engine.sampled_delays` function, one
propagation, one critical-path reduction per requested cone plan. Its
scalar-loop oracle is :func:`repro.verify.analyze_mc_reference`.
"""

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..aging.bti import DEFAULT_BTI
from ..obs import metrics as obs_metrics, trace as obs_trace
from ..sta.engine import (CornerLabels, _critical_paths, _propagate,
                          analyze_batch, compile_timing, corner_label,
                          replay_cone, sampled_delays)
from .variation import VariationModel

#: Samples propagated per block; bounds peak arrival-tensor memory.
#: Divides :data:`repro.mc.variation.SAMPLE_CHUNK` (or vice versa) so
#: block boundaries align with draw chunks and nothing is re-generated.
DEFAULT_BLOCK = 256


def sample_blocks(samples, block=DEFAULT_BLOCK):
    """``(start, count)`` partition of the sample axis into blocks."""
    if samples < 1:
        raise ValueError("samples must be >= 1, got %r" % (samples,))
    if block < 1:
        raise ValueError("block must be >= 1, got %r" % (block,))
    return [(start, min(block, samples - start))
            for start in range(0, samples, block)]


def mc_block(program, delays_of, variation, start, count, plans=(None,)):
    """One sample block: ``(arrivals, [critical paths per plan])``.

    Draws samples ``start .. start+count`` of every gate, turns them
    into ``(n_gates, C, count)`` delays with *delays_of* (a
    :func:`~repro.sta.engine.sampled_delays` function), propagates
    them once and reduces ``(C, count)`` critical paths per entry of
    *plans*: ``None`` reads the full propagation, a
    :class:`~repro.sta.engine.ConePlan` replays its cone against it.
    """
    delays = delays_of(variation.gate_dvth(program.gate_uids, start, count))
    arr = _propagate(program, delays)
    return arr, [_critical_paths(program, arr if plan is None
                                 else replay_cone(plan, arr, delays))
                 for plan in plans]


@dataclass
class MCReport(CornerLabels):
    """Sampled critical paths of one netlist under a corner grid.

    ``critical_path_ps`` is ``(C, S)``; ``arrivals`` (``(slots, C, S)``)
    is kept only on request — it is the block-memory model's whole point
    that full runs never materialize it.
    """

    program: object
    corners: Tuple
    labels: Tuple[str, ...]
    variation: VariationModel
    samples: int
    critical_path_ps: np.ndarray
    arrivals: Optional[np.ndarray] = None

    def quantile_ps(self, q, corner=0):
        """Critical-path quantile (linear interpolation) of one corner."""
        return float(np.quantile(
            self.critical_path_ps[self._corner(corner)], q))

    def mean_ps(self, corner=0):
        return float(self.critical_path_ps[self._corner(corner)].mean())

    def yield_fraction(self, clock_ps, corner=0):
        """P(sampled critical path <= clock) under one corner."""
        cp = self.critical_path_ps[self._corner(corner)]
        return float(np.count_nonzero(cp <= clock_ps) / cp.size)


def analyze_mc(netlist, library, corners, variation, samples,
               bti=DEFAULT_BTI, program=None, block=DEFAULT_BLOCK,
               keep_arrivals=False):
    """Monte Carlo STA: *samples* variation draws across *corners*.

    Parameters
    ----------
    corners:
        Corner grid as in :func:`repro.sta.engine.analyze_batch`.
    variation:
        :class:`~repro.mc.variation.VariationModel`; ``sigma = 0``
        reproduces the deterministic engine exactly (see module doc).
    samples:
        Number of Monte Carlo draws (>= 1).
    block:
        Sample-block size bounding peak memory; never affects results.
    keep_arrivals:
        Materialize the full ``(slots, C, S)`` arrival tensor (tests
        and small netlists only).

    Returns
    -------
    MCReport
    """
    corners = tuple(corners)
    if not corners:
        raise ValueError("analyze_mc needs at least one corner")
    blocks = sample_blocks(samples, block)
    if program is None:
        program = compile_timing(netlist, library)
    labels = tuple(corner_label(c) for c in corners)
    started = time.perf_counter()
    with obs_trace.span("mc.analyze", design=netlist.name,
                        corners=len(corners), samples=int(samples),
                        gates=program.n_gates):
        if variation.is_zero:
            batch = analyze_batch(netlist, library, corners, bti=bti,
                                  program=program)
            cp = np.repeat(batch.critical_path_ps[:, None], samples,
                           axis=1)
            arrivals = (np.repeat(batch.arrivals[:, :, None], samples,
                                  axis=2) if keep_arrivals else None)
        else:
            delays_of = sampled_delays(program, corners, bti)
            parts = []
            kept = []
            for start, count in blocks:
                arr, (cp,) = mc_block(program, delays_of, variation, start,
                                      count)
                parts.append(cp)
                if keep_arrivals:
                    kept.append(arr)
            cp = np.concatenate(parts, axis=1)
            arrivals = np.concatenate(kept, axis=2) if keep_arrivals \
                else None
    elapsed = time.perf_counter() - started
    if elapsed > 0.0:
        obs_metrics.set_gauge(obs_metrics.MC_SAMPLES_PER_SEC,
                              samples / elapsed)
    obs_metrics.inc(obs_metrics.MC_SAMPLES, int(samples))
    obs_metrics.inc(obs_metrics.MC_BLOCKS, len(blocks))
    return MCReport(program=program, corners=corners, labels=labels,
                    variation=variation, samples=int(samples),
                    critical_path_ps=cp, arrivals=arrivals)

