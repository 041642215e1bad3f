"""Faultload derivation from batched STA arrivals.

A *faultload* names the gates that miss timing at a given
``(corner, clock)`` point and assigns each a flip probability. The
model follows the paper's premise for guardband-free operation: a gate
whose aged output arrival exceeds the clock period latches a stale or
metastable value on some fraction of cycles. We approximate that
fraction as::

    p(gate) = activity * (1 - clock_ps / arrival_ps)

i.e. proportional to how deep the gate is past the deadline, scaled by
an output toggle activity (default 0.5 — a late capture only matters
when the output actually changed this cycle). The comparison is
strict (``arrival > clock``), so a fresh circuit clocked at its own
critical path, or any corner under a guardbanded clock, yields an
empty faultload — the "exactly zero injections" invariant.

Probabilities are quantized to :data:`repro.inject.masks.PROB_BITS`
bits (:func:`repro.inject.masks.flip_thresholds`); because ``p`` is
non-decreasing in lifetime (arrivals grow under aging) and in clock
aggressiveness (smaller ``clock_ps``), thresholds are too, which the
mask layer turns into exactly monotone injected-fault counts.
"""

from dataclasses import dataclass

import numpy as np

from ..sta.engine import corner_label
from . import masks as masks_mod

#: Default output toggle activity used to scale flip probabilities.
DEFAULT_ACTIVITY = 0.5


@dataclass(frozen=True)
class Faultload:
    """Violating gates of one ``(corner, clock)`` point.

    All arrays are aligned: entry *i* describes the same gate. ``rows``
    are indices into the topological gate order shared by
    :class:`repro.sta.engine.TimingProgram` and
    :class:`repro.sim.logic.CompiledNetlist` (both derive from
    ``netlist.topological_gates()``), so a row addresses the packed-eval
    op to XOR directly.
    """

    clock_ps: float
    corner: str
    activity: float
    rows: np.ndarray
    gate_uids: np.ndarray
    arrival_ps: np.ndarray
    flip_probability: np.ndarray
    thresholds: np.ndarray
    n_gates: int

    @property
    def n_violating(self):
        return int(self.rows.size)

    @property
    def violating_fraction(self):
        return self.n_violating / max(self.n_gates, 1)

    @property
    def mean_flip_probability(self):
        if not self.rows.size:
            return 0.0
        return float(self.flip_probability.mean())

    def masks(self, seed, words):
        """Per-op packed fault masks: ``{op row: (words,) uint64}``.

        Masks come from the per-``(seed, gate uid)`` streams of
        :mod:`repro.inject.masks`, so they are independent of which
        process builds them and nested across corners that share a
        seed.
        """
        return next(point_masks((self,), seed, words))


#: Bytes of masks :func:`point_masks` may hold for faultloads it has
#: not yet yielded. A gate's planes serve later faultloads only while
#: their masks fit; past that, a later faultload draws the gate again
#: (the same bits, one more stream opened).
HELD_MASK_BYTES = 16 << 20


def point_masks(faultloads, seed, words):
    """Each faultload's :meth:`Faultload.masks`, in order (a generator).

    When a faultload is reached, each of its violating gates not yet
    drawn for it is drawn once (:func:`repro.inject.masks.bernoulli_masks`)
    for it and for as many later faultloads that find the gate violating
    as :data:`HELD_MASK_BYTES` has room for. Those masks wait in the
    generator until their faultload is reached; it keeps none it has
    yielded. So beyond the masks of the faultload being yielded, at
    most :data:`HELD_MASK_BYTES` of masks are alive, however many
    faultloads there are. Faultloads must come from one timing program
    (a gate uid names one row).
    """
    users = {}
    for index, load in enumerate(faultloads):
        for row, uid, threshold in zip(load.rows.tolist(),
                                       load.gate_uids.tolist(),
                                       load.thresholds.tolist()):
            users.setdefault(uid, []).append((index, row, threshold))
    room = HELD_MASK_BYTES // (8 * max(int(words), 1))
    pending = [{} for __ in faultloads]
    for index, load in enumerate(faultloads):
        mine = pending[index]
        room += len(mine)               # held masks that have come due
        for uid in load.gate_uids.tolist():
            queue = users[uid]
            if not queue or queue[0][0] != index:
                continue                # drawn for this load already
            ahead = min(room, len(queue) - 1)
            room -= ahead
            users[uid] = queue[ahead + 1:]
            _draw_gate(pending, seed, uid, queue[:ahead + 1], words)
        pending[index] = None
        yield {row: mine[row] for row in load.rows.tolist()
               if mine[row].any()}
        del mine


def _draw_gate(pending, seed, uid, users, words):
    """Draw one gate's masks for all its ``(index, row, threshold)``
    *users* into ``pending[index][row]``."""
    drawn = masks_mod.bernoulli_masks(
        seed, uid, [threshold for __, __, threshold in users], words)
    for (index, row, __), mask in zip(users, drawn):
        pending[index][row] = mask


def gate_output_arrivals(program, batch, corner_index):
    """Per-gate output arrival times (float64) for one analyzed corner."""
    return np.asarray(batch.arrivals[program.out_slots, corner_index],
                      dtype=np.float64)


def build_faultload(program, batch, corner, clock_ps,
                    activity=DEFAULT_ACTIVITY):
    """Derive the faultload of one ``(corner, clock)`` point.

    *corner* is a label from ``batch.labels`` (or an
    :class:`~repro.aging.scenario.AgingScenario` / ``None`` resolved
    via :func:`repro.sta.engine.corner_label`). *clock_ps* must be
    positive; *activity* is the toggle-activity scale in ``(0, 1]``.
    """
    clock_ps = float(clock_ps)
    if clock_ps <= 0.0:
        raise ValueError("clock_ps must be positive, got %r" % clock_ps)
    if not 0.0 < activity <= 1.0:
        raise ValueError("activity must be in (0, 1], got %r" % activity)
    label = corner if isinstance(corner, str) else corner_label(corner)
    corner_index = batch.corner_index(label)
    arrivals = gate_output_arrivals(program, batch, corner_index)
    rows = np.flatnonzero(arrivals > clock_ps)
    late = arrivals[rows]
    probs = activity * (1.0 - clock_ps / late)
    thresholds = masks_mod.flip_thresholds(probs)
    return Faultload(
        clock_ps=clock_ps,
        corner=label,
        activity=float(activity),
        rows=rows.astype(np.int64),
        gate_uids=np.asarray(program.gate_uids, dtype=np.int64)[rows],
        arrival_ps=late,
        flip_probability=probs,
        thresholds=thresholds,
        n_gates=program.n_gates,
    )
