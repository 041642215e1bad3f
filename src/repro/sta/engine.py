"""Vectorized batched STA: compile timing once, sweep corners as arrays.

Scalar :func:`repro.sta.sta.analyze` re-walks the gate list and
recomputes load-dependent base delays for every ``(netlist, scenario)``
pair, even though a characterization grid analyzes one netlist under
dozens of aging corners. This module lowers a netlist **once** into a
levelized :class:`TimingProgram` — topological order, dense net slots,
per-gate base delays and per-level gather/scatter index arrays — and
then:

* :func:`analyze_batch` propagates arrival times for *all* corners of a
  ``scenario x lifetime`` grid in one vectorized pass: aging only scales
  per-gate delay columns, so each logic level is a single NumPy
  gather / max / add / scatter over a ``(gates, pins, corners)`` block;
* :func:`analyze_incremental` re-analyzes a truncation (``K`` LSB inputs
  tied low) against the cached baseline arrivals. Which gates drop
  (all inputs constant) is captured once per tied set as a structural
  :class:`ConePlan`. Tying an input changes no arrival by itself —
  inputs and rails arrive at 0.0 — so only a dropped gate and its
  fan-out change: a :class:`DeltaPlan` (:func:`delta_plan`) holds the
  fan-out cone of the gates dropped by exactly one of two plans, and
  :func:`replay_cone` applies it to an arrival tensor in place. The
  same primitive turns the untruncated arrivals into a truncation's,
  or one precision's into the next (a Monte Carlo ladder); both kinds
  of plan are memoized on the program. The same level walk gives the
  fan-out cone of any gate rows (:func:`fanout_rows`), which is all a
  fault-injection replay re-evaluates (:mod:`repro.inject.campaign`);
* both :func:`_propagate` and :func:`replay_cone` are dimension-agnostic
  past the gate axis: :func:`corner_delays` with per-gate Vth draws
  (``dvth=``) emits a ``(gates, corners, samples)`` tensor and the same
  level loop propagates thousands of Monte Carlo variation samples in
  one pass (see :mod:`repro.mc`).

Both paths are **bit-identical** to the scalar engine: base delays come
from the same ``cell.delay_ps(load)`` calls, aging multipliers from the
same memoized closed-form/table lookups (:mod:`repro.aging.delay`), and
float64 ``max``/``+``/``*`` are the same IEEE-754 operations the scalar
loop performs. ``tests/test_sta_engine.py`` and the ``verify``
invariants enforce exact equality, and :func:`tie_low` provides the
explicit netlist transform that serves as the incremental path's scalar
oracle; :func:`repro.verify.structural_replay` re-propagates the whole
structural cone as the replay's array oracle.

Programs are memoized on the netlist instance exactly like
:func:`repro.sim.logic.compile_netlist` (content token + library
fingerprint, bounded LRU), so repeated analyses of an unchanged
netlist skip the lowering entirely.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..aging.bti import DEFAULT_BTI
from ..aging.delay import _stress_multiplier
from ..aging.stress import UniformStress
from ..netlist.gate import Gate
from ..netlist.net import CONST0, CONST1
from ..netlist.netlist import Netlist, NetlistError
from ..obs import metrics as obs_metrics, trace as obs_trace
from .sta import TimingReport


@dataclass
class _Level:
    """One topological level of the compiled program.

    ``in_slots`` is padded to the level's max pin count with slot 0
    (``CONST0``, arrival 0.0) — the same identity the scalar loop uses
    by starting its max at 0.0 — so the gather/max is rectangular.
    """

    rows: np.ndarray       # gate rows (indices into per-gate arrays)
    in_slots: np.ndarray   # (len(rows), max pins) input slots, padded
    out_slots: np.ndarray  # (len(rows),) output slot per gate


@dataclass
class TimingProgram:
    """A netlist lowered to arrays for vectorized arrival propagation.

    Attributes
    ----------
    netlist:
        The source netlist (kept for metadata).
    slots / slot_of:
        Dense re-indexing of net ids (constants, PIs, gate outputs).
    gate_uids:
        Per-row gate uid (for reconstructing scalar reports).
    out_slots:
        Per-row output slot (where the gate's arrival lands).
    base_delay_ps:
        Per-row fresh delay, ``cell.delay_ps(load)`` — float64.
    loads:
        Per-row output load in fF, the float64 value of
        :meth:`~repro.netlist.netlist.Netlist.load_caps` (fan-out input
        caps, wire caps and primary-output loads); dynamic power reads
        it instead of walking the netlist.
    cells / cell_index:
        Distinct cells and the per-row index into them (aging scales
        delays per cell under uniform stress).
    levels:
        :class:`_Level` groups in propagation order.
    pi_slots / po_slots:
        Slot arrays for the interface nets.
    """

    netlist: object
    slots: int
    slot_of: Dict[int, int]
    gate_uids: np.ndarray
    out_slots: np.ndarray
    base_delay_ps: np.ndarray
    loads: np.ndarray
    cells: List
    cell_index: np.ndarray
    levels: List[_Level]
    pi_slots: np.ndarray
    po_slots: np.ndarray

    @property
    def n_gates(self):
        return len(self.gate_uids)

    @property
    def gates(self):
        """Gate objects in topological order (row ``i`` of every per-gate
        array refers to ``gates[i]``), read from the netlist on first
        use: only per-gate (``ActualStress``) corners need them."""
        got = self.__dict__.get("_gates")
        if got is None:
            got = self._gates = tuple(self.netlist.topological_gates())
        return got

    @property
    def depth(self):
        """Number of logic levels."""
        return len(self.levels)

    def cell_totals(self):
        """``(area_um2, leakage_nw)`` of the per-row cells, summed in row
        order (for a synthesized netlist its gate order, so the floats
        equal :meth:`~repro.netlist.netlist.Netlist.area` /
        :meth:`~repro.netlist.netlist.Netlist.leakage`); memoized."""
        got = self.__dict__.get("_cell_totals")
        if got is None:
            cells = self.cells
            rows = [cells[i] for i in self.cell_index.tolist()]
            got = self._cell_totals = (sum(c.area for c in rows),
                                       sum(c.leakage_nw for c in rows))
        return got


#: Per-netlist memo bound (several libraries may compile one netlist).
_TIMING_MEMO_LIMIT = 8


def compile_timing(netlist, library, memo=True):
    """Lower *netlist* into a :class:`TimingProgram`.

    Memoized on the netlist instance with the same content token as
    :func:`repro.sim.logic.compile_netlist` (library fingerprint +
    interface + every gate's cell/pins), so all corner batches of one
    sweep share a single lowering while any structural mutation —
    including in-place ``gate.cell`` edits by the sizing passes —
    recompiles. Synthesis
    seeds the memo with the program it lowers from its sizer
    (:func:`seed_timing`). Pass ``memo=False`` to force a fresh lowering.
    """
    if not memo:
        return _compile_timing(netlist, library)
    cache, token = _timing_memo(netlist, library)
    program = cache.pop(token, None)
    if program is None:
        program = _compile_timing(netlist, library)
    else:
        obs_metrics.inc(obs_metrics.TIMING_MEMO_HITS)
    _remember(cache, token, program)
    return program


def _timing_memo(netlist, library):
    """``(memo dict, content token)`` of *netlist* under *library*."""
    from ..core.cache import compile_token

    token = compile_token(netlist, library)
    cache = getattr(netlist, "_timing_memo", None)
    if cache is None:
        cache = netlist._timing_memo = {}
    return cache, token


def seed_timing(netlist, library, program):
    """Memoize *program* as the timing program of *netlist*'s content."""
    cache, token = _timing_memo(netlist, library)
    cache.pop(token, None)
    _remember(cache, token, program)


def _remember(cache, token, program):
    """Insert as most recently used, evicting the oldest when full."""
    if len(cache) >= _TIMING_MEMO_LIMIT:
        cache.pop(next(iter(cache)))
    cache[token] = program


def _compile_timing(netlist, library):
    order = netlist.topological_gates()
    slot_of = {CONST0: 0, CONST1: 1}
    for net in netlist.primary_inputs:
        slot_of.setdefault(net, len(slot_of))
    for gate in order:
        slot_of.setdefault(gate.output, len(slot_of))
    for net in netlist.primary_outputs:
        if net not in slot_of:
            raise NetlistError(
                "primary output %d is undriven (not a PI, constant or "
                "gate output)" % net)

    load_of = netlist.load_caps(library, wire_cap_ff=library.wire_cap_ff)
    n = len(order)
    base = np.empty(n, dtype=np.float64)
    loads = np.empty(n, dtype=np.float64)
    uids = np.empty(n, dtype=np.int64)
    out_slot = np.empty(n, dtype=np.int64)
    cell_index = np.empty(n, dtype=np.int64)
    cells = []
    cell_row = {}
    level_of = {}          # slot -> logic level (PIs/constants at 0)
    gate_level = np.empty(n, dtype=np.int64)
    for row, gate in enumerate(order):
        cell = library[gate.cell]
        idx = cell_row.get(gate.cell)
        if idx is None:
            idx = cell_row[gate.cell] = len(cells)
            cells.append(cell)
        cell_index[row] = idx
        loads[row] = load = load_of[gate.uid]
        base[row] = cell.delay_ps(load)
        uids[row] = gate.uid
        level = 0
        for net in gate.inputs:
            level = max(level, level_of.get(slot_of[net], 0))
        level += 1
        out_slot[row] = slot = slot_of[gate.output]
        level_of[slot] = level
        gate_level[row] = level

    levels = []
    if n:
        rows_by_level = {}
        for row in range(n):
            rows_by_level.setdefault(int(gate_level[row]), []).append(row)
        for level in sorted(rows_by_level):
            rows = np.asarray(rows_by_level[level], dtype=np.int64)
            arity = max(len(order[r].inputs) for r in rows_by_level[level])
            arity = max(arity, 1)
            in_slots = np.zeros((len(rows), arity), dtype=np.int64)
            for i, row in enumerate(rows_by_level[level]):
                for pin, net in enumerate(order[row].inputs):
                    in_slots[i, pin] = slot_of[net]
            levels.append(_Level(rows=rows, in_slots=in_slots,
                                 out_slots=out_slot[rows]))

    pi_slots = np.asarray([slot_of[net] for net in netlist.primary_inputs],
                          dtype=np.int64)
    po_slots = np.asarray([slot_of[net] for net in netlist.primary_outputs],
                          dtype=np.int64)
    return TimingProgram(netlist=netlist, slots=len(slot_of),
                         slot_of=slot_of, gate_uids=uids, out_slots=out_slot,
                         base_delay_ps=base, loads=loads, cells=cells,
                         cell_index=cell_index, levels=levels,
                         pi_slots=pi_slots, po_slots=po_slots)


# ---------------------------------------------------------------------------
# corner fan-out
# ---------------------------------------------------------------------------

def corner_label(scenario):
    """Stable label of a corner (``"fresh"`` for ``None``)."""
    return "fresh" if scenario is None else scenario.label


def corner_stress(program, corners):
    """Stress/lifetime arrays of a corner grid.

    Returns ``(sp, sn, years)``: per-gate pMOS/nMOS stress duty factors
    shaped ``(n_gates, C)`` plus per-corner lifetimes shaped ``(C,)``.
    Fresh corners contribute zero stress and zero years. This is the
    array form the sampled (Monte Carlo) delay path feeds to the
    vectorized BTI model instead of the per-key memo.
    """
    n = program.n_gates
    C = len(corners)
    sp = np.zeros((n, C), dtype=np.float64)
    sn = np.zeros((n, C), dtype=np.float64)
    years = np.zeros(C, dtype=np.float64)
    for col, scenario in enumerate(corners):
        if scenario is None or scenario.is_fresh:
            continue
        years[col] = float(scenario.years)
        if isinstance(scenario.stress, UniformStress):
            sp[:, col] = sn[:, col] = float(scenario.stress.s)
        else:
            for row, gate in enumerate(program.gates):
                p, q = scenario.gate_stress(gate)
                sp[row, col] = p
                sn[row, col] = q
    return sp, sn, years


def sampled_delays(program, corners, bti=DEFAULT_BTI):
    """Sampled delay function ``delays(dvth) -> (n_gates, C, S)``.

    ``dvth`` is ``(n_gates, S)`` extra threshold shift per (gate,
    sample), shared by the p- and n-networks. The per-run constants are
    computed here once; each call runs in-place broadcast ops over the
    ndarray-native BTI model in the operation order of ``base * (1 +
    wp*(mp-1) + wn*(mn-1))``, computing the multiplier once when the p-
    and n-network shifts are equal (uniform stress). It never touches
    the multiplier memo, which per-sample keys would flood (see
    :mod:`repro.aging.delay`).
    """
    sp, sn, years = corner_stress(program, corners)
    aged_p = bti.delta_vth(sp, years[None, :])[:, :, None]     # (G, C, 1)
    aged_n = bti.delta_vth(sn, years[None, :])[:, :, None]
    shared = np.array_equal(aged_p, aged_n)
    wp = np.asarray([cell.wp for cell in program.cells],
                    dtype=np.float64)[program.cell_index][:, None, None]
    wn = np.asarray([cell.wn for cell in program.cells],
                    dtype=np.float64)[program.cell_index][:, None, None]
    base = program.base_delay_ps[:, None, None]

    def delays(dvth):
        dvth = np.asarray(dvth, dtype=np.float64)
        if dvth.ndim != 2 or dvth.shape[0] != program.n_gates:
            raise ValueError(
                "dvth must be (n_gates, samples) = (%d, S), got %r"
                % (program.n_gates, dvth.shape))
        var = dvth[:, None, :]                                 # (G, 1, S)
        m = bti.delay_multiplier_from_dvth(aged_p + var, allow_speedup=True)
        m -= 1.0
        out = wp * m
        out += 1.0
        if not shared:
            m = bti.delay_multiplier_from_dvth(aged_n + var,
                                               allow_speedup=True)
            m -= 1.0
        m *= wn
        out += m
        out *= base
        return out

    return delays


def corner_delays(program, corners, bti=DEFAULT_BTI, degradation=None,
                  dvth=None):
    """Per-gate aged delays for every corner: ``(n_gates, C)`` float64.

    The per-corner multiplier table is built from the same memoized
    closed-form/table lookups the scalar path uses
    (:mod:`repro.aging.delay`) — per *distinct cell* under uniform
    stress, per gate under :class:`~repro.aging.stress.ActualStress` —
    so ``base * mult`` is the exact float the scalar loop computes.

    With *dvth* (per-gate Vth variation draws, ``(n_gates, S)``) the
    result instead carries a trailing sample axis — ``(n_gates, C, S)``
    — computed by :func:`sampled_delays` on the vectorized BTI model,
    bypassing the memo entirely. The ``dvth=None`` path is
    bit-identical to previous releases. Sampling needs the closed-form
    model: degradation-aware tables have no per-gate Vth semantics.
    """
    if dvth is not None:
        if degradation is not None:
            raise ValueError(
                "sampled corner delays need the closed-form BTI model; "
                "degradation-aware tables have no per-gate Vth semantics")
        return sampled_delays(program, corners, bti)(dvth)
    n = program.n_gates
    mult = np.ones((n, len(corners)), dtype=np.float64)
    for col, scenario in enumerate(corners):
        if scenario is None or scenario.is_fresh:
            continue
        if isinstance(scenario.stress, UniformStress):
            s = scenario.stress.s
            per_cell = np.asarray(
                [_stress_multiplier(cell, s, s, scenario.years, bti,
                                    degradation)
                 for cell in program.cells], dtype=np.float64)
            if n:
                mult[:, col] = per_cell[program.cell_index]
        else:
            cells = program.cells
            index = program.cell_index
            for row, gate in enumerate(program.gates):
                sp, sn = scenario.gate_stress(gate)
                mult[row, col] = _stress_multiplier(
                    cells[index[row]], sp, sn, scenario.years, bti,
                    degradation)
    return program.base_delay_ps[:, None] * mult


def _propagate(program, delays):
    """Levelized arrival propagation.

    Dimension-agnostic past the leading gate axis: ``(n_gates, C)``
    delays yield ``(slots, C)`` arrivals, ``(n_gates, C, S)`` sampled
    delays yield ``(slots, C, S)`` — the per-level gather/max/add is
    the same broadcast expression either way, so deterministic corners
    are literally the samples-free case of the Monte Carlo sweep.
    """
    arr = np.zeros((program.slots,) + delays.shape[1:], dtype=np.float64)
    for level in program.levels:
        at = arr[level.in_slots].max(axis=1)       # (gates, C[, S])
        arr[level.out_slots] = at + delays[level.rows]
    return arr


def _critical_paths(program, arrivals):
    """Max PO arrival per trailing cell: ``(C,)`` or ``(C, S)``."""
    if not len(program.po_slots):
        return np.zeros(arrivals.shape[1:], dtype=np.float64)
    return np.maximum(arrivals[program.po_slots].max(axis=0), 0.0)


class CornerLabels:
    """Corner lookup by index or label over a report's ``labels``."""

    def corner_index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError("corner %r not analyzed (have %s)"
                           % (label, list(self.labels)))

    def _corner(self, corner):
        return self.corner_index(corner) if isinstance(corner, str) \
            else corner


@dataclass
class BatchTimingReport(CornerLabels):
    """Arrival times of one netlist under a whole corner grid.

    ``arrivals`` is ``(slots, C)`` and ``delays`` ``(n_gates, C)``;
    :meth:`report` reconstructs the scalar
    :class:`~repro.sta.sta.TimingReport` of any corner, float-identical
    to what :func:`repro.sta.sta.analyze` would return.
    """

    program: TimingProgram
    corners: Tuple
    labels: Tuple[str, ...]
    arrivals: np.ndarray
    delays: np.ndarray
    critical_path_ps: np.ndarray

    def __len__(self):
        return len(self.corners)

    @property
    def critical_paths_ps(self):
        """Critical-path delays as plain floats, in corner order."""
        return [float(v) for v in self.critical_path_ps]

    def arrival_ps(self, net, corner=0):
        """Arrival of one net under one corner (index or label)."""
        corner = self._corner(corner)
        return float(self.arrivals[self.program.slot_of[net], corner])

    def report(self, corner=0):
        """Scalar :class:`~repro.sta.sta.TimingReport` of one corner."""
        corner = self._corner(corner)
        arrivals = {net: float(self.arrivals[slot, corner])
                    for net, slot in self.program.slot_of.items()}
        gate_delays = {int(uid): float(self.delays[row, corner])
                       for row, uid in enumerate(self.program.gate_uids)}
        return TimingReport(arrivals=arrivals, gate_delays=gate_delays,
                            critical_path_ps=float(
                                self.critical_path_ps[corner]),
                            scenario_label=self.labels[corner])

    def reports(self):
        return [self.report(i) for i in range(len(self.corners))]


def analyze_batch(netlist, library, corners, bti=DEFAULT_BTI,
                  degradation=None, program=None):
    """Run STA for every corner of a grid in one vectorized pass.

    Parameters
    ----------
    netlist:
        Design under analysis; must be acyclic.
    library:
        Cell library resolving cell names to delays.
    corners:
        Iterable of :class:`~repro.aging.scenario.AgingScenario` (or
        ``None`` for fresh silicon); uniform and per-gate
        (:class:`~repro.aging.stress.ActualStress`) annotations mix
        freely.
    program:
        Pre-compiled :class:`TimingProgram` (compiled/memoized from
        *netlist* when omitted).

    Returns
    -------
    BatchTimingReport
    """
    corners = tuple(corners)
    if not corners:
        raise ValueError("analyze_batch needs at least one corner")
    if program is None:
        program = compile_timing(netlist, library)
    labels = tuple(corner_label(c) for c in corners)
    with obs_trace.span("sta.analyze_batch", design=netlist.name,
                        corners=len(corners), gates=program.n_gates):
        delays = corner_delays(program, corners, bti=bti,
                               degradation=degradation)
        arrivals = _propagate(program, delays)
        cp = _critical_paths(program, arrivals)
    obs_metrics.inc(obs_metrics.STA_BATCH_RUNS)
    obs_metrics.inc(obs_metrics.STA_BATCH_CORNERS, len(corners))
    return BatchTimingReport(program=program, corners=corners,
                             labels=labels, arrivals=arrivals,
                             delays=delays, critical_path_ps=cp)


# ---------------------------------------------------------------------------
# incremental cone re-analysis (truncation sweeps)
# ---------------------------------------------------------------------------

@dataclass
class IncrementalTimingReport(CornerLabels):
    """Result of re-analyzing a truncation against cached arrivals.

    ``dropped`` marks gates whose inputs all became constant (they
    vanish under constant propagation and contribute no delay);
    ``const_slots`` marks nets that are constant after the tie. Arrival
    values are bit-identical to scalar STA on the :func:`tie_low`
    transform of the netlist.
    """

    program: TimingProgram
    baseline: BatchTimingReport
    tied: Tuple[int, ...]
    labels: Tuple[str, ...]
    arrivals: np.ndarray
    critical_path_ps: np.ndarray
    dropped: np.ndarray
    const_slots: np.ndarray
    cone_gates: int

    @property
    def cone_fraction(self):
        """Fraction of gates inside the re-propagated fan-out cone."""
        return self.cone_gates / max(self.program.n_gates, 1)

    @property
    def critical_paths_ps(self):
        return [float(v) for v in self.critical_path_ps]

    def report(self, corner=0):
        """Scalar :class:`~repro.sta.sta.TimingReport` of one corner.

        Arrivals cover every net of the *original* netlist (constant
        nets, including tied PIs and dropped-gate outputs, arrive at
        0.0); ``gate_delays`` covers only the surviving gates — exactly
        the gate set of the :func:`tie_low` netlist, under the same
        uids.
        """
        corner = self._corner(corner)
        arrivals = {net: float(self.arrivals[slot, corner])
                    for net, slot in self.program.slot_of.items()}
        gate_delays = {int(uid): float(self.baseline.delays[row, corner])
                       for row, uid in enumerate(self.program.gate_uids)
                       if not self.dropped[row]}
        return TimingReport(arrivals=arrivals, gate_delays=gate_delays,
                            critical_path_ps=float(
                                self.critical_path_ps[corner]),
                            scenario_label=self.labels[corner])


@dataclass
class ConePlan:
    """Structural fan-out-cone plan of one tied-PI set.

    Which gates are touched, which inputs become constant and which
    gates drop is a function of netlist *structure* only — independent
    of corners, delays, or sample draws — so a plan is computed once
    per ``(program, tied)`` and memoized on the program (bounded LRU).
    ``cone_gates`` counts the structural fan-out cone of the tied
    inputs and the rails; the replay itself touches only the cone of
    the gates that drop (:func:`delta_plan`).
    """

    tied: Tuple[int, ...]
    dropped: np.ndarray     # (n_gates,) bool
    const_slots: np.ndarray  # (slots,) bool
    cone_gates: int


@dataclass
class _DeltaStep:
    """One level of a delta plan: live rows to recompute, dropped
    outputs to zero."""

    rows: np.ndarray       # live gate rows to recompute
    ins: np.ndarray        # (g, pins) their input slots
    outs: np.ndarray       # (g,) their output slots
    zeroed: np.ndarray     # output slots of rows the target drops


@dataclass
class DeltaPlan:
    """What turns the arrivals of one truncation into another's.

    The steps cover the fan-out cone of the rows dropped by exactly one
    of the two plans, level by level; ``rows`` counts the gate rows in
    that cone (recomputed or zeroed).
    """

    steps: List
    rows: int


#: Per-program bound on memoized cone plans, delta plans and fan-out
#: cones (a sweep touches one plan per precision point, a campaign one
#: cone per grid point).
_CONE_MEMO_LIMIT = 32


def _memoized(program, attr, key, build, hits=None):
    """LRU lookup of *key* in the dict at ``program.<attr>``."""
    cache = getattr(program, attr, None)
    if cache is None:
        cache = {}
        setattr(program, attr, cache)
    plan = cache.pop(key, None)
    if plan is None:
        if len(cache) >= _CONE_MEMO_LIMIT:
            cache.pop(next(iter(cache)))
        plan = build()
    elif hits is not None:
        obs_metrics.inc(hits)
    cache[key] = plan
    return plan


def cone_plan(program, tied_pis):
    """Memoized :class:`ConePlan` for *tied_pis* tied to constant 0."""
    tied = tuple(dict.fromkeys(tied_pis))
    stray = [net for net in tied if net not in program.slot_of
             or net not in program.netlist.primary_inputs]
    if stray:
        raise ValueError("tied nets %s are not primary inputs of %s"
                         % (stray[:5], program.netlist.name))
    return _memoized(program, "_cone_memo", tied,
                     lambda: _build_cone_plan(program, tied),
                     obs_metrics.STA_CONE_PLAN_HITS)


def _build_cone_plan(program, tied):
    const = np.zeros(program.slots, dtype=bool)
    const[0] = const[1] = True                 # CONST0 / CONST1
    changed = np.zeros(program.slots, dtype=bool)
    # The constant rails seed the cone alongside the tied inputs:
    # tie_low also sweeps gates that were all-constant *before* the
    # tie, and bit-exactness against that oracle must not depend on
    # the netlist having been constant-swept already.
    changed[0] = changed[1] = True
    for net in tied:
        slot = program.slot_of[net]
        const[slot] = True
        changed[slot] = True
    dropped = np.zeros(program.n_gates, dtype=bool)
    cone = 0
    for level in program.levels:
        touched = changed[level.in_slots].any(axis=1)
        if not touched.any():
            continue
        outs = level.out_slots[touched]
        cone += len(outs)
        all_const = const[level.in_slots[touched]].all(axis=1)
        const[outs] = all_const
        dropped[level.rows[touched]] = all_const
        changed[outs] = True
    return ConePlan(tied=tied, dropped=dropped, const_slots=const,
                    cone_gates=cone)


def _fanout_levels(program, seeds):
    """Walk the fan-out cone of the rows where *seeds* (``(n_gates,)``
    bool) holds: yields ``(level, cone)`` for every level the cone
    reaches, in propagation order, *cone* a bool over ``level.rows``.
    A row is in the cone when it is a seed or reads a slot the cone
    wrote at an earlier level."""
    changed = np.zeros(program.slots, dtype=bool)
    for level in program.levels:
        cone = seeds[level.rows] | changed[level.in_slots].any(axis=1)
        if cone.any():
            changed[level.out_slots[cone]] = True
            yield level, cone


def fanout_rows(program, rows):
    """Ascending gate rows of the fan-out cone of *rows*: the rows
    themselves and every gate their outputs reach. Memoized on the
    program by the rows' content; the result is shared, read-only."""
    rows = np.unique(np.asarray(rows, dtype=np.int64))
    if not rows.size:
        return rows

    def build():
        seeds = np.zeros(program.n_gates, dtype=bool)
        seeds[rows] = True
        cone = np.zeros(program.n_gates, dtype=bool)
        for level, hit in _fanout_levels(program, seeds):
            cone[level.rows[hit]] = True
        return np.flatnonzero(cone)

    return _memoized(program, "_fanout_memo", rows.tobytes(), build)


def delta_plan(program, reference, target):
    """Memoized :class:`DeltaPlan` from *reference* to *target*.

    Both are :class:`ConePlan` objects, or ``None`` for the untruncated
    netlist (the arrivals :func:`_propagate` computes). Tying an input
    changes no arrival by itself, since inputs and rails arrive at 0.0;
    only a gate that starts or stops dropping does, and then so may its
    fan-out. The plan therefore recomputes the fan-out cone of the rows
    where ``dropped_ref XOR dropped_target``, which is correct for any
    two tie sets, nested or not. Keyed by the two tied sets' content.
    """
    key = (None if reference is None else reference.tied,
           None if target is None else target.tied)
    return _memoized(program, "_delta_memo", key,
                     lambda: _build_delta_plan(program, reference, target))


def _build_delta_plan(program, reference, target):
    none = np.zeros(program.n_gates, dtype=bool)
    ref = none if reference is None else reference.dropped
    tgt = none if target is None else target.dropped
    steps = []
    total = 0
    for level, cone in _fanout_levels(program, ref ^ tgt):
        outs = level.out_slots[cone]
        total += len(outs)
        # Only a flipped row can be dropped by the target: a row the
        # reference drops too reads no changed slot.
        zero = tgt[level.rows[cone]]
        live = cone.copy()
        live[cone] = ~zero
        steps.append(_DeltaStep(rows=level.rows[live],
                                ins=level.in_slots[live],
                                outs=level.out_slots[live],
                                zeroed=outs[zero]))
    return DeltaPlan(steps=steps, rows=total)


def replay_cone(delta, arrivals, delays):
    """Apply a :class:`DeltaPlan` to *arrivals* in place.

    *arrivals* is ``(slots, ...)`` and *delays* ``(n_gates, ...)`` with
    matching trailing dims — ``(C,)`` for deterministic batches,
    ``(C, S)`` for sampled Monte Carlo tensors; one replay serves both
    shapes. *arrivals* must hold the delta's reference truncation; on
    return it holds the target's. Each recomputed gate takes the same
    IEEE ``max`` and ``+`` over the same operands as a full propagation
    of the target would, and a slot outside the cone has unchanged
    inputs and delay, so the result is bit-identical to scalar STA on
    the :func:`tie_low` transform.

    Constant inputs need no mask: rails and tied primary inputs are
    never written, and a dropped gate is zeroed at its own level,
    before any later level reads it.
    """
    for step in delta.steps:
        if len(step.rows):
            at = arrivals[step.ins].max(axis=1)     # (g, C[, S])
            at += delays[step.rows]
            arrivals[step.outs] = at
        arrivals[step.zeroed] = 0.0
    obs_metrics.inc(obs_metrics.STA_REPLAY_ROWS, delta.rows)


def analyze_incremental(netlist, library, tied_pis, corners=(None,),
                        bti=DEFAULT_BTI, degradation=None, baseline=None,
                        program=None):
    """Re-analyze *netlist* with *tied_pis* tied to constant 0.

    Gates whose inputs all become constant are dropped (arrival 0.0,
    no delay contribution) — the timing view of the constant
    propagation a truncation sweep performs during synthesis. A copy
    of the baseline arrivals is replayed in place over the fan-out
    cone of the dropped gates (:func:`delta_plan` from ``None``);
    every other arrival is reused. ``cone_gates`` still reports the
    structural fan-out cone of the tied inputs.

    Parameters
    ----------
    tied_pis:
        Primary-input net ids to tie low (e.g. the K LSBs of each
        operand; see :func:`truncated_input_nets`).
    corners:
        Corner grid, as in :func:`analyze_batch`; ignored when
        *baseline* is given (its corners are reused).
    baseline:
        A :class:`BatchTimingReport` of the same program to re-analyze
        against; computed on the fly when omitted.

    Returns
    -------
    IncrementalTimingReport
    """
    if program is None:
        program = compile_timing(netlist, library)
    tied = tuple(dict.fromkeys(tied_pis))
    stray = [net for net in tied if net not in program.slot_of
             or net not in netlist.primary_inputs]
    if stray:
        raise ValueError("tied nets %s are not primary inputs of %s"
                         % (stray[:5], netlist.name))
    if baseline is None:
        baseline = analyze_batch(netlist, library, corners, bti=bti,
                                 degradation=degradation, program=program)
    elif baseline.program is not program:
        raise ValueError("baseline was computed for a different "
                         "timing program")
    labels = baseline.labels

    with obs_trace.span("sta.analyze_incremental", design=netlist.name,
                        tied=len(tied), corners=len(labels)):
        plan = cone_plan(program, tied)
        arr = baseline.arrivals.copy()
        replay_cone(delta_plan(program, None, plan), arr, baseline.delays)
        cp = _critical_paths(program, arr)
    fraction = plan.cone_gates / max(program.n_gates, 1)
    obs_metrics.inc(obs_metrics.STA_INCREMENTAL_RUNS)
    obs_metrics.observe(obs_metrics.STA_INCREMENTAL_CONE_FRACTION,
                        fraction,
                        boundaries=obs_metrics.FRACTION_BOUNDARIES)
    return IncrementalTimingReport(program=program, baseline=baseline,
                                   tied=plan.tied, labels=labels,
                                   arrivals=arr, critical_path_ps=cp,
                                   dropped=plan.dropped,
                                   const_slots=plan.const_slots,
                                   cone_gates=plan.cone_gates)


# ---------------------------------------------------------------------------
# truncation helpers + scalar oracle transform
# ---------------------------------------------------------------------------

def truncated_input_nets(component, netlist, precision):
    """PI nets of *netlist* tied low when *component* runs at *precision*.

    Mirrors :meth:`repro.rtl.component.RTLComponent.build`: each operand
    loses its ``min(width - precision, operand width)`` LSBs, and the
    netlist's primary inputs concatenate the operands in declaration
    order, LSB first.
    """
    drop = component.width - precision
    if drop < 0:
        raise ValueError("precision %d exceeds width %d"
                         % (precision, component.width))
    tied = []
    offset = 0
    for opwidth in component.operand_widths:
        k = min(drop, opwidth)
        tied.extend(netlist.primary_inputs[offset:offset + k])
        offset += opwidth
    if offset != len(netlist.primary_inputs):
        raise ValueError(
            "netlist has %d primary inputs but %s declares %d operand "
            "bits" % (len(netlist.primary_inputs), component.name, offset))
    return tied


def tie_low(netlist, tied_pis):
    """Explicitly tie *tied_pis* to ``CONST0`` and sweep constants.

    Returns a new netlist with the tied inputs removed from the
    interface, every gate whose inputs all became constant deleted, and
    surviving gates' constant inputs rewired to the ``CONST0`` rail.
    Gate uids and net ids are preserved, so per-gate annotations (e.g.
    :class:`~repro.aging.stress.ActualStress`) remain valid.

    This is the *scalar oracle* for :func:`analyze_incremental`: running
    plain :func:`repro.sta.sta.analyze` on the transformed netlist gives
    float-identical arrivals for every surviving net.
    """
    tied = set(tied_pis)
    stray = tied - set(netlist.primary_inputs)
    if stray:
        raise ValueError("tied nets %s are not primary inputs of %s"
                         % (sorted(stray)[:5], netlist.name))
    const = {CONST0, CONST1} | tied
    swept = Netlist(netlist.name + "_tied")
    swept._next_net = netlist._next_net
    swept._next_gate_uid = netlist._next_gate_uid
    swept.net_names = dict(netlist.net_names)
    swept.primary_inputs = [net for net in netlist.primary_inputs
                            if net not in tied]
    for gate in netlist.topological_gates():
        if all(net in const for net in gate.inputs):
            const.add(gate.output)
    # Keep the *original* gate-list order: load_caps sums fanout
    # contributions in that order, and a reordered sum can differ in
    # the last ulp — which would break the bit-exactness oracle.
    gates = []
    for gate in netlist.gates:
        if gate.output in const:
            continue
        inputs = tuple(CONST0 if net in const else net
                       for net in gate.inputs)
        gates.append(Gate(uid=gate.uid, cell=gate.cell, inputs=inputs,
                          output=gate.output, name=gate.name))
    swept.rebuild(gates)
    swept.set_outputs([CONST0 if net in const else net
                       for net in netlist.primary_outputs])
    swept.validate()
    return swept
