"""Array-compiled timing-driven sizing: the one production sizer.

Every sizing pass — "ultra" synthesis, sweep derivations and the
aging-aware baseline [4] — runs here, on a :class:`SizerProgram`:

* the program is built from the optimizer's arrays
  (:func:`sizer_for`, or :func:`compile_sizer` for a netlist, which
  lowers it with :func:`repro.synth.optimize.lower`): dense slots,
  a CSR reader index, the per-row loads and delays and one **level
  schedule** (:meth:`SizerProgram.finish`), all computed as array
  passes;
* each round recomputes the loads and delays of the upsized gates and
  their fan-in drivers, re-propagates with the STA kernel
  :func:`repro.sta.engine._propagate` over the schedule and takes
  slacks in one reverse level sweep over per-level reader segments;
* sizing may run under an **aged corner** (uniform or per-gate
  :class:`~repro.aging.stress.ActualStress`) and an **area budget**;
* the final program is **lowered** into the netlist's
  :class:`~repro.sta.engine.TimingProgram` (:func:`timing_program`), so
  STA after synthesis skips the gate walk and ``load_caps`` pass.

Everything is **bit-identical** to the dict-based oracle
:func:`repro.verify.sizing.upsize_critical_paths`: loads are summed in
the exact order of :meth:`Netlist.load_caps`, delays and aging
multipliers come from the same formulas, propagation performs the same
IEEE-754 max/add, and candidate selection replays the oracle's
margins, stall, area and round limits
(``tests/test_fastsize_oracle.py``, ``tests/test_synth_sweep.py``).
"""

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..aging.bti import DEFAULT_BTI
from ..aging.delay import _stress_multiplier
from ..aging.stress import UniformStress
from ..netlist.net import CONST0, CONST1
from ..netlist.netlist import NetlistError
from ..obs import metrics as obs_metrics
from ..sta.engine import TimingProgram, _Level, _propagate
from .optimize import lower
from .sizing import SizingReport

#: Global pin-count pad; every library cell has at most 3 inputs
#: (MUX2/AOI21/OAI21). Padding uses slot 0 (CONST0, arrival 0.0) — the
#: same identity the scalar max-loop starts from.
_MAX_PINS = 3


@dataclass
class SizerProgram:
    """A netlist lowered for incremental sizing rounds.

    Rows follow the netlist's topological order (for every synthesized
    netlist, its gate-list order). ``cell`` holds per-row cell ids of
    ``table`` (:class:`repro.synth.optimize.CellTable`). Slots are dense:
    CONST0, CONST1, the primary inputs, then one output slot per row.
    ``rd_ptr`` / ``rd_row`` / ``rd_pins`` index the readers of a slot
    (CSR, readers in gate-list order, each ``(row, pins read)`` once)
    and ``order`` lists the rows in gate-list order.
    :meth:`finish` builds the level schedule: ``levels``, the STA
    engine's :class:`~repro.sta.engine._Level` list, and per level
    ``readers`` ``(read, rows, starts)``: the level positions whose
    output is read, and their readers' rows as ``reduceat`` segments.
    :func:`upsize_fast` mutates exactly ``cell`` / ``incap`` / ``loads``
    / ``delay``; ``netlist`` is the netlist the program times, set by
    whoever materializes it.
    """

    netlist: object
    library: object
    table: object
    n: int
    uids: np.ndarray                  # (n,) int64
    cell: np.ndarray                  # (n,) cell ids
    incap: np.ndarray                 # (n,) cell input cap (fF)
    arity: np.ndarray                 # (n,) pins read per row
    out_slot: np.ndarray              # (n,) int64
    in_slots: np.ndarray              # (n, _MAX_PINS) int64, slot-0 padded
    row_level: np.ndarray             # (n,) int64
    loads: np.ndarray                 # (n,) float64
    delay: np.ndarray                 # (n,) float64 fresh delays
    slots: int
    slot_of: Dict[int, int]
    slot_row: np.ndarray              # (slots,) driving row, -1 if none
    po_slots: np.ndarray
    po_count: np.ndarray              # (slots,) multiplicity in POs
    rd_ptr: np.ndarray                # (slots + 1,)
    rd_row: np.ndarray
    rd_pins: np.ndarray
    order: np.ndarray                 # (n,) rows in gate-list order
    levels: List = field(default=None)      # [_Level] in propagation order
    readers: List = field(default=None)     # per level (read, rows, starts)

    @property
    def cellnames(self):
        """Per-row cell names."""
        names = self.table.names
        return [names[c] for c in self.cell.tolist()]

    def area(self):
        """Cell area summed in gate-list order (the float
        :meth:`Netlist.area` returns)."""
        return sum(self.table.electrical()[1][self.cell[self.order],
                                              3].tolist())

    def finish(self):
        """Build the level schedule from ``row_level`` and the CSR."""
        self.levels, self.readers = [], []
        if not self.n:
            return self
        order = np.argsort(self.row_level, kind="stable").astype(np.int64)
        lv = self.row_level[order]
        for rows in np.split(order, np.flatnonzero(lv[1:] != lv[:-1]) + 1):
            width = max(int(self.arity[rows].max()), 1)
            out = self.out_slot[rows]
            self.levels.append(_Level(rows=rows,
                                      in_slots=self.in_slots[rows, :width],
                                      out_slots=out))
            start = self.rd_ptr[out]
            count = self.rd_ptr[out + 1] - start
            first = np.cumsum(count) - count
            reads = (np.arange(int(count.sum()))
                     - np.repeat(first - start, count))
            read = np.flatnonzero(count)
            self.readers.append((read, self.rd_row[reads], first[read]))
        return self

    def clone(self):
        """Copy with private cells/loads/delays (structure and level
        schedule shared), so a sizing pass on the clone leaves this
        program unsized."""
        return dataclasses.replace(
            self, cell=self.cell.copy(), incap=self.incap.copy(),
            loads=self.loads.copy(), delay=self.delay.copy())

    def token(self):
        """Content token of the netlist this program times with its
        current cells: uids, cells, pins, output and interface nets."""
        digest = hashlib.blake2b(digest_size=16)
        nets = np.fromiter(self.slot_of, dtype=np.int64,
                           count=len(self.slot_of))
        for arr in (self.uids, nets, self.in_slots, self.po_slots):
            digest.update(arr.tobytes())
            digest.update(b"|")
        digest.update("\0".join(self.cellnames).encode())
        return digest.hexdigest()


def _loads(program, rows):
    """Output loads of *rows*, each summed in exact ``load_caps`` order.

    ``load_caps`` visits a driver's sinks in gate-list order, once per
    pin, adding ``pins * (input cap + wire)`` each time (so a sink reading
    the net on two pins adds twice that term twice); ``np.add.at``
    accumulates the expanded terms sequentially in that order.
    """
    library = program.library
    wire = library.wire_cap_ff
    out = program.out_slot[rows]
    start = program.rd_ptr[out]
    count = program.rd_ptr[out + 1] - start
    owner = np.repeat(np.arange(len(out)), count)
    first = np.cumsum(count) - count
    reads = (np.arange(int(count.sum())) - np.repeat(first, count)
             + np.repeat(start, count))
    pins = program.rd_pins[reads]
    term = pins * (program.incap[program.rd_row[reads]] + wire)
    each = np.repeat(np.arange(len(reads)), pins)
    pc = program.po_count[out]
    total = library.output_load_ff * pc
    np.add.at(total, owner[each], term[each])
    return total + wire * pc


def _fresh_delays(program, rows):
    """``cell.delay_ps(load)`` of *rows*, as arrays."""
    params = program.table.electrical()[1]
    cell = program.cell[rows]
    return params[cell, 1] + params[cell, 2] * program.loads[rows]


def _build(library, table, uids, cell, ins, out, level, pos, pis, po, pad):
    """A :class:`SizerProgram` (fresh delays) from optimizer arrays:
    per-row *uids*, cell ids of *table*, input nets (*pad*-padded),
    output nets, longest-path levels and gate-list positions, plus the
    interface nets."""
    n = len(uids)
    slot_of = {CONST0: 0, CONST1: 1}
    for net in pis:
        slot_of.setdefault(net, len(slot_of))
    first = len(slot_of)
    slot_of.update(zip(out.tolist(), range(first, first + n)))
    slots = len(slot_of)
    slot_net = np.fromiter(slot_of, dtype=np.int64, count=slots)
    slot_map = np.full(max(pad, int(slot_net.max())) + 1, -1,
                       dtype=np.int64)
    slot_map[slot_net] = np.arange(slots)
    po = np.asarray(po, dtype=np.int64)
    po_slots = slot_map[po]
    if (po_slots < 0).any():
        raise NetlistError(
            "primary output %d is undriven (not a PI, constant or gate "
            "output)" % po[np.argmax(po_slots < 0)])
    slot_map[pad] = 0
    in_slots = slot_map[ins]
    out_slot = np.arange(first, first + n, dtype=np.int64)

    cells, params, __ = table.electrical()
    for c in np.unique(cell).tolist():
        if cells[c] is None:
            library[table.names[c]]     # raises the library's KeyError
    arity = table.arrays()[5][cell]

    # Readers: each row once per distinct slot it reads, with the number
    # of pins reading it; CSR by slot, readers in gate-list order (the
    # order load_caps sums them in).
    used = np.arange(_MAX_PINS)[None, :] < arity[:, None]
    same = in_slots[:, :, None] == in_slots[:, None, :]
    same &= used[:, :, None] & used[:, None, :]
    head = used & ~np.tril(same, k=-1).any(axis=2)
    rows_r, cols_r = np.nonzero(head)
    sl = in_slots[rows_r, cols_r]
    order = np.lexsort((pos[rows_r], sl))
    slot_row = np.full(slots, -1, dtype=np.int64)
    slot_row[out_slot] = np.arange(n)
    program = SizerProgram(
        netlist=None, library=library, table=table, n=n, uids=uids,
        cell=np.array(cell, dtype=np.int64), incap=params[cell, 0],
        arity=arity, out_slot=out_slot, in_slots=in_slots,
        row_level=np.asarray(level, dtype=np.int64), loads=None,
        delay=None, slots=slots, slot_of=slot_of, slot_row=slot_row,
        po_slots=po_slots, po_count=np.bincount(po_slots, minlength=slots),
        rd_ptr=np.concatenate(([0], np.cumsum(np.bincount(
            sl, minlength=slots)))),
        rd_row=rows_r[order],
        rd_pins=same.sum(axis=2)[rows_r, cols_r][order],
        order=np.argsort(pos, kind="stable"))
    rows = np.arange(n)
    program.loads = _loads(program, rows)
    program.delay = _fresh_delays(program, rows)
    return program.finish()


def sizer_for(opt, library):
    """The pre-sizing :class:`SizerProgram` of an optimizer result
    (:class:`repro.synth.optimize.Optimized`)."""
    low = opt.low
    rows = opt.rows
    return _build(library, low.table, low.uid[rows], opt.cell[rows],
                  opt.ins[rows], low.out[rows], opt.level[rows],
                  np.arange(len(rows)), low.pis, opt.po, low.pad)


def compile_sizer(netlist, library):
    """Lower *netlist* into a :class:`SizerProgram` (fresh delays)."""
    low = lower(netlist, library)
    program = _build(library, low.table, low.uid, low.cell, low.ins,
                     low.out, low.level, low.pos, low.pis, low.po, low.pad)
    program.netlist = netlist
    return program


def critical_path(program, arr):
    """Critical path as the STA engine computes it (clipped at 0)."""
    if not len(program.po_slots):
        return 0.0
    return float(np.maximum(arr[program.po_slots].max(), 0.0))


def fresh_critical_path(program):
    """Critical path of *program*'s current cells, fresh."""
    return critical_path(program, _propagate(program, program.delay))


def _slacks(program, arr, constraint, delay):
    """Per-row slack, float-identical to ``sizing.gate_slacks``: in
    reverse level order, a row's required time is the minimum of its
    readers' budgets (their required time less their delay) and, at a
    primary output, *constraint*."""
    po_req = np.full(program.slots, np.inf, dtype=np.float64)
    po_req[program.po_slots] = constraint
    req = np.empty(program.n, dtype=np.float64)
    budget = np.empty(program.n, dtype=np.float64)
    for level, (read, readers, starts) in zip(reversed(program.levels),
                                              reversed(program.readers)):
        got = po_req[level.out_slots]
        if len(read):
            got[read] = np.minimum(
                got[read], np.minimum.reduceat(budget[readers], starts))
        req[level.rows] = got
        budget[level.rows] = got - delay[level.rows]
    return req - arr[program.out_slot]


def _aging(netlist, program, scenario, bti, degradation):
    """Aged delays under *scenario* (None when fresh): ``aged(rows)``
    is each row's fresh delay times the stress multiplier of its current
    cell, the product :func:`repro.sta.engine.corner_delays` forms: one
    multiplier per cell id under uniform stress, per gate under
    :class:`~repro.aging.stress.ActualStress` (which reads *netlist*'s
    gates)."""
    if scenario is None or scenario.is_fresh:
        return None
    years = scenario.years
    cells = program.table.electrical()[0]
    cell = program.cell
    fresh = program.delay
    if isinstance(scenario.stress, UniformStress):
        s = scenario.stress.s
        per_cell = np.full(len(cells), np.nan)

        def aged(rows):
            ids = cell[rows]
            for c in np.unique(ids[np.isnan(per_cell[ids])]).tolist():
                per_cell[c] = _stress_multiplier(cells[c], s, s, years, bti,
                                                 degradation)
            return fresh[rows] * per_cell[ids]
        return aged
    gate_of = {g.uid: g for g in netlist.gates}
    stress = [scenario.gate_stress(gate_of[uid])
              for uid in program.uids.tolist()]

    def aged(rows):
        return fresh[rows] * np.asarray(
            [_stress_multiplier(cells[cell[row]], *stress[row], years, bti,
                                degradation) for row in rows.tolist()],
            dtype=np.float64)
    return aged


def upsize_fast(netlist, library, target_ps, program=None, scenario=None,
                bti=DEFAULT_BTI, degradation=None, max_rounds=40,
                max_area_um2=None, slack_margin=0.05, stall_rounds=3):
    """Upsize near-critical cells until the critical path meets *target_ps*.

    Each round moves every gate whose slack is within ``slack_margin *
    critical_path`` one drive up (independently of one another, so the
    result does not depend on gate order), until the target is met,
    nothing is upsizable, the critical path stalls for *stall_rounds*
    rounds, *max_rounds* pass, or the cell area (summed in gate-list
    order) reaches *max_area_um2*. With *scenario* (uniform or
    ``ActualStress``), timing is aged. *program* (compiled if omitted)
    is updated in place; the final cells are written to *netlist*, which
    may be None for a program whose netlist is materialized afterwards
    (its rows are then the gate order). Returns ``(SizingReport,
    arrivals, critical_path)`` under the sizing corner.
    """
    if program is None:
        program = compile_sizer(netlist, library)
    upsized = 0
    best_cp = float("inf")
    stalled = 0
    rounds = 0
    cell = program.cell
    loads = program.loads
    fresh = program.delay
    __, params, up = program.table.electrical()
    aged = _aging(netlist, program, scenario, bti, degradation)
    delay = fresh if aged is None else aged(np.arange(program.n))
    area_rows = None if max_area_um2 is None else program.order
    arr = _propagate(program, delay)
    cp = critical_path(program, arr)
    slot_row = program.slot_row
    while rounds < max_rounds:
        if cp <= target_ps:
            break
        if area_rows is not None and sum(
                params[cell[area_rows], 3].tolist()) >= max_area_um2:
            break
        if cp < best_cp - 1e-9:
            best_cp = cp
            stalled = 0
        else:
            stalled += 1
            if stalled >= stall_rounds:
                break
        slack = _slacks(program, arr, cp, delay)
        margin = slack_margin * cp
        cand = np.flatnonzero(slack <= margin)
        stronger = up[cell[cand]]
        movable = stronger >= 0
        changed = cand[movable]
        if not len(changed):
            break
        # Every candidate moves one drive up on its own, so the oracle's
        # sorted-uid visiting order has nothing to decide here.
        cell[changed] = stronger[movable]
        program.incap[changed] = params[cell[changed], 0]
        upsized += len(changed)
        rounds += 1
        # Upsized cells change their own delay directly and — via input
        # capacitance — the load (hence delay) of their fan-in drivers;
        # everything else keeps the identical float.
        fanin = slot_row[program.in_slots[changed]]
        fanin = np.unique(fanin[fanin >= 0])
        loads[fanin] = _loads(program, fanin)
        rows = np.union1d(changed, fanin)
        fresh[rows] = _fresh_delays(program, rows)
        if aged is not None:
            delay[rows] = aged(rows)
        arr = _propagate(program, delay)
        cp = critical_path(program, arr)
    # Only the final cells are observable; apply them once at the end.
    if upsized and netlist is not None:
        row_of = dict(zip(program.uids.tolist(), range(program.n)))
        names = program.cellnames
        for g in netlist.gates:
            g.cell = names[row_of[g.uid]]
    _size_metrics(rounds, upsized)
    return (SizingReport(met=cp <= target_ps, target_ps=target_ps,
                         achieved_ps=cp, upsized=upsized, rounds=rounds),
            arr, cp)


def timing_program(program):
    """The :class:`~repro.sta.engine.TimingProgram` of
    ``program.netlist``, from the sizer's current arrays (after
    :func:`upsize_fast`, or unsized): the sizer's dense slots, rows and
    level schedule are the timing program's.
    :func:`repro.sta.engine.compile_timing` lowers every netlist here."""
    netlist = program.netlist
    # Distinct cells in order of first appearance.
    distinct, first, index = np.unique(program.cell, return_index=True,
                                       return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    cells = program.table.electrical()[0]
    return TimingProgram(
        netlist=netlist, slots=program.slots, slot_of=program.slot_of,
        gate_uids=program.uids.copy(), out_slots=program.out_slot.copy(),
        base_delay_ps=program.delay.copy(),
        loads=program.loads.copy(),
        cells=[cells[c] for c in distinct[order].tolist()],
        cell_index=rank[index.reshape(-1)].astype(np.int64),
        levels=program.levels, gate_order=program.order,
        pi_slots=np.asarray([program.slot_of[net]
                             for net in netlist.primary_inputs],
                            dtype=np.int64),
        po_slots=program.po_slots.copy())


def _size_metrics(rounds, upsized):
    obs_metrics.inc(obs_metrics.SYNTH_SIZING_ROUNDS, rounds)
    obs_metrics.inc(obs_metrics.SYNTH_SIZING_UPSIZES, upsized)
