"""Array-compiled timing-driven sizing: the one production sizer.

Every sizing pass — "ultra" synthesis, sweep derivations and the
aging-aware baseline [4] — runs here, on a :class:`SizerProgram`
lowered once per netlist:

* arrivals are re-propagated **incrementally** per round: only upsized
  gates, their fan-in drivers (whose loads changed) and the slots
  downstream of them are recomputed; slacks are vectorized level sweeps;
* sizing may run under an **aged corner** (uniform or per-gate
  :class:`~repro.aging.stress.ActualStress`) and an **area budget**;
* a *truncated variant*'s program is **patched** from a base program
  (:func:`patch_sizer`) instead of recompiled;
* the final program is **lowered** into the netlist's
  :class:`~repro.sta.engine.TimingProgram` (:func:`timing_program`), so
  STA after synthesis skips the gate walk and ``load_caps`` pass.

Everything is **bit-identical** to the dict-based oracle
:func:`repro.verify.sizing.upsize_critical_paths`: loads are summed in
the exact gate-list order of :meth:`Netlist.load_caps`, delays and
aging multipliers come from the same calls, propagation performs the
same IEEE-754 max/add, and candidate selection replays the oracle's
sorted-uid order, margins, stall, area and round limits
(``tests/test_fastsize_oracle.py``, ``tests/test_synth_sweep.py``).
"""

import heapq
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..aging.bti import DEFAULT_BTI
from ..aging.delay import _stress_multiplier
from ..netlist.net import CONST0, CONST1
from ..netlist.netlist import NetlistError
from ..obs import metrics as obs_metrics
from ..sta.engine import TimingProgram, _Level
from .sizing import SizingReport

#: Global pin-count pad; every library cell has at most 3 inputs
#: (MUX2/AOI21/OAI21). Padding uses slot 0 (CONST0, arrival 0.0) — the
#: same identity the scalar max-loop starts from.
_MAX_PINS = 3


@dataclass
class SizerProgram:
    """A netlist lowered for incremental sizing rounds.

    Per-row arrays follow the netlist's gate-list order (which the
    synthesis pipeline keeps raw-position ascending). ``readers`` maps a
    net to ``(uid, pin_count)`` pairs in gate-list order — uid-keyed so
    the index survives row renumbering during :func:`patch_sizer`.
    """

    netlist: object
    library: object
    n: int
    uids: np.ndarray                  # (n,) int64
    uid_row: Dict[int, int]
    cellnames: List[str]
    cells: List                       # Cell objects, per row
    ins: List[tuple]                  # input net tuples, per row
    out_net: List[int]
    out_slot: np.ndarray              # (n,) int64
    in_slots: np.ndarray              # (n, _MAX_PINS) int64, slot-0 padded
    row_level: np.ndarray             # (n,) int64
    incap: List[float]                # per-row cell input cap (fF)
    loads: np.ndarray                 # (n,) float64
    delay: np.ndarray                 # (n,) float64 fresh delays
    slots: int
    slot_of: Dict[int, int]
    slot_level: np.ndarray            # (slots,) int64 (PIs/consts at 0)
    po_slots: np.ndarray
    po_count: Dict[int, int]          # net -> multiplicity in PO list
    readers: Dict[int, list]          # net -> [(uid, pins)] in list order
    driver_row: Dict[int, int]        # net -> driving row
    level_order: np.ndarray = field(default=None)   # rows by (level, pos)
    level_bounds: List = field(default=None)        # [(start, end)] slices

    def finish(self):
        """(Re)build the level schedule from ``row_level``."""
        order = np.argsort(self.row_level, kind="stable").astype(np.int64)
        self.level_order = order
        bounds = []
        if self.n:
            lv = self.row_level[order]
            cut = np.flatnonzero(lv[1:] != lv[:-1]) + 1
            starts = np.concatenate(([0], cut))
            ends = np.concatenate((cut, [self.n]))
            bounds = list(zip(starts.tolist(), ends.tolist()))
        self.level_bounds = bounds
        return self

    def clone(self):
        """Copy with private cells/loads/delays (structure shared).

        :func:`upsize_fast` mutates exactly ``cellnames`` / ``cells`` /
        ``incap`` / ``loads`` / ``delay``; cloning before sizing
        preserves the pre-sizing program for :func:`patch_sizer` while
        the clone absorbs the sizing mutations. Everything else (slots,
        levels, readers, schedules) is upsizing-invariant and shared.
        """
        return SizerProgram(
            netlist=self.netlist, library=self.library, n=self.n,
            uids=self.uids, uid_row=self.uid_row,
            cellnames=list(self.cellnames), cells=list(self.cells),
            ins=self.ins, out_net=self.out_net, out_slot=self.out_slot,
            in_slots=self.in_slots, row_level=self.row_level,
            incap=list(self.incap),
            loads=self.loads.copy(), delay=self.delay.copy(),
            slots=self.slots, slot_of=self.slot_of,
            slot_level=self.slot_level, po_slots=self.po_slots,
            po_count=self.po_count, readers=self.readers,
            driver_row=self.driver_row,
            level_order=self.level_order, level_bounds=self.level_bounds)


def _gate_load(program, row):
    """Output load of one row, summed in exact ``load_caps`` order."""
    library = program.library
    wire = library.wire_cap_ff
    out = program.out_net[row]
    pc = program.po_count.get(out, 0)
    total = library.output_load_ff * pc
    incap = program.incap
    uid_row = program.uid_row
    for uid, pins in program.readers.get(out, ()):
        if pins == 1:
            total += incap[uid_row[uid]] + wire
        else:
            # ``load_caps`` visits a sink once per pin and adds the
            # *full* multiplicity each time (pins^2 terms for
            # duplicate-pin reads); replicate the exact accumulation
            # for bit equality.
            term = pins * (incap[uid_row[uid]] + wire)
            for __ in range(pins):
                total += term
    return total + wire * pc


def compile_sizer(netlist, library):
    """Lower *netlist* into a :class:`SizerProgram` (fresh delays)."""
    gates = netlist.topological_gates()
    n = len(gates)
    slot_of = {0: 0, 1: 1}
    for net in netlist.primary_inputs:
        slot_of.setdefault(net, len(slot_of))
    for g in gates:
        slot_of.setdefault(g.output, len(slot_of))

    po_count = {}
    for net in netlist.primary_outputs:
        po_count[net] = po_count.get(net, 0) + 1

    readers = {}
    for row, g in enumerate(gates):
        seen = {}
        for net in g.inputs:
            seen[net] = seen.get(net, 0) + 1
        for net, pins in seen.items():
            readers.setdefault(net, []).append((g.uid, pins))

    cells = [library[g.cell] for g in gates]
    prog = SizerProgram(
        netlist=netlist, library=library, n=n,
        uids=np.asarray([g.uid for g in gates], dtype=np.int64),
        uid_row={g.uid: row for row, g in enumerate(gates)},
        cellnames=[g.cell for g in gates],
        cells=cells,
        ins=[g.inputs for g in gates],
        out_net=[g.output for g in gates],
        out_slot=np.asarray([slot_of[g.output] for g in gates],
                            dtype=np.int64),
        in_slots=np.zeros((n, _MAX_PINS), dtype=np.int64),
        row_level=np.zeros(n, dtype=np.int64),
        incap=[c.input_cap_ff for c in cells],
        loads=np.zeros(n, dtype=np.float64),
        delay=np.zeros(n, dtype=np.float64),
        slots=len(slot_of), slot_of=slot_of,
        slot_level=np.zeros(len(slot_of), dtype=np.int64),
        po_slots=np.asarray([slot_of[net]
                             for net in netlist.primary_outputs],
                            dtype=np.int64),
        po_count=po_count, readers=readers,
        driver_row={g.output: row for row, g in enumerate(gates)})

    slot_level = prog.slot_level
    for row, g in enumerate(gates):
        level = 0
        for pin, net in enumerate(g.inputs):
            s = slot_of[net]
            prog.in_slots[row, pin] = s
            lv = slot_level[s]
            if lv > level:
                level = lv
        level += 1
        slot_level[prog.out_slot[row]] = level
        prog.row_level[row] = level
    for row in range(n):
        prog.loads[row] = _gate_load(prog, row)
        prog.delay[row] = prog.cells[row].delay_ps(prog.loads[row])
    return prog.finish()


def propagate_full(program, delay=None):
    """Levelized arrival propagation (same arithmetic as the STA engine).

    *delay* overrides the program's fresh per-row delays (aged sizing).
    """
    delay = program.delay if delay is None else delay
    arr = np.zeros(program.slots, dtype=np.float64)
    order = program.level_order
    for start, end in program.level_bounds:
        rows = order[start:end]
        at = arr[program.in_slots[rows]].max(axis=1) + delay[rows]
        arr[program.out_slot[rows]] = at
    return arr


def _propagate_masked(program, arr, forced_rows, delay):
    """Re-propagate only rows whose delay or any input arrival changed.

    Skipped rows would recompute the identical float, so the result is
    bit-equal to :func:`propagate_full` on the updated program.
    """
    changed = np.zeros(program.slots, dtype=bool)
    order = program.level_order
    for start, end in program.level_bounds:
        rows = order[start:end]
        touched = forced_rows[rows] | changed[program.in_slots[rows]].any(axis=1)
        if not touched.any():
            continue
        rr = rows[touched]
        at = arr[program.in_slots[rr]].max(axis=1) + delay[rr]
        outs = program.out_slot[rr]
        diff = at != arr[outs]
        arr[outs] = at
        changed[outs[diff]] = True
    return arr


def critical_path(program, arr):
    """Critical path as the STA engine computes it (clipped at 0)."""
    if not len(program.po_slots):
        return 0.0
    return float(np.maximum(arr[program.po_slots].max(), 0.0))


def _slacks(program, arr, constraint, delay):
    """Per-row slack, float-identical to ``sizing.gate_slacks``."""
    req = np.full(program.slots, np.inf, dtype=np.float64)
    np.minimum.at(req, program.po_slots, constraint)
    order = program.level_order
    for start, end in reversed(program.level_bounds):
        rows = order[start:end]
        budget = req[program.out_slot[rows]] - delay[rows]
        np.minimum.at(req, program.in_slots[rows],
                      np.broadcast_to(budget[:, None],
                                      (len(rows), _MAX_PINS)))
    return req[program.out_slot] - arr[program.out_slot]


def _aging(netlist, program, scenario, bti, degradation):
    """Per-row aged delay under *scenario* (None when fresh): fresh delay
    times the stress multiplier of the row's current cell, the product
    :func:`repro.sta.engine.corner_delays` forms."""
    if scenario is None or scenario.is_fresh:
        return None
    years = scenario.years
    cells = program.cells
    fresh = program.delay
    gate_of = {g.uid: g for g in netlist.gates}
    stress = [scenario.gate_stress(gate_of[uid])
              for uid in program.uids.tolist()]

    def aged(row):
        sp, sn = stress[row]
        return fresh[row] * _stress_multiplier(cells[row], sp, sn, years,
                                               bti, degradation)
    return aged


def upsize_fast(netlist, library, target_ps, program=None, scenario=None,
                bti=DEFAULT_BTI, degradation=None, max_rounds=40,
                max_area_um2=None, slack_margin=0.05, stall_rounds=3):
    """Upsize near-critical cells until the critical path meets *target_ps*.

    Each round upsizes, in sorted-uid order, every gate whose slack is
    within ``slack_margin * critical_path``, until the target is met,
    nothing is upsizable, the critical path stalls for *stall_rounds*
    rounds, *max_rounds* pass, or the cell area (summed in gate-list
    order) reaches *max_area_um2*. With *scenario* (uniform or
    ``ActualStress``), timing is aged. *program* (compiled if omitted)
    is updated in place; the final cells are written to *netlist*.
    Returns ``(SizingReport, arrivals, critical_path)`` under the sizing
    corner.
    """
    if program is None:
        program = compile_sizer(netlist, library)
    upsized = 0
    best_cp = float("inf")
    stalled = 0
    rounds = 0
    cellnames = program.cellnames
    cells = program.cells
    incap = program.incap
    loads = program.loads
    fresh = program.delay
    aged = _aging(netlist, program, scenario, bti, degradation)
    delay = (fresh if aged is None
             else np.asarray([aged(row) for row in range(program.n)],
                             dtype=np.float64))
    area_rows = (None if max_area_um2 is None
                 else [program.uid_row[g.uid] for g in netlist.gates])
    arr = propagate_full(program, delay)
    cp = critical_path(program, arr)
    driver_row = program.driver_row
    up = library.next_drive_up
    cell_of = library.__getitem__
    while rounds < max_rounds:
        if cp <= target_ps:
            break
        if area_rows is not None and sum(
                cells[row].area for row in area_rows) >= max_area_um2:
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
        # Sorted-uid candidate order: the upsize sequence is a function
        # of netlist content, independent of gate-list order.
        cand = cand[np.argsort(program.uids[cand], kind="stable")]
        changed_rows = []
        for row in cand.tolist():
            stronger = up(cellnames[row])
            if stronger is not None:
                cellnames[row] = stronger
                cell = cell_of(stronger)
                cells[row] = cell
                incap[row] = cell.input_cap_ff
                changed_rows.append(row)
        if not changed_rows:
            break
        upsized += len(changed_rows)
        rounds += 1
        # Upsized cells change their own delay directly and — via input
        # capacitance — the load (hence delay) of their fan-in drivers;
        # everything else recomputes to the identical float.
        fanin = {driver_row[net] for row in changed_rows
                 for net in program.ins[row] if net in driver_row}
        forced = np.zeros(program.n, dtype=bool)
        forced[changed_rows] = True
        for row in fanin:
            loads[row] = _gate_load(program, row)
            forced[row] = True
        for row in np.flatnonzero(forced).tolist():
            fresh[row] = cells[row].delay_ps(loads[row])
            if aged is not None:
                delay[row] = aged(row)
        arr = _propagate_masked(program, arr, forced, delay)
        cp = critical_path(program, arr)
    # Only the final cells are observable; apply them once at the end.
    if upsized:
        uid_row = program.uid_row
        for g in netlist.gates:
            g.cell = cellnames[uid_row[g.uid]]
    _size_metrics(rounds, upsized)
    return (SizingReport(met=cp <= target_ps, target_ps=target_ps,
                         achieved_ps=cp, upsized=upsized, rounds=rounds),
            arr, cp)


def timing_program(program):
    """The :class:`~repro.sta.engine.TimingProgram` ``_compile_timing``
    would build for ``program.netlist``, from the sizer's current arrays
    (after :func:`upsize_fast`, or unsized) instead of a gate walk."""
    netlist = program.netlist
    slot_of = {CONST0: 0, CONST1: 1}
    for net in netlist.primary_inputs:
        slot_of.setdefault(net, len(slot_of))
    for net in program.out_net:
        slot_of.setdefault(net, len(slot_of))
    for net in netlist.primary_outputs:
        if net not in slot_of:
            raise NetlistError(
                "primary output %d is undriven (not a PI, constant or "
                "gate output)" % net)
    # Sizer slots (a patched program keeps dead ones) -> dense slots.
    remap = np.zeros(program.slots, dtype=np.int64)
    sizer_slot = program.slot_of
    remap[[sizer_slot[net] for net in slot_of]] = np.arange(len(slot_of))

    cell_row = {}   # distinct cells in order of first appearance
    cell_index = np.fromiter((cell_row.setdefault(name, len(cell_row))
                              for name in program.cellnames),
                             dtype=np.int64, count=program.n)
    arity = np.fromiter((len(ins) for ins in program.ins), dtype=np.int64,
                        count=program.n)
    levels = []
    for start, end in program.level_bounds:
        rows = program.level_order[start:end]
        width = max(int(arity[rows].max()), 1)
        levels.append(_Level(rows=rows,
                             in_slots=remap[program.in_slots[rows, :width]],
                             out_slots=remap[program.out_slot[rows]]))
    return TimingProgram(
        netlist=netlist, slots=len(slot_of), slot_of=slot_of,
        gates=tuple(netlist.topological_gates()),
        gate_uids=program.uids.copy(), base_delay_ps=program.delay.copy(),
        loads=program.loads.copy(),
        cells=[program.library[name] for name in cell_row],
        cell_index=cell_index, levels=levels,
        pi_slots=np.asarray([slot_of[net]
                             for net in netlist.primary_inputs],
                            dtype=np.int64),
        po_slots=np.asarray([slot_of[net]
                             for net in netlist.primary_outputs],
                            dtype=np.int64))


def _size_metrics(rounds, upsized):
    obs_metrics.inc(obs_metrics.SYNTH_SIZING_ROUNDS, rounds)
    obs_metrics.inc(obs_metrics.SYNTH_SIZING_UPSIZES, upsized)


def patch_sizer(base, netlist, library, gone_uids, changed_uids,
                extra_uids):
    """Derive the :class:`SizerProgram` of *netlist* from *base*.

    *netlist* must differ from ``base.netlist`` only by: removed gates
    (*gone_uids*), gates with changed cell/inputs (*changed_uids*),
    appended-or-revived gates (*extra_uids*), and its primary-output
    list — exactly the deltas a sweep derive produces. Loads, levels and
    delays are recomputed only where those deltas reach; every untouched
    value is byte-copied from *base*, so the result equals
    :func:`compile_sizer` on *netlist* bit-for-bit.
    """
    gone = set(gone_uids)
    changed = set(changed_uids)
    extra = set(extra_uids)
    gates = netlist.topological_gates()
    n = len(gates)
    uid_row = {g.uid: row for row, g in enumerate(gates)}

    # --- slots: base mapping plus fresh slots for new outputs ---------
    slot_of = dict(base.slot_of)
    for g in gates:
        slot_of.setdefault(g.output, len(slot_of))
    slots = len(slot_of)

    po_count = {}
    for net in netlist.primary_outputs:
        po_count[net] = po_count.get(net, 0) + 1

    # --- per-row metadata: copy clean rows, rebuild dirty ones --------
    dirty = changed | extra
    cellnames = [None] * n
    cells = [None] * n
    incap = [0.0] * n
    ins = [None] * n
    out_net = [None] * n
    out_slot = np.empty(n, dtype=np.int64)
    in_slots = np.zeros((n, _MAX_PINS), dtype=np.int64)
    base_row = base.uid_row
    clean_rows = []
    clean_brs = []
    hb_rows = []        # rows present in base (clean or changed)
    hb_brs = []
    new_rows = []
    for row, g in enumerate(gates):
        out = g.output
        out_net[row] = out
        out_slot[row] = slot_of[out]
        br = base_row.get(g.uid)
        if br is None:
            new_rows.append(row)
        else:
            hb_rows.append(row)
            hb_brs.append(br)
        if g.uid in dirty or br is None:
            cellnames[row] = g.cell
            cell = library[g.cell]
            cells[row] = cell
            incap[row] = cell.input_cap_ff
            ins[row] = g.inputs
            for pin, net in enumerate(g.inputs):
                in_slots[row, pin] = slot_of[net]
        else:
            cellnames[row] = base.cellnames[br]
            cells[row] = base.cells[br]
            incap[row] = base.incap[br]
            ins[row] = base.ins[br]
            clean_rows.append(row)
            clean_brs.append(br)
    if clean_rows:
        crows = np.asarray(clean_rows, dtype=np.int64)
        cbrs = np.asarray(clean_brs, dtype=np.int64)
        in_slots[crows] = base.in_slots[cbrs]
    hb_rows = np.asarray(hb_rows, dtype=np.int64)
    hb_brs = np.asarray(hb_brs, dtype=np.int64)

    prog = SizerProgram(
        netlist=netlist, library=library, n=n,
        uids=np.asarray([g.uid for g in gates], dtype=np.int64),
        uid_row=uid_row, cellnames=cellnames, cells=cells, ins=ins,
        out_net=out_net, out_slot=out_slot, in_slots=in_slots,
        row_level=np.zeros(n, dtype=np.int64),
        incap=incap,
        loads=np.zeros(n, dtype=np.float64),
        delay=np.zeros(n, dtype=np.float64),
        slots=slots, slot_of=slot_of,
        slot_level=np.zeros(slots, dtype=np.int64),
        po_slots=np.asarray([slot_of[net]
                             for net in netlist.primary_outputs],
                            dtype=np.int64),
        po_count=po_count, readers=None, driver_row=None)

    # --- readers: filter base lists, splice in dirty rows' reads ------
    # Affected nets: everything read by a removed/changed row before, or
    # by a changed/extra row now, plus PO-multiplicity diffs.
    affected = set()
    removed_reads = {}
    for uid in gone | changed:
        br = base_row.get(uid)
        if br is not None:
            removed_reads[uid] = True
            affected.update(base.ins[br])
    added = {}
    for row, g in enumerate(gates):
        if g.uid in dirty:
            affected.update(g.inputs)
            seen = {}
            for net in g.inputs:
                seen[net] = seen.get(net, 0) + 1
            for net, pins in seen.items():
                added.setdefault(net, []).append((g.uid, pins))
    for net in set(base.po_count) | set(po_count):
        if base.po_count.get(net) != po_count.get(net):
            affected.add(net)

    readers = _PatchedReaders(base.readers, removed_reads, added, uid_row)
    prog.readers = readers
    prog.driver_row = {g.output: row for row, g in enumerate(gates)}

    # --- levels: copy, then worklist-propagate from dirty rows --------
    slot_level = prog.slot_level
    slot_level[:base.slots] = base.slot_level
    prog.row_level[hb_rows] = base.row_level[hb_brs]
    prog.row_level[new_rows] = -1
    pending = sorted(uid_row[u] for u in dirty if u in uid_row)
    heap = list(pending)
    heapq.heapify(heap)
    queued = set(heap)
    while heap:
        row = heapq.heappop(heap)
        queued.discard(row)
        level = 0
        for net in ins[row]:
            lv = slot_level[slot_of[net]]
            if lv > level:
                level = lv
        level += 1
        if level == prog.row_level[row]:
            continue
        prog.row_level[row] = level
        slot_level[out_slot[row]] = level
        for uid, __ in readers.get(out_net[row], ()):
            r = uid_row.get(uid)
            if r is not None and r not in queued:
                heapq.heappush(heap, r)
                queued.add(r)

    # --- loads and delays: copy, recompute where affected -------------
    prog.loads[hb_rows] = base.loads[hb_brs]
    prog.delay[hb_rows] = base.delay[hb_brs]
    redo = set(new_rows)
    driver_row = prog.driver_row
    for uid in changed:
        row = uid_row.get(uid)
        if row is not None:
            redo.add(row)
    for net in affected:
        row = driver_row.get(net)
        if row is not None:
            redo.add(row)
    for row in redo:
        prog.loads[row] = _gate_load(prog, row)
        prog.delay[row] = prog.cells[row].delay_ps(prog.loads[row])
    return prog.finish()


class _PatchedReaders:
    """Reader index of a patched program, resolved lazily per net.

    ``base`` lists survive unfiltered for untouched nets; nets read by
    removed/changed/added rows merge the filtered base list with the
    dirty rows' current reads, ordered by gate-list position.
    """

    def __init__(self, base, removed_uids, added, uid_row):
        self._base = base
        self._removed = removed_uids
        self._added = added
        self._uid_row = uid_row
        self._memo = {}

    def get(self, net, default=()):
        got = self._memo.get(net)
        if got is not None:
            return got
        uid_row = self._uid_row
        removed = self._removed
        base = self._base.get(net, ())
        add = self._added.get(net)
        if add is None:
            for uid, __ in base:
                if uid in removed or uid not in uid_row:
                    break
            else:
                # untouched net: the base list survives verbatim (reader
                # lists are never mutated, so sharing it is safe)
                self._memo[net] = base
                return base
        entries = [e for e in base
                   if e[0] not in removed and e[0] in uid_row]
        if add is not None:
            entries.extend(e for e in add if e[0] in uid_row)
            entries.sort(key=lambda e: uid_row[e[0]])
        self._memo[net] = entries
        return entries
