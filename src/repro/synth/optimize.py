"""Netlist optimization: one levelized array engine for all synthesis.

These passes are the working core of the reproduction's "logic
synthesis" (the stand-in for Synopsys Design Compiler): constant
propagation, algebraic single-gate simplification, inverter/buffer
cleanup, structural hashing and dead-gate elimination. Constant
propagation is what turns a precision reduction (operand LSBs tied to
constant 0) into a physically smaller and faster netlist — the
mechanism behind the paper's area/power/delay savings.

A netlist is lowered **once** (:func:`lower`) to arrays in
``topological_gates()`` order — cell ids, an ``(n, 3)`` input-net
matrix padded with a never-driven net, output nets and longest-path
levels — and every optimization round runs four levelized NumPy sweeps
over those arrays:

* **constant propagation** resolves each level's inputs and looks every
  gate up in one table indexed by (cell, const/live code of the three
  pins, equality pattern of the pins). :class:`CellTable` generates the
  table from :func:`_constprop_step`, the one statement of the rewrite
  rules;
* **inverter cleanup** aliases BUFs and INV(INV(x)) pairs away and
  recomputes the longest-path levels of what it keeps;
* **structural hashing** groups each of those levels on packed
  ``(kind, inputs sorted if commutative)`` keys and aliases every gate
  to the lowest-position gate of its group. Duplicates always share a
  longest-path level of the pass's input netlist (their inputs are
  duplicates or equal), so grouping per level is exact;
* **dead-gate elimination** is a reverse level sweep from the primary
  outputs.

The result equals the dict-walking passes of
:mod:`repro.verify.optimize` gate for gate — uids, cells, input tuples,
order and primary outputs (``tests/test_optimize_engine.py``). Every
synthesis runs here: scratch :func:`~repro.synth.synthesize.synthesize`,
the sweep base and its truncated derivations
(:mod:`repro.synth.sweep`), the aging-aware baseline and
:func:`optimize`.
"""

import operator
import weakref
from itertools import chain, product

import numpy as np

from ..cells.cell import CELL_KINDS, cell_function
from ..netlist.gate import split_cell
from ..netlist.net import CONST0, CONST1, const_value, is_const
from ..netlist.netlist import GateRows, Netlist, NetlistError
from ..obs import metrics as obs_metrics


def _simplify(kind, ins):
    """Single-gate rewrite given resolved inputs.

    Returns one of
    ``("const", value)`` / ``("alias", net)`` / ``("gate", kind, inputs)``.
    """
    vals = [const_value(n) if is_const(n) else None for n in ins]
    if all(v is not None for v in vals):
        return ("const", cell_function(kind)(*vals))

    if kind in ("BUF",):
        return ("alias", ins[0])
    if kind == "INV":
        return ("gate", "INV", tuple(ins))

    if kind in ("AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2"):
        a, b = ins
        va, vb = vals
        if a == b:
            same = {"AND2": ("alias", a), "OR2": ("alias", a),
                    "XOR2": ("const", 0), "XNOR2": ("const", 1),
                    "NAND2": ("gate", "INV", (a,)),
                    "NOR2": ("gate", "INV", (a,))}
            return same[kind]
        if va is None and vb is None:
            return ("gate", kind, (a, b))
        # Exactly one constant input; name it v, the live net x.
        v, x = (va, b) if va is not None else (vb, a)
        rules = {
            ("AND2", 0): ("const", 0), ("AND2", 1): ("alias", x),
            ("OR2", 1): ("const", 1), ("OR2", 0): ("alias", x),
            ("NAND2", 0): ("const", 1), ("NAND2", 1): ("gate", "INV", (x,)),
            ("NOR2", 1): ("const", 0), ("NOR2", 0): ("gate", "INV", (x,)),
            ("XOR2", 0): ("alias", x), ("XOR2", 1): ("gate", "INV", (x,)),
            ("XNOR2", 1): ("alias", x), ("XNOR2", 0): ("gate", "INV", (x,)),
        }
        return rules[(kind, v)]

    if kind == "MUX2":
        a, b, s = ins
        va, vb, vs = vals
        if vs == 0:
            return ("alias", a)
        if vs == 1:
            return ("alias", b)
        if a == b:
            return ("alias", a)
        if va == 0 and vb == 1:
            return ("alias", s)
        if va == 1 and vb == 0:
            return ("gate", "INV", (s,))
        if va == 0:
            return ("gate", "AND2", (b, s))
        if va == 1:
            return ("gate", "OR2", (b, "~s"))  # needs an inverter; keep MUX
        if vb == 1:
            return ("gate", "OR2", (a, s))
        if vb == 0:
            return ("gate", "AND2", (a, "~s"))  # needs an inverter; keep MUX
        return ("gate", "MUX2", (a, b, s))

    if kind == "AOI21":
        a, b, c = ins
        va, vb, vc = vals
        if vc == 1:
            return ("const", 0)
        if vc == 0:
            return ("gate", "NAND2", (a, b))
        if va == 0 or vb == 0:
            return ("gate", "INV", (c,))
        if va == 1:
            return ("gate", "NOR2", (b, c))
        if vb == 1:
            return ("gate", "NOR2", (a, c))
        return ("gate", "AOI21", (a, b, c))

    if kind == "OAI21":
        a, b, c = ins
        va, vb, vc = vals
        if vc == 0:
            return ("const", 1)
        if vc == 1:
            return ("gate", "NOR2", (a, b))
        if va == 1 or vb == 1:
            return ("gate", "INV", (c,))
        if va == 0:
            return ("gate", "NAND2", (b, c))
        if vb == 0:
            return ("gate", "NAND2", (a, c))
        return ("gate", "OAI21", (a, b, c))

    return ("gate", kind, tuple(ins))


def _constprop_step(kind, drive, ins, library):
    """Constant-propagation outcome of one gate, given resolved inputs.

    The one statement of the rewrite rules: :class:`CellTable` compiles
    it into the engine's lookup table and the dict oracle
    (:mod:`repro.verify.optimize`) calls it per gate. Returns ``("k", cell,
    inputs)`` for a kept (possibly remapped) gate or ``("s", net)`` for a
    gate substituted by a constant or alias net.
    """
    action = _simplify(kind, ins)
    if action[0] == "gate" and "~s" in action[2]:
        # Rewrites that would need a new inverter are not worth it;
        # keep the original (resolved-input) gate.
        action = ("gate", kind, ins)
    if action[0] == "const":
        return ("s", CONST1 if action[1] else CONST0)
    if action[0] == "alias":
        return ("s", action[1])
    __, new_kind, new_ins = action
    cell = "%s_X%d" % (new_kind, drive)
    if cell not in library:
        cell = "%s_X1" % new_kind
    return ("k", cell, tuple(new_ins))


_COMMUTATIVE = {"AND2", "OR2", "XOR2", "XNOR2", "NAND2", "NOR2"}

# ---------------------------------------------------------------------------
# cell table: kinds, arities and the constant-propagation rewrite table
# ---------------------------------------------------------------------------

_KINDS = tuple(CELL_KINDS)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_INV = _KIND_CODE["INV"]
_BUF = _KIND_CODE["BUF"]
_IS_COMMUTATIVE = np.asarray([kind in _COMMUTATIVE for kind in _KINDS])
_ARITY = np.asarray([CELL_KINDS[kind][0] for kind in _KINDS])

#: Table entries per cell: 27 const/live codes of the three pins times 8
#: pin-equality patterns.
_ENTRIES = 27 * 8
#: Rewrite source columns past the three resolved pins.
_SRC_CONST0, _SRC_CONST1, _SRC_PAD = 3, 4, 5


def _entry(pins):
    """Table entry of three resolved pin nets (or symbols): const/live
    code plus pin-equality bits, as :func:`_constprop` computes them."""
    a, b, c = pins
    code = min(a, 2) * 9 + min(b, 2) * 3 + min(c, 2)
    return code * 8 + (a == b) + 2 * (a == c) + 4 * (b == c)


def _pin_patterns(arity):
    """Every distinct pin pattern of an *arity*-input gate: constants
    are nets 0/1, live nets are numbered 2, 3, 4 in order of first use
    and the unused pins carry the pad symbol 5."""
    for pins in product(range(5), repeat=arity):
        top = 1
        for p in pins:
            if p > top + 1:
                break
            top = max(top, p)
        else:
            yield pins + (5,) * (3 - arity)


class CellTable:
    """Cell ids of one library and their constant-propagation table.

    A cell name gets an id the first time a netlist uses it (or a rewrite
    produces it); its 216 table entries are generated then, by calling
    :func:`_constprop_step` on every distinct pin pattern. An entry is
    ``op`` (1: substitute the output by source ``tgt``, 0: keep the gate
    as cell ``cell`` reading sources ``src``) where a source is a pin
    (0-2), CONST0 (3), CONST1 (4) or the pad net (5). Entries no gate
    can reach keep ``op == -1``.
    """

    def __init__(self, library):
        self.library = library
        self.names = []
        self.ids = {}
        self._kind = []
        self._op = []
        self._tgt = []
        self._cell = []
        self._src = []
        self._arrays = None
        self._electrical = None

    def id_of(self, name):
        got = self.ids.get(name)
        return self._register(name) if got is None else got

    def _register(self, name):
        kind, drive = split_cell(name)
        if kind not in CELL_KINDS:
            raise KeyError("unknown cell kind %r (cell %r)" % (kind, name))
        cid = len(self.names)
        self.ids[name] = cid
        self.names.append(name)
        self._kind.append(_KIND_CODE[kind])
        op = [-1] * _ENTRIES
        tgt = [_SRC_PAD] * _ENTRIES
        cell = [cid] * _ENTRIES
        src = [(0, 1, 2)] * _ENTRIES
        for table, row in ((self._op, op), (self._tgt, tgt),
                           (self._cell, cell), (self._src, src)):
            table.append(row)
        self._arrays = None
        self._electrical = None
        arity = CELL_KINDS[kind][0]
        for pins in _pin_patterns(arity):
            idx = _entry(pins)
            step = _constprop_step(kind, drive, pins[:arity], self.library)
            if step[0] == "s":
                op[idx] = 1
                tgt[idx] = _source(step[1], pins)
            else:
                op[idx] = 0
                cell[idx] = self.id_of(step[1])
                src[idx] = (tuple(_source(net, pins) for net in step[2])
                            + (_SRC_PAD,) * (3 - len(step[2])))
        return cid

    def arrays(self):
        """``(op, tgt, cell, src, kind, arity)``: the table as flat NumPy
        arrays (entry ``cell * 216 + _entry(pins)``) plus the kind code
        and pin count of every cell id."""
        if self._arrays is None:
            kind = np.asarray(self._kind, dtype=np.int64)
            self._arrays = (
                np.asarray(list(chain.from_iterable(self._op)),
                           dtype=np.int8),
                np.asarray(list(chain.from_iterable(self._tgt)),
                           dtype=np.int64),
                np.asarray(list(chain.from_iterable(self._cell)),
                           dtype=np.int64),
                np.asarray(list(chain.from_iterable(self._src)),
                           dtype=np.int64).reshape(-1, 3),
                kind, _ARITY[kind])
        return self._arrays

    def electrical(self):
        """Per-cell-id library data for the sizer: ``(cells, params,
        up)`` — the :class:`~repro.cells.cell.Cell` objects (None for a
        cell the library lacks), a ``(cells, 4)`` float array of input
        cap, intrinsic delay, drive resistance and area, and the id of
        the next stronger drive (-1 at the top). Registers the stronger
        drives it names."""
        if self._electrical is None:
            library = self.library
            up = []
            while len(up) < len(self.names):
                name = self.names[len(up)]
                stronger = (library.next_drive_up(name) if name in library
                            else None)
                up.append(-1 if stronger is None else self.id_of(stronger))
            cells = [library[name] if name in library else None
                     for name in self.names]
            params = np.asarray(
                [(c.input_cap_ff, c.intrinsic_ps, c.drive_res, c.area)
                 if c is not None else (np.nan,) * 4 for c in cells],
                dtype=np.float64).reshape(-1, 4)
            self._electrical = (cells, params,
                                np.asarray(up, dtype=np.int64))
        return self._electrical


def _source(net, pins):
    """Rewrite source column of *net* in a pin pattern."""
    if net == CONST0:
        return _SRC_CONST0
    if net == CONST1:
        return _SRC_CONST1
    return pins.index(net)


_TABLES = weakref.WeakKeyDictionary()


def cell_table(library):
    """The process's :class:`CellTable` of *library*."""
    got = _TABLES.get(library)
    if got is None:
        got = _TABLES[library] = CellTable(library)
    return got


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------

class Lowered:
    """A netlist lowered to arrays, rows in ``topological_gates()`` order.

    A synthesized netlist whose gates are not built yet is read from its
    :class:`~repro.netlist.netlist.GateRows` (already in that order)
    without building them. ``ins`` pads unused pins with ``pad``, a net
    id no gate drives or reads; ``driver`` maps a net to its row (-1 for
    primary inputs, constants and the pad); ``pos`` holds each row's
    position in the netlist's gate list (the order
    :meth:`~repro.netlist.netlist.Netlist.load_caps` sums fan-out in);
    ``level`` holds longest-path levels (primary inputs and constants at
    0) and ``groups`` the rows of each level, ascending.
    """

    def __init__(self, netlist, table):
        rows = netlist.__dict__.get("_rows")
        if rows is None:
            gates = netlist.topological_gates()
            n = len(gates)
            arity = np.fromiter((len(g.inputs) for g in gates),
                                dtype=np.int64, count=n)
            if n and arity.max() > 3:
                raise NetlistError("a gate has more than three inputs")
            flat = np.fromiter(chain.from_iterable(g.inputs for g in gates),
                               dtype=np.int64, count=int(arity.sum()))
            self.out = np.fromiter((g.output for g in gates),
                                   dtype=np.int64, count=n)
            self.uid = np.fromiter((g.uid for g in gates), dtype=np.int64,
                                   count=n)
            names = [g.cell for g in gates]
            for name in set(names).difference(table.ids):
                table.id_of(name)
            self.cell = np.fromiter(map(table.ids.__getitem__, names),
                                    dtype=np.int64, count=n)
            self.names = [g.name for g in gates]
            listed = netlist.gates
            if len(listed) == n and all(map(operator.is_, gates, listed)):
                self.pos = np.arange(n)
            else:
                at = {id(g): i for i, g in enumerate(listed)}
                self.pos = np.fromiter((at[id(g)] for g in gates),
                                       dtype=np.int64, count=n)
        else:
            n = len(rows.uids)
            arity = rows.arity
            flat = rows.ins[np.arange(3)[None, :] < arity[:, None]]
            self.out = rows.outs
            self.uid = rows.uids
            ids = np.zeros(len(rows.cellnames), dtype=np.int64)
            for c in np.unique(rows.cells).tolist():
                ids[c] = table.id_of(rows.cellnames[c])
            self.cell = ids[rows.cells]
            self.names = [rows.names[i] for i in rows.index.tolist()]
            self.pos = np.arange(n)
        self.netlist = netlist
        self.table = table
        self.n = n
        self.pis = list(netlist.primary_inputs)
        pis = np.asarray(self.pis, dtype=np.int64)
        self.po = np.asarray(netlist.primary_outputs, dtype=np.int64)
        top = max([1] + [int(a.max()) for a in (flat, self.out, pis,
                                                self.po) if len(a)])
        self.pad = top + 1
        self.nets = top + 2
        ins = np.full((n, 3), self.pad, dtype=np.int64)
        if n:
            starts = np.cumsum(arity) - arity
            ins[np.repeat(np.arange(n), arity),
                np.arange(len(flat)) - np.repeat(starts, arity)] = flat
        self.ins = ins
        self.driver = np.full(self.nets, -1, dtype=np.int64)
        self.driver[self.out] = np.arange(n)
        self._validate(pis)
        self.level = _longest_levels(ins, self.out, self.nets)
        self.groups = _level_groups(self.level, np.arange(n))

    def _validate(self, pis):
        """:meth:`Netlist.validate`'s structural checks, on the arrays
        (``topological_gates`` already rejected cycles and reads of
        undriven nets)."""
        out = self.out
        if len(np.unique(out)) != self.n:
            dup = np.flatnonzero(np.bincount(out) > 1)[0]
            raise NetlistError("net %d multiply driven" % dup)
        if self.n and out.min() <= CONST1:
            raise NetlistError("constant net driven by gate %d"
                               % self.uid[np.argmin(out)])
        driven = np.zeros(self.nets, dtype=bool)
        driven[pis] = True
        hit = driven[out]
        if hit.any():
            raise NetlistError("primary input %d driven"
                               % out[np.argmax(hit)])
        driven[out] = True
        driven[[CONST0, CONST1]] = True
        bad = ~driven[self.po]
        if bad.any():
            raise NetlistError("primary output %d undriven"
                               % self.po[np.argmax(bad)])


def lower(netlist, library):
    """Lower *netlist* under *library*'s cell table (see :class:`Lowered`)."""
    return Lowered(netlist, cell_table(library))


def _longest_levels(ins, out, nets):
    """Longest-path level of every row (inputs at 0); rows are in
    topological order, so one forward pass settles them."""
    net_level = [0] * nets
    level = []
    append = level.append
    for a, b, c, o in zip(ins[:, 0].tolist(), ins[:, 1].tolist(),
                          ins[:, 2].tolist(), out.tolist()):
        lv = max(net_level[a], net_level[b], net_level[c]) + 1
        net_level[o] = lv
        append(lv)
    return np.asarray(level, dtype=np.int64)


def _level_groups(level, rows):
    """*rows* (ascending) split by level, levels ascending."""
    if not len(rows):
        return []
    order = rows[np.argsort(level[rows], kind="stable")]
    lv = level[order]
    return np.split(order, np.flatnonzero(lv[1:] != lv[:-1]) + 1)


# ---------------------------------------------------------------------------
# the four passes
# ---------------------------------------------------------------------------

def _constprop(groups, state, tables):
    op_t, tgt_t, cell_t, src_t = tables[:4]
    alive, cell, ins, rep, out = state.alive, state.cell, state.ins, \
        state.rep, state.low.out
    consts = np.asarray([CONST0, CONST1, state.low.pad], dtype=np.int64)
    for rows in groups:
        rows = rows[alive[rows]]
        if not len(rows):
            continue
        r = rep[ins[rows]]
        st = np.minimum(r, 2)
        a, b, c = r[:, 0], r[:, 1], r[:, 2]
        idx = (cell[rows] * _ENTRIES
               + (st[:, 0] * 9 + st[:, 1] * 3 + st[:, 2]) * 8
               + (a == b) + 2 * (a == c) + 4 * (b == c))
        ext = np.empty((len(rows), 6), dtype=np.int64)
        ext[:, :3] = r
        ext[:, 3:] = consts
        sub = op_t[idx] == 1
        if sub.any():
            srows = rows[sub]
            rep[out[srows]] = ext[sub, tgt_t[idx[sub]]]
            alive[srows] = False
            keep = ~sub
            rows, idx, ext = rows[keep], idx[keep], ext[keep]
        cell[rows] = cell_t[idx]
        ins[rows] = np.take_along_axis(ext, src_t[idx], axis=1)


def _inverters(groups, state, tables):
    """Alias BUFs and INV(INV(x)) away; return the longest-path levels
    of the kept rows."""
    kind_t = tables[4]
    low = state.low
    alive, cell, ins, rep, out = state.alive, state.cell, state.ins, \
        state.rep, low.out
    driver = low.driver
    level = np.zeros(low.n, dtype=np.int64)
    net_level = np.zeros(low.nets, dtype=np.int64)
    for rows in groups:
        rows = rows[alive[rows]]
        if not len(rows):
            continue
        r = rep[ins[rows]]
        kind = kind_t[cell[rows]]
        d = r[:, 0]
        target = d.copy()
        sub = kind == _BUF
        inv = np.flatnonzero(kind == _INV)
        if len(inv):
            drow = driver[d[inv]]
            pair = drow >= 0
            pair[pair] = kind_t[cell[drow[pair]]] == _INV
            inv = inv[pair]
            sub[inv] = True
            target[inv] = ins[drow[pair], 0]
        if sub.any():
            rep[out[rows[sub]]] = target[sub]
            alive[rows[sub]] = False
            keep = ~sub
            rows, r = rows[keep], r[keep]
        ins[rows] = r
        lv = net_level[r].max(axis=1) + 1
        net_level[out[rows]] = lv
        level[rows] = lv
    return level


def _hashing(groups, state, tables):
    kind_t = tables[4]
    low = state.low
    alive, cell, ins, rep, out = state.alive, state.cell, state.ins, \
        state.rep, low.out
    span = low.nets
    packed = span ** 3 * len(_KINDS) < 2 ** 63
    for rows in groups:
        rows = rows[alive[rows]]
        r = rep[ins[rows]]
        ins[rows] = r
        if len(rows) < 2:
            continue
        kind = kind_t[cell[rows]]
        a, b = r[:, 0], r[:, 1]
        comm = _IS_COMMUTATIVE[kind]
        lo = np.where(comm, np.minimum(a, b), a)
        hi = np.where(comm, np.maximum(a, b), b)
        if packed:
            key = ((kind * span + lo) * span + hi) * span + r[:, 2]
            __, first, back = np.unique(key, return_index=True,
                                        return_inverse=True)
        else:
            __, first, back = np.unique(
                np.stack([kind, lo, hi, r[:, 2]], axis=1), axis=0,
                return_index=True, return_inverse=True)
        keeper = rows[first[back.reshape(-1)]]
        dup = keeper != rows
        if dup.any():
            rep[out[rows[dup]]] = out[keeper[dup]]
            alive[rows[dup]] = False


def _dead(groups, state, po):
    alive, ins, out = state.alive, state.ins, state.low.out
    needed = np.zeros(state.low.nets, dtype=bool)
    needed[po] = True
    for rows in reversed(groups):
        rows = rows[alive[rows]]
        live = needed[out[rows]]
        alive[rows[~live]] = False
        needed[ins[rows[live]]] = True


class Optimized:
    """Engine state of one optimized netlist.

    ``rows`` are the surviving rows of the lowered netlist ``low``
    (ascending, hence topological); ``cell`` / ``ins`` / ``level`` are
    per-row (read them at ``rows``) and ``po`` holds the primary-output
    nets.
    """

    def __init__(self, low, tied=()):
        self.low = low
        self.alive = np.ones(low.n, dtype=bool)
        self.cell = low.cell.copy()
        phi = np.arange(low.nets)
        phi[np.asarray(tied, dtype=np.int64)] = CONST0
        self.ins = phi[low.ins]
        self.po = phi[low.po]
        self.rep = np.arange(low.nets)
        self.level = low.level
        self.rows = None

    def run(self, max_rounds):
        low = self.low
        tables = low.table.arrays()
        groups = low.groups
        count = low.n
        for __ in range(max_rounds):
            before = count
            _constprop(groups, self, tables)
            self.po = self.rep[self.po]
            after_cp = int(np.count_nonzero(self.alive))
            self.level = _inverters(groups, self, tables)
            self.po = self.rep[self.po]
            groups = _level_groups(self.level, np.flatnonzero(self.alive))
            _hashing(groups, self, tables)
            self.po = self.rep[self.po]
            after_sh = int(np.count_nonzero(self.alive))
            _dead(groups, self, self.po)
            count = int(np.count_nonzero(self.alive))
            obs_metrics.inc(obs_metrics.SYNTH_CONSTPROP_REWRITES,
                            before - after_cp)
            obs_metrics.inc(obs_metrics.SYNTH_DEAD_GATES, after_sh - count)
            if count == before:
                break
        self.rows = np.flatnonzero(self.alive)
        del self.rep
        return self

    def gate_rows(self, cell=None):
        """The surviving rows as :class:`~repro.netlist.netlist.GateRows`,
        with per-row cell ids *cell* (default: the engine's own)."""
        low = self.low
        rows = self.rows
        if cell is None:
            cell = self.cell[rows]
        return GateRows(low.uid[rows], cell, low.table.names, self.ins[rows],
                        low.table.arrays()[5][cell], low.out[rows], low.names,
                        rows)

    def netlist(self, cell=None, name=None, token=None):
        """The optimized netlist, with per-row cell ids *cell* (default:
        the engine's own), named *name* (default: the source's). With a
        content *token* it is read-only and builds its gates on first
        read (:meth:`~repro.netlist.netlist.Netlist.freeze`); without,
        it is editable and built at once."""
        raw = self.low.netlist
        rows = self.gate_rows(cell)
        nl = Netlist(raw.name if name is None else name)
        nl._next_net = raw._next_net
        nl._next_gate_uid = raw._next_gate_uid
        nl.net_names = dict(raw.net_names)
        nl.primary_inputs = list(raw.primary_inputs)
        nl.primary_outputs = self.po.tolist()
        if token is not None:
            return nl.freeze(token, rows)
        gates = rows.build()
        nl.gates = gates
        nl._driver = dict(zip(rows.outs.tolist(), gates))
        nl._topo_cache = list(gates)
        return nl

    def diff_rows(self, other):
        """Number of rows whose state differs from *other*'s (a gate
        present in one and not the other, or kept with another cell or
        other inputs)."""
        both = self.alive & other.alive
        differ = self.alive != other.alive
        differ[both] = ((self.cell[both] != other.cell[both])
                        | (self.ins[both] != other.ins[both]).any(axis=1))
        return int(np.count_nonzero(differ))


def run(low, max_rounds, tied=()):
    """Optimize lowered *low* for at most *max_rounds* rounds, with the
    nets *tied* rewired to CONST0 first; returns :class:`Optimized`."""
    return Optimized(low, tied).run(max_rounds)


def optimize(netlist, library, max_rounds=8):
    """Run constant propagation, inverter cleanup, structural hashing
    and dead-gate elimination to a fixpoint (at most *max_rounds*
    rounds), in place: the surviving gates keep their objects, with
    cells and inputs rewritten. Returns *netlist*."""
    opt = run(lower(netlist, library), max_rounds)
    gates = netlist.topological_gates()
    rows = opt.gate_rows()
    kept = []
    for row, cell, pins in zip(opt.rows.tolist(), rows.cell_names(),
                               rows.pin_tuples()):
        gate = gates[row]
        if gate.cell != cell:
            gate.cell = cell
        if gate.inputs != pins:
            gate.inputs = pins
        kept.append(gate)
    netlist.rebuild(kept)
    netlist.primary_outputs = opt.po.tolist()
    return netlist
