"""Gate-level netlist graph.

The :class:`Netlist` is the central data structure of the reproduction:
RTL component generators produce netlists, the synthesizer rewrites them,
static timing analysis and the gate-level simulators consume them.

Nets are plain integers (ids); ids 0 and 1 are the reserved constants
``CONST0``/``CONST1``. Each net is driven by at most one gate. Primary
inputs and outputs are ordered lists of net ids — bit 0 (LSB) first for
the arithmetic components built on top.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..obs import metrics as obs_metrics
from .gate import FrozenGate, Gate
from .net import CONST0, CONST1, FIRST_FREE_NET, is_const


class NetlistError(Exception):
    """Raised when a netlist is structurally invalid."""


class ReadOnlyList(list):
    """A list whose in-place mutators raise (gate and interface lists of
    a read-only netlist); it still compares, slices and copies as a
    list."""

    def _read_only(self, *args, **kwargs):
        raise NetlistError("list of a read-only netlist; copy() the "
                           "netlist to edit it")

    append = extend = insert = pop = remove = clear = sort = reverse = \
        __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only

    def __reduce__(self):
        return ReadOnlyList, (list(self),)


def pin_tuples(ins, arity):
    """Row ``i``'s first ``arity[i]`` entries of the ``(n, 3)`` matrix
    *ins*, as a tuple of ints, for every row."""
    order = np.argsort(arity, kind="stable")
    ins = ins[order]
    bounds = np.searchsorted(arity[order], [1, 2, 3, 4])
    made = []
    for k in (1, 2, 3):
        made.extend(zip(*ins[bounds[k - 1]:bounds[k], :k].T.tolist()))
    place = np.empty(len(arity), dtype=np.int64)
    place[order] = np.arange(len(arity))
    return [made[i] for i in place.tolist()]


@dataclass(eq=False)
class GateRows:
    """The gates of a netlist as per-row arrays, rows in gate-list order:
    ``cells`` are ids into ``cellnames``, row ``i`` reads the first
    ``arity[i]`` pins of ``ins[i]`` and is named ``names[index[i]]``.
    Plain data, so a netlist holding it pickles."""

    uids: np.ndarray
    cells: np.ndarray
    cellnames: list
    ins: np.ndarray        # (n, 3) input nets
    arity: np.ndarray
    outs: np.ndarray
    names: list
    index: np.ndarray

    def cell_names(self):
        names = self.cellnames
        return [names[c] for c in self.cells.tolist()]

    def pin_tuples(self):
        """Input-net tuple of every row."""
        return pin_tuples(self.ins, self.arity)

    def build(self):
        """The :class:`~repro.netlist.gate.Gate` of every row."""
        names = self.names
        return list(map(Gate, self.uids.tolist(), self.cell_names(),
                        self.pin_tuples(), self.outs.tolist(),
                        [names[r] for r in self.index.tolist()]))


class Netlist:
    """A combinational gate-level netlist.

    Parameters
    ----------
    name:
        Human-readable design name (e.g. ``"kogge_stone_adder_w32"``).
    """

    def __init__(self, name="netlist"):
        self.name = name
        self._next_net = FIRST_FREE_NET
        self._next_gate_uid = 0
        self.net_names = {CONST0: "const0", CONST1: "const1"}
        self.primary_inputs = []
        self.primary_outputs = []
        self.gates = []
        self._driver = {}      # net id -> Gate
        self._topo_cache = None
        #: monotonically increasing structural-mutation counter; lets
        #: consumers (e.g. the compiled-program memo) key derived
        #: artifacts to one structural state of the netlist.
        self._version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_net(self, name=None):
        """Allocate and return a fresh net id."""
        net = self._next_net
        self._next_net += 1
        if name is not None:
            self.net_names[net] = name
        self._topo_cache = None
        self._version += 1
        return net

    def add_input(self, name=None):
        """Allocate a fresh net and register it as a primary input."""
        net = self.new_net(name)
        self.primary_inputs.append(net)
        return net

    def add_inputs(self, count, prefix):
        """Allocate *count* primary inputs named ``prefix[i]`` (LSB first)."""
        return [self.add_input("%s[%d]" % (prefix, i)) for i in range(count)]

    def set_outputs(self, nets, prefix=None):
        """Register *nets* (LSB first) as the primary outputs."""
        self.primary_outputs = list(nets)
        self._version += 1
        if prefix is not None:
            for i, net in enumerate(nets):
                self.net_names.setdefault(net, "%s[%d]" % (prefix, i))

    def add_gate(self, cell, inputs, output=None, name=""):
        """Instantiate a gate of type *cell*.

        Parameters
        ----------
        cell:
            Cell type name (e.g. ``"NAND2_X1"``).
        inputs:
            Iterable of input net ids.
        output:
            Output net id; a fresh net is allocated when omitted.

        Returns
        -------
        int
            The output net id.
        """
        if output is None:
            output = self.new_net()
        if output in self._driver:
            raise NetlistError("net %d already driven" % output)
        if is_const(output):
            raise NetlistError("cannot drive a constant net")
        gate = Gate(uid=self._next_gate_uid, cell=cell,
                    inputs=tuple(inputs), output=output, name=name)
        self._next_gate_uid += 1
        self.gates.append(gate)
        self._driver[output] = gate
        self._topo_cache = None
        self._version += 1
        return output

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def driver_of(self, net):
        """Return the gate driving *net*, or None for PIs/constants."""
        return self._driver.get(net)

    def fanout_map(self):
        """Map each net id to the list of gates that read it."""
        fanout = {}
        for gate in self.gates:
            for net in gate.inputs:
                fanout.setdefault(net, []).append(gate)
        return fanout

    @property
    def num_gates(self):
        rows = self.__dict__.get("_rows")
        return len(self.gates if rows is None else rows.uids)

    def nets(self):
        """Return the set of all net ids referenced by the netlist."""
        referenced = {CONST0, CONST1}
        referenced.update(self.primary_inputs)
        referenced.update(self.primary_outputs)
        for gate in self.gates:
            referenced.update(gate.inputs)
            referenced.add(gate.output)
        return referenced

    def _list_is_topological(self):
        """True when ``self.gates`` is already input-to-output ordered.

        A single forward scan: every gate must read only constants,
        primary inputs, or outputs of earlier gates in the list. Builder
        netlists satisfy this by construction (gates reference nets that
        already exist), and the synthesis passes preserve it (rewires
        always point at upstream nets).
        """
        ready = {CONST0, CONST1}
        ready.update(self.primary_inputs)
        for gate in self.gates:
            for net in gate.inputs:
                if net not in ready and net in self._driver:
                    return False
            ready.add(gate.output)
        return True

    def topological_gates(self):
        """Return gates in topological (input-to-output) order.

        When the gate list itself is already topologically sorted — true
        for every builder-constructed netlist and everything the
        synthesis passes produce — the list *is* the order, which makes
        the order canonical (gate uids ascend for builder netlists) and
        independent of traversal details. Kahn's algorithm is the
        fallback for arbitrarily ordered netlists. The result is cached
        until the netlist is mutated.

        Raises
        ------
        NetlistError
            If the netlist contains a combinational cycle or a gate reads
            an undriven, non-input net.
        """
        if self._topo_cache is not None:
            return self._topo_cache
        if self._list_is_topological():
            # Still validate that every read net is driven.
            driven = {CONST0, CONST1}
            driven.update(self.primary_inputs)
            driven.update(self._driver)
            for gate in self.gates:
                for net in gate.inputs:
                    if net not in driven:
                        raise NetlistError(
                            "gate %d (%s) reads undriven net %d"
                            % (gate.uid, gate.cell, net))
            self._topo_cache = list(self.gates)
            return self._topo_cache

        ready = {CONST0, CONST1}
        ready.update(self.primary_inputs)
        # Kahn's algorithm on the gate graph. A gate may read the same
        # net on several pins, so dependencies are tracked per *unique*
        # input net (one waiter registration, one pending count each).
        pending = {}           # gate uid -> number of unresolved inputs
        waiters = {}           # net id -> gates waiting on it
        queue = deque()
        for gate in self.gates:
            unresolved = 0
            for net in set(gate.inputs):
                if net not in ready and net not in self._driver:
                    raise NetlistError(
                        "gate %d (%s) reads undriven net %d"
                        % (gate.uid, gate.cell, net))
                if net not in ready:
                    unresolved += 1
                    waiters.setdefault(net, []).append(gate)
            if unresolved:
                pending[gate.uid] = unresolved
            else:
                queue.append(gate)

        order = []
        while queue:
            gate = queue.popleft()
            order.append(gate)
            produced = gate.output
            for waiter in waiters.get(produced, ()):  # resolve dependants
                pending[waiter.uid] -= 1
                if pending[waiter.uid] == 0:
                    queue.append(waiter)
        if len(order) != len(self.gates):
            raise NetlistError(
                "combinational cycle: %d of %d gates unordered"
                % (len(self.gates) - len(order), len(self.gates)))
        self._topo_cache = order
        return order

    def validate(self):
        """Check structural invariants; raise :class:`NetlistError` if broken.

        Invariants: single driver per net, no driven constants, no driven
        primary inputs, every primary output driven or a PI/constant, and
        the gate graph is acyclic.
        """
        seen_outputs = set()
        for gate in self.gates:
            if gate.output in seen_outputs:
                raise NetlistError("net %d multiply driven" % gate.output)
            seen_outputs.add(gate.output)
            if is_const(gate.output):
                raise NetlistError("constant net driven by gate %d" % gate.uid)
            if gate.output in self.primary_inputs:
                raise NetlistError("primary input %d driven" % gate.output)
        driven = seen_outputs | set(self.primary_inputs) | {CONST0, CONST1}
        for net in self.primary_outputs:
            if net not in driven:
                raise NetlistError("primary output %d undriven" % net)
        self.topological_gates()
        return True

    # ------------------------------------------------------------------
    # analysis helpers
    # ------------------------------------------------------------------
    def area(self, library):
        """Total cell area in um^2 under *library*."""
        return sum(library[g.cell].area for g in self.gates)

    def leakage(self, library):
        """Total leakage power in nW under *library*."""
        return sum(library[g.cell].leakage_nw for g in self.gates)

    def cell_histogram(self):
        """Map cell type name -> instance count."""
        hist = {}
        for gate in self.gates:
            hist[gate.cell] = hist.get(gate.cell, 0) + 1
        return hist

    def load_caps(self, library, wire_cap_ff=0.8):
        """Per-gate output load capacitance in fF.

        The load of a gate is the sum of the input capacitances of its
        fanout cells plus *wire_cap_ff* per fanout branch. Primary outputs
        add one standard load (an implicit register/pin).
        """
        po_set = {}
        for net in self.primary_outputs:
            po_set[net] = po_set.get(net, 0) + 1
        loads = {}
        for gate in self.gates:
            loads[gate.uid] = library.output_load_ff * po_set.get(gate.output, 0)
        fanout = self.fanout_map()
        for gate in self.gates:
            total = loads[gate.uid]
            for sink in fanout.get(gate.output, ()):
                cell = library[sink.cell]
                pin = list(sink.inputs).count(gate.output)
                total += pin * (cell.input_cap_ff + wire_cap_ff)
            loads[gate.uid] = total + wire_cap_ff * po_set.get(gate.output, 0)
        return loads

    # ------------------------------------------------------------------
    # mutation used by synthesis
    # ------------------------------------------------------------------
    def rebuild(self, gates):
        """Replace the gate list with *gates* and refresh internal maps.

        Used by optimization passes that produce a filtered/rewired gate
        list. Gate uids are preserved.
        """
        self.gates = list(gates)
        self._driver = {g.output: g for g in self.gates}
        if len(self._driver) != len(self.gates):
            raise NetlistError("rebuild produced multiply-driven nets")
        self._topo_cache = None
        self._version += 1

    def freeze(self, token, rows=None):
        """Make this netlist read-only and remember its content *token*.

        Synthesis freezes every netlist it returns: gate edits, the
        mutating methods and rebinding the gate or interface lists then
        raise, so the compile memos key it by *token* (see
        :func:`repro.core.cache.compile_token`) instead of walking its
        gates. :meth:`copy` returns an editable netlist.

        With *rows* (:class:`GateRows`, in topological order) the
        netlist holds only those arrays until its gates are first read
        (see :class:`FrozenNetlist`).
        """
        if rows is None:
            for gate in self.gates:
                if not isinstance(gate, FrozenGate):
                    gate.__class__ = FrozenGate
            self.gates = ReadOnlyList(self.gates)
        else:
            for name in FrozenNetlist._LAZY:
                self.__dict__.pop(name, None)
            self._rows = rows
        self.primary_inputs = ReadOnlyList(self.primary_inputs)
        self.primary_outputs = ReadOnlyList(self.primary_outputs)
        self._token = token
        self.__class__ = FrozenNetlist
        return self

    def copy(self):
        """Return a deep-enough copy (gates are re-created, ids preserved)."""
        dup = Netlist(self.name)
        dup._next_net = self._next_net
        dup._next_gate_uid = self._next_gate_uid
        dup.net_names = dict(self.net_names)
        dup.primary_inputs = list(self.primary_inputs)
        dup.primary_outputs = list(self.primary_outputs)
        dup.gates = [Gate(uid=g.uid, cell=g.cell, inputs=g.inputs,
                          output=g.output, name=g.name) for g in self.gates]
        dup._driver = {g.output: g for g in dup.gates}
        return dup

    def __repr__(self):
        return ("Netlist(%r, gates=%d, inputs=%d, outputs=%d)"
                % (self.name, self.num_gates, len(self.primary_inputs),
                   len(self.primary_outputs)))


class FrozenNetlist(Netlist):
    """A netlist after :meth:`Netlist.freeze`: read-only.

    A synthesized netlist is frozen with its :class:`GateRows` and
    builds its gates (counted as ``synth.netlists_materialized``) on the
    first read of ``gates``, ``_driver`` or ``topological_gates()``;
    its name, interface, token and ``num_gates`` do not build them.
    """

    _STRUCTURE = frozenset((
        "name", "gates", "primary_inputs", "primary_outputs", "net_names",
        "_driver", "_next_net", "_next_gate_uid", "_version", "_token",
        "_rows"))
    _LAZY = ("gates", "_driver", "_topo_cache")

    def __getattr__(self, name):
        # Reached only for attributes the instance lacks.
        state = self.__dict__
        rows = state.get("_rows")
        if rows is None or name not in self._LAZY:
            raise AttributeError("%r object has no attribute %r"
                                 % (type(self).__name__, name))
        gates = rows.build()
        for gate in gates:
            gate.__class__ = FrozenGate
        state["gates"] = ReadOnlyList(gates)
        state["_driver"] = dict(zip(rows.outs.tolist(), gates))
        state["_topo_cache"] = gates
        del state["_rows"]
        obs_metrics.inc(obs_metrics.SYNTH_NETLISTS_MATERIALIZED)
        return state[name]

    def __setattr__(self, name, value):
        if name in self._STRUCTURE:
            raise NetlistError("netlist %r is read-only; copy() it to "
                               "edit it" % self.name)
        object.__setattr__(self, name, value)

    def _read_only(self, *args, **kwargs):
        raise NetlistError("netlist %r is read-only; copy() it to edit it"
                           % self.name)

    new_net = add_input = add_inputs = set_outputs = add_gate = \
        rebuild = freeze = _read_only
