"""Dict-walking optimization passes: the oracle of the array optimizer.

Constant propagation, inverter/buffer cleanup, structural hashing and
dead-gate elimination, each one gate at a time over dictionaries, in
``topological_gates()`` order. :func:`repro.synth.optimize.optimize`
runs the same four passes as levelized NumPy sweeps and must reproduce
:func:`reference_optimize` gate for gate: the same uids, cells, input
tuples, list order and primary outputs. Both read the one statement of
the single-gate rewrite rules, :func:`repro.synth.optimize.
_constprop_step`.

Every pass mutates the given netlist in place and returns it.
"""

from ..synth.optimize import _COMMUTATIVE, _constprop_step


def _resolver(subst):
    def resolve(net):
        seen = []
        while net in subst:
            seen.append(net)
            net = subst[net]
        for s in seen:  # path compression
            subst[s] = net
        return net
    return resolve


def _hash_key(kind, ins):
    """Structural-hashing key: kind + canonicalized input tuple."""
    return (kind, tuple(sorted(ins)) if kind in _COMMUTATIVE else ins)


def constant_propagation(netlist, library):
    """Fold constants and algebraic identities through the netlist."""
    subst = {}
    resolve = _resolver(subst)
    kept = []
    for gate in netlist.topological_gates():
        ins = tuple(resolve(n) for n in gate.inputs)
        step = _constprop_step(gate.kind, gate.drive, ins, library)
        if step[0] == "s":
            subst[gate.output] = step[1]
            continue
        __, cell, new_ins = step
        kept.append(gate.with_cell(cell) if cell != gate.cell else gate)
        if new_ins != gate.inputs:
            kept[-1].inputs = new_ins
    netlist.rebuild(kept)
    netlist.primary_outputs = [resolve(n) for n in netlist.primary_outputs]
    return netlist


def remove_inverter_pairs(netlist, library=None):
    """Collapse INV(INV(x)) chains and BUFs into aliases."""
    subst = {}
    resolve = _resolver(subst)
    kept = []
    for gate in netlist.topological_gates():
        ins = tuple(resolve(n) for n in gate.inputs)
        if gate.kind == "BUF":
            subst[gate.output] = ins[0]
            continue
        if gate.kind == "INV":
            driver = netlist.driver_of(ins[0])
            if driver is not None and driver.kind == "INV":
                subst[gate.output] = resolve(driver.inputs[0])
                continue
        if ins != gate.inputs:
            gate.inputs = ins
        kept.append(gate)
    netlist.rebuild(kept)
    netlist.primary_outputs = [resolve(n) for n in netlist.primary_outputs]
    return netlist


def structural_hashing(netlist, library=None):
    """Merge structurally identical gates (common-subexpression elim).

    Two gates of the same kind reading the same (canonicalized) inputs
    compute the same function; the second one is replaced by an alias to
    the first. Input order of commutative cells is canonicalized by
    sorting.
    """
    subst = {}
    resolve = _resolver(subst)
    seen = {}
    kept = []
    for gate in netlist.topological_gates():
        ins = tuple(resolve(n) for n in gate.inputs)
        key = _hash_key(gate.kind, ins)
        existing = seen.get(key)
        if existing is not None:
            subst[gate.output] = existing
            continue
        seen[key] = gate.output
        if ins != gate.inputs:
            gate.inputs = ins
        kept.append(gate)
    netlist.rebuild(kept)
    netlist.primary_outputs = [resolve(n) for n in netlist.primary_outputs]
    return netlist


def dead_gate_elimination(netlist, library=None):
    """Drop gates whose outputs cannot reach any primary output."""
    needed = set(netlist.primary_outputs)
    for gate in reversed(netlist.topological_gates()):
        if gate.output in needed:
            needed.update(gate.inputs)
    netlist.rebuild([g for g in netlist.gates if g.output in needed])
    return netlist


def reference_optimize(netlist, library, max_rounds=8):
    """Run the four passes to a fixpoint (bounded by *max_rounds*)."""
    for __ in range(max_rounds):
        before = netlist.num_gates
        constant_propagation(netlist, library)
        remove_inverter_pairs(netlist, library)
        structural_hashing(netlist, library)
        dead_gate_elimination(netlist, library)
        if netlist.num_gates == before:
            break
    return netlist
