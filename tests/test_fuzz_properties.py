"""Property-based fuzzing across the whole substrate.

Hypothesis generates random combinational netlists; every synthesis pass
and simulator must agree with plain functional evaluation on them, and
timing invariants must hold regardless of structure.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.aging import worst_case
from repro.cells import default_library
from repro.netlist import CONST0, CONST1, NetlistBuilder
from repro.sim import TimedSimulator, compile_netlist, evaluate
from repro.sta import analyze
from repro.synth import optimize, upsize_fast

LIB = default_library()

_BINARY = ("and2", "or2", "xor2", "xnor2", "nand2", "nor2")


@st.composite
def random_netlists(draw, max_gates=30):
    """Random DAG of gates over 4 inputs (plus constants)."""
    n_gates = draw(st.integers(min_value=1, max_value=max_gates))
    builder = NetlistBuilder(name="fuzz")
    pool = list(builder.inputs(4, "x")) + [CONST0, CONST1]
    for __ in range(n_gates):
        choice = draw(st.integers(min_value=0, max_value=len(_BINARY) + 1))
        if choice == len(_BINARY):
            src = pool[draw(st.integers(0, len(pool) - 1))]
            pool.append(builder.inv(src))
        elif choice == len(_BINARY) + 1:
            a = pool[draw(st.integers(0, len(pool) - 1))]
            b = pool[draw(st.integers(0, len(pool) - 1))]
            s = pool[draw(st.integers(0, len(pool) - 1))]
            pool.append(builder.mux2(a, b, s))
        else:
            a = pool[draw(st.integers(0, len(pool) - 1))]
            b = pool[draw(st.integers(0, len(pool) - 1))]
            pool.append(getattr(builder, _BINARY[choice])(a, b))
    outputs = [pool[-(i % len(pool)) - 1] for i in range(3)]
    return builder.outputs(outputs)


ALL_INPUTS = np.array([[b >> i & 1 for i in range(4)]
                       for b in range(16)], dtype=np.uint8)


def truth_vector(netlist):
    return evaluate(compile_netlist(netlist, LIB), ALL_INPUTS)


@given(netlist=random_netlists())
def test_optimize_preserves_function(netlist):
    before = truth_vector(netlist)
    optimized = optimize(netlist.copy(), LIB)
    optimized.validate()
    assert np.array_equal(truth_vector(optimized), before)
    assert optimized.num_gates <= netlist.num_gates


@given(netlist=random_netlists())
def test_sizing_preserves_function_and_improves_delay(netlist):
    optimized = optimize(netlist.copy(), LIB)
    before = truth_vector(optimized)
    cp_before = analyze(optimized, LIB).critical_path_ps
    upsize_fast(optimized, LIB, target_ps=0.0, max_rounds=6)
    assert np.array_equal(truth_vector(optimized), before)
    assert analyze(optimized, LIB).critical_path_ps <= cp_before + 1e-9


@given(netlist=random_netlists())
def test_sta_bounds_timed_simulation(netlist):
    scenario = worst_case(10)
    report = analyze(netlist, LIB, scenario=scenario)
    sim = TimedSimulator(netlist, LIB, report.critical_path_ps,
                         scenario=scenario)
    result = sim.run_stream(np.tile(ALL_INPUTS, (2, 1)))
    static = np.array([report.arrivals[n]
                       for n in netlist.primary_outputs])
    assert (result.arrivals <= static[None, :] + 1e-2).all()
    # Sampled at the aged critical path, nothing can be late.
    assert result.error_rate == 0.0


@given(netlist=random_netlists())
def test_aging_never_speeds_up_any_netlist(netlist):
    fresh = analyze(netlist, LIB).critical_path_ps
    aged = analyze(netlist, LIB, scenario=worst_case(10)).critical_path_ps
    if netlist.gates and fresh > 0:
        assert aged > fresh
    else:
        assert aged == fresh


@given(netlist=random_netlists())
def test_verilog_roundtrip_any_netlist(netlist):
    from repro.netlist import from_verilog, to_verilog
    back = from_verilog(to_verilog(netlist))
    assert np.array_equal(truth_vector(back), truth_vector(netlist))


@given(netlist=random_netlists())
def test_settled_equals_functional(netlist):
    sim = TimedSimulator(netlist, LIB, 1e6)
    result = sim.run_stream(ALL_INPUTS)
    assert np.array_equal(result.settled, truth_vector(netlist))
    assert np.array_equal(result.sampled, result.settled)
