"""Ablation — glitch-propagation model of the timed simulator.

The reproduction's timing-error magnitudes depend on how activity is
propagated through gates. Three models bracket the truth:

* ``optimistic`` — only settled transitions travel (no glitches);
* ``sensitization`` — Boolean-difference static sensitization (default,
  validated against the event-driven simulator);
* ``pessimistic`` — all input activity travels (approaches static STA).

The event-driven transport-delay simulator provides the ground truth on
a sample.
"""

import numpy as np
import pytest

from repro.aging import worst_case
from repro.rtl import KoggeStoneAdder
from repro.sim import TimedSimulator, int_to_bits
from repro.sta import critical_path_delay
from repro.synth import synthesize_netlist
from repro.verify import EventSimulator

VECTORS = 6000
EVENT_SAMPLE = 250


def test_ablation_glitch_models(benchmark, lib, show):
    component = KoggeStoneAdder(32)
    netlist = synthesize_netlist(component, lib)
    t_clock = critical_path_delay(netlist, lib)
    scenario = worst_case(10)
    a, b = component.random_operands(VECTORS, rng=13)
    bits = np.concatenate([int_to_bits(a, 32), int_to_bits(b, 32)],
                          axis=1)

    def run_models():
        rates = {}
        for model in TimedSimulator.GLITCH_MODELS:
            sim = TimedSimulator(netlist, lib, t_clock, scenario=scenario,
                                 glitch_model=model)
            rates[model] = sim.run_stream(bits).error_rate
        return rates

    rates = benchmark.pedantic(run_models, rounds=1, iterations=1)

    # Ground truth on a sample of consecutive vectors.
    event = EventSimulator(netlist, lib, scenario=scenario)
    pis = netlist.primary_inputs
    errors = 0
    for i in range(1, EVENT_SAMPLE):
        sampled, settled, __ = event.sample_outputs(
            dict(zip(pis, bits[i - 1].tolist())),
            dict(zip(pis, bits[i].tolist())), t_clock)
        errors += sampled != settled
    event_rate = errors / (EVENT_SAMPLE - 1)

    rows = ["model            error rate @10y WC"]
    for model, rate in rates.items():
        rows.append("%-15s %9.2f%%" % (model, 100 * rate))
    rows.append("%-15s %9.2f%%  (transport-delay ground truth, %d "
                "vectors)" % ("event-driven", 100 * event_rate,
                              EVENT_SAMPLE - 1))
    show("Ablation / timed-simulator glitch model (32-bit prefix adder)",
         rows)

    # Bracketing: optimistic <= sensitization <= pessimistic.
    assert rates["optimistic"] <= rates["sensitization"]
    assert rates["sensitization"] <= rates["pessimistic"]
    # The default model is the one closest to the event-driven truth.
    gaps = {m: abs(r - event_rate) for m, r in rates.items()}
    assert gaps["sensitization"] == min(gaps.values())
    benchmark.extra_info.update(
        {m: round(100 * r, 2) for m, r in rates.items()})
    benchmark.extra_info["event_driven"] = round(100 * event_rate, 2)
