"""Tests for the exact event-driven reference simulator."""

import numpy as np
import pytest

from repro.aging import worst_case
from repro.netlist import NetlistBuilder
from repro.rtl import Adder
from repro.sim import TimedSimulator, int_to_bits
from repro.sta import analyze
from repro.synth import synthesize_netlist
from repro.verify import EventSimulator


def inv_chain(length):
    builder = NetlistBuilder(name="chain")
    a = builder.inputs(1, "a")[0]
    cur = a
    for __ in range(length):
        cur = builder.inv(cur)
    return builder.outputs([cur])


class TestBasics:
    def test_chain_settle_time_accumulates(self, lib):
        net = inv_chain(3)
        sim = EventSimulator(net, lib)
        a = net.primary_inputs[0]
        waves = sim.settle({a: 0}, {a: 1})
        out = net.primary_outputs[0]
        expected = sum(sim.delays[g.uid] for g in net.gates)
        assert waves[out].settle_time == pytest.approx(expected)

    def test_no_input_change_is_quiescent(self, lib):
        net = inv_chain(3)
        sim = EventSimulator(net, lib)
        a = net.primary_inputs[0]
        waves = sim.settle({a: 1}, {a: 1})
        assert all(w.glitch_count == 0 for w in waves.values())

    def test_final_values_match_functional(self, lib, rng):
        component = Adder(4)
        net = synthesize_netlist(component, lib, effort="high")
        sim = EventSimulator(net, lib)
        pis = net.primary_inputs
        a, b = component.random_operands(20, rng=rng,
                                         distribution="uniform")
        bits = np.concatenate([int_to_bits(a, 4), int_to_bits(b, 4)],
                              axis=1)
        for i in range(1, 20):
            waves = sim.settle(dict(zip(pis, bits[i - 1].tolist())),
                               dict(zip(pis, bits[i].tolist())))
            value = sum(waves[n].final_value << k
                        for k, n in enumerate(net.primary_outputs))
            expected = int(component.exact(a[i:i + 1], b[i:i + 1])[0]) & 0xF
            assert value == expected

    def test_glitch_is_produced_on_reconvergence(self, lib):
        # XOR with one delayed input glitches when both inputs change.
        builder = NetlistBuilder(name="glitch")
        a = builder.inputs(1, "a")[0]
        slow = builder.inv(builder.inv(a))
        out = builder.xor2(a, slow)
        net = builder.outputs([out])
        sim = EventSimulator(net, lib)
        waves = sim.settle({a: 0}, {a: 1})
        wave = waves[net.primary_outputs[0]]
        # Settles back to 0 but pulses 1 in between.
        assert wave.final_value == 0
        assert wave.glitch_count >= 2


class TestSampling:
    def test_sample_before_settle_captures_stale_value(self, lib):
        net = inv_chain(4)
        sim = EventSimulator(net, lib)
        a = net.primary_inputs[0]
        out = net.primary_outputs[0]
        waves = sim.settle({a: 0}, {a: 1})
        settle = waves[out].settle_time
        sampled, settled, __ = sim.sample_outputs({a: 0}, {a: 1},
                                                  settle / 2)
        assert sampled != settled
        sampled2, settled2, __ = sim.sample_outputs({a: 0}, {a: 1},
                                                    settle * 1.01)
        assert sampled2 == settled2

    def test_settle_time_bounded_by_sta(self, lib, rng):
        component = Adder(6)
        net = synthesize_netlist(component, lib, effort="high")
        scenario = worst_case(10)
        report = analyze(net, lib, scenario=scenario)
        sim = EventSimulator(net, lib, scenario=scenario)
        pis = net.primary_inputs
        a, b = component.random_operands(30, rng=rng,
                                         distribution="uniform")
        bits = np.concatenate([int_to_bits(a, 6), int_to_bits(b, 6)],
                              axis=1)
        for i in range(1, 30):
            waves = sim.settle(dict(zip(pis, bits[i - 1].tolist())),
                               dict(zip(pis, bits[i].tolist())))
            for net_id, wave in waves.items():
                if net_id in report.arrivals:
                    assert wave.settle_time <= \
                        report.arrivals[net_id] + 1e-6


class TestCrossValidation:
    def test_vectorized_model_tracks_event_sim(self, lib, rng):
        """Settled values agree exactly between the two simulators, and
        their settle-time estimates stay in the same regime (the
        vectorized model uses static sensitization, the event simulator
        full dynamic glitching, so individual nets may differ — but both
        are bounded by static STA and correlate in aggregate)."""
        component = Adder(6)
        net = synthesize_netlist(component, lib, effort="high")
        scenario = worst_case(10)
        event = EventSimulator(net, lib, scenario=scenario)
        from repro.sta import critical_path_delay
        t_clock = critical_path_delay(net, lib)
        timed = TimedSimulator(net, lib, t_clock, scenario=scenario)
        pis = net.primary_inputs
        a, b = component.random_operands(40, rng=rng,
                                         distribution="uniform")
        bits = np.concatenate([int_to_bits(a, 6), int_to_bits(b, 6)],
                              axis=1)
        result = timed.run_stream(bits)
        event_max, model_max = [], []
        for i in range(1, 40):
            waves = event.settle(dict(zip(pis, bits[i - 1].tolist())),
                                 dict(zip(pis, bits[i].tolist())))
            for col, po in enumerate(net.primary_outputs):
                assert waves[po].final_value == result.settled[i, col]
            event_max.append(max(waves[po].settle_time
                                 for po in net.primary_outputs))
            model_max.append(float(result.arrivals[i].max()))
        # Aggregate agreement: mean settle estimates within 35%.
        assert np.mean(model_max) == pytest.approx(np.mean(event_max),
                                                   rel=0.35)
