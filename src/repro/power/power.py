"""Power, energy and efficiency models.

Reproduces the paper's Synopsys-style power analysis: leakage summed from
the cell library, dynamic power from ``1/2 * C * Vdd^2 * alpha * f`` with
per-net toggle rates extracted from simulated stimuli, and energy as
power over one clock period. These feed the Fig. 8(c) savings comparison
(frequency / leakage / dynamic / energy / area).
"""

from dataclasses import dataclass

from ..sta.engine import compile_timing


@dataclass
class PowerReport:
    """Power/area/timing summary of one netlist.

    Attributes
    ----------
    area_um2:
        Total standard-cell area.
    leakage_nw:
        Total static leakage.
    dynamic_uw:
        Dynamic switching power at the given clock.
    clock_ps:
        Clock period used for dynamic power and energy.
    energy_per_cycle_fj:
        Total (leakage + dynamic) energy per clock cycle.
    """

    area_um2: float
    leakage_nw: float
    dynamic_uw: float
    clock_ps: float

    @property
    def frequency_ghz(self):
        return 1000.0 / self.clock_ps

    @property
    def total_power_uw(self):
        return self.dynamic_uw + self.leakage_nw * 1e-3

    @property
    def energy_per_cycle_fj(self):
        # P [uW] * t [ps] = 1e-6 W * 1e-12 s = 1e-18 J = attojoule;
        # convert to femtojoules.
        return self.total_power_uw * self.clock_ps * 1e-3


def dynamic_power_uw(netlist, library, toggle_rates, clock_ps, vdd=None):
    """Dynamic switching power in uW.

    Parameters
    ----------
    netlist, library:
        Design and cell library.
    toggle_rates:
        Map net id -> average transitions per clock cycle (from
        :func:`repro.sim.activity.simulate_activity`).
    clock_ps:
        Clock period.
    vdd:
        Supply voltage; defaults to the library's.

    The per-gate loads come from the netlist's timing program
    (:func:`~repro.sta.engine.compile_timing`, a memo hit for every
    synthesized netlist), equal to :meth:`Netlist.load_caps`; the sum
    runs in ``netlist.gates`` order.
    """
    if vdd is None:
        vdd = library.vdd
    freq_hz = 1e12 / clock_ps
    program = compile_timing(netlist, library)
    loads = dict(zip(program.gate_uids.tolist(), program.loads.tolist()))
    watts = 0.0
    for gate in netlist.gates:
        alpha = toggle_rates.get(gate.output, 0.0)
        cap_f = loads[gate.uid] * 1e-15
        watts += 0.5 * cap_f * vdd * vdd * alpha * freq_hz
    return watts * 1e6


def power_report(netlist, library, toggle_rates, clock_ps):
    """Build a full :class:`PowerReport` for a netlist."""
    return PowerReport(
        area_um2=netlist.area(library),
        leakage_nw=netlist.leakage(library),
        dynamic_uw=dynamic_power_uw(netlist, library, toggle_rates,
                                    clock_ps),
        clock_ps=clock_ps,
    )


def savings(ours, baseline):
    """Normalized savings of *ours* versus *baseline* (Fig. 8(c)).

    Returns a dict of ``ours / baseline`` ratios for frequency, leakage,
    dynamic power, energy and area. Frequency > 1 means ours is faster;
    the others < 1 mean ours is cheaper.
    """
    return {
        "frequency": ours.frequency_ghz / baseline.frequency_ghz,
        "leakage": ours.leakage_nw / baseline.leakage_nw,
        "dynamic": ours.dynamic_uw / baseline.dynamic_uw,
        "energy": ours.energy_per_cycle_fj / baseline.energy_per_cycle_fj,
        "area": ours.area_um2 / baseline.area_um2,
    }
