"""Gate-level arithmetic models (timing-error injection).

Wraps synthesized component netlists with the timed gate-level simulator
so that arithmetic performed through them exhibits *aging-induced timing
errors*: operands stream through the netlist at a chosen clock period
(normally the fresh critical path, i.e. guardband-free operation), and
any output bit that settles too late samples stale data.

This is the machinery behind the paper's motivational study (Figs. 1-2):
it demonstrates what happens when a guardband is naively removed, and is
exactly the expensive simulation the paper's pre-characterization
approach then renders unnecessary.
"""

import numpy as np

from ..aging.bti import DEFAULT_BTI
from ..sim.activity import operand_stream_bits
from ..sim.logic import bits_to_int
from ..sim.timing import TimedSimulator
from ..sta.engine import analyze_batch
from ..synth.synthesize import synthesize_netlist
from .arith import ArithmeticModel


class TimedComponentModel:
    """One RTL component simulated gate-accurately under aging.

    Parameters
    ----------
    component:
        The :class:`~repro.rtl.component.RTLComponent` to model.
    library:
        Cell library for synthesis and timing.
    scenario:
        Aging scenario scaling gate delays (fresh when omitted).
    t_clock_ps:
        Sampling clock. Defaults to the component's **fresh** critical
        path — the paper's guardband-free operating point.
    effort:
        Synthesis effort for the component netlist.
    """

    def __init__(self, component, library, scenario=None, t_clock_ps=None,
                 effort="ultra", bti=DEFAULT_BTI, degradation=None,
                 max_batch=8192, glitch_model="sensitization"):
        self.component = component
        self.library = library
        self.netlist = synthesize_netlist(component, library, effort=effort)
        self.fresh_delay_ps = analyze_batch(
            self.netlist, library, [None]).critical_paths_ps[0]
        self.t_clock_ps = (float(t_clock_ps) if t_clock_ps is not None
                           else self.fresh_delay_ps)
        self.scenario = scenario
        self.simulator = TimedSimulator(
            self.netlist, library, self.t_clock_ps, scenario=scenario,
            bti=bti, degradation=degradation, max_batch=max_batch,
            glitch_model=glitch_model)

    def _encode(self, operands):
        return operand_stream_bits(operands, self.component.operand_widths)

    def apply(self, *operands):
        """Stream *operands* through the aged component; return results.

        Operand arrays may have any (common) shape; each element is one
        clock cycle, applied in flattened order, with the previous
        element as the prior circuit state.
        """
        shape = np.asarray(operands[0]).shape
        bits = self._encode(operands)
        result = self.simulator.run_stream(bits)
        out = bits_to_int(result.sampled, signed=True)
        return out.reshape(shape)

    def apply_detailed(self, *operands):
        """Like :meth:`apply` but returns the full
        :class:`~repro.sim.timing.TimedResult` (flattened order)."""
        return self.simulator.run_stream(self._encode(operands))

    def error_statistics(self, *operands):
        """Run a stimulus stream and summarize timing-error impact.

        Returns a dict with ``error_rate`` (fraction of cycles whose
        sampled word is wrong), ``bit_error_rate``, ``mean_abs_error``
        and ``max_abs_error`` of the sampled versus settled words.
        """
        result = self.apply_detailed(*operands)
        sampled = bits_to_int(result.sampled, signed=True)
        settled = bits_to_int(result.settled, signed=True)
        wrong = sampled != settled
        abs_err = np.abs(sampled - settled)
        return {
            "error_rate": float(wrong.mean()),
            "bit_error_rate": float((result.sampled
                                     != result.settled).mean()),
            "mean_abs_error": float(abs_err.mean()),
            "max_abs_error": int(abs_err.max()) if abs_err.size else 0,
            "cycles": int(sampled.size),
        }


class GateLevelArithmetic(ArithmeticModel):
    """Arithmetic whose mul/add run through aged component netlists.

    Operations without a configured model fall back to exact arithmetic
    (e.g. model only the multiplier when only it violates timing).
    """

    def __init__(self, mul_model=None, add_model=None):
        self.mul_model = mul_model
        self.add_model = add_model

    def mul(self, a, b):
        if self.mul_model is None:
            return np.asarray(a, dtype=np.int64) * np.asarray(b,
                                                              dtype=np.int64)
        return self.mul_model.apply(a, b)

    def add(self, a, b):
        if self.add_model is None:
            return np.asarray(a, dtype=np.int64) + np.asarray(b,
                                                              dtype=np.int64)
        return self.add_model.apply(a, b)

    @property
    def label(self):
        parts = []
        if self.mul_model is not None:
            parts.append("mul@%s" % (self.mul_model.scenario.label
                                     if self.mul_model.scenario else "fresh"))
        if self.add_model is not None:
            parts.append("add@%s" % (self.add_model.scenario.label
                                     if self.add_model.scenario else "fresh"))
        return "gate_level(%s)" % ", ".join(parts)


def timed_datapath_arithmetic(library, mul_component=None,
                              add_component=None, scenario=None,
                              t_clock_ps=None, effort="ultra",
                              bti=DEFAULT_BTI, degradation=None,
                              glitch_model="sensitization"):
    """Build a :class:`GateLevelArithmetic` with one shared design clock.

    A pipelined datapath clocks *every* stage at the design's clock —
    the slowest component's fresh critical path when no explicit
    ``t_clock_ps`` is given (the paper's guardband-free operating
    point). This factory synthesizes the given components, derives that
    shared clock, and wires both timed models to it, which is what the
    motivational chain experiments (Figs. 1-2) need.
    """
    models = {}
    for key, component in (("mul", mul_component), ("add", add_component)):
        if component is None:
            continue
        models[key] = TimedComponentModel(
            component, library, scenario=scenario, effort=effort,
            bti=bti, degradation=degradation, glitch_model=glitch_model)
    if not models:
        raise ValueError("need at least one component to model")
    clock = t_clock_ps
    if clock is None:
        clock = max(model.fresh_delay_ps for model in models.values())
    for model in models.values():
        model.t_clock_ps = clock
        model.simulator.t_clock_ps = clock
    return GateLevelArithmetic(mul_model=models.get("mul"),
                               add_model=models.get("add"))
