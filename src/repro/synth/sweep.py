"""Sweep synthesis: lower a component once, derive every precision.

A characterization sweep synthesizes the *same* component at a dozen
precisions; each truncated variant differs from the full-precision
netlist only in that some operand LSB inputs are tied to constant 0
(gate uids, outputs and list order are the same). This module lowers
the full-precision build **once** to the optimizer's arrays
(:func:`repro.synth.optimize.lower`: cells, pins, outputs, longest-path
levels) and derives each variant by running the array optimizer on
those arrays with the tied nets rewired to CONST0, then sizing it on a
sizer program built from the result
(:func:`repro.synth.fastsize.sizer_for`). No netlist is rebuilt or
re-lowered per point.

The derived netlist is **bit-identical** (``repro.core.cache.
netlist_fingerprint``-equal) to ``synthesize(component.with_precision(p)
)`` — same gate uids, cells, input tuples, outputs and gate order — so
downstream consumers (STA, simulation, caching) cannot tell the
difference. ``repro.verify.check_synth_sweep`` and
``tests/test_synth_sweep.py`` enforce the identity against the
dict-pass oracle.
"""

from ..obs import logs, metrics as obs_metrics, trace as obs_trace
from ..sta.engine import truncated_input_nets
from .fastsize import sizer_for
from .optimize import lower, run
from .synthesize import EFFORTS, finish

_log = logs.get_logger("synth.sweep")


class SweepSynthesis:
    """One component lowered once, synthesized at any precision.

    Synthesizes *component* at full precision on construction, keeping
    the lowered raw arrays, the base's optimizer state and its
    pre-sizing sizer program; :meth:`derive` synthesizes each truncated
    variant from the same arrays. Derived results are memoized per
    precision, and the aging-aware baselines hardened from the base by
    content key (:meth:`hardened`). Every netlist is read-only
    (:meth:`~repro.netlist.netlist.Netlist.freeze`), the same contract
    as :func:`~repro.core.cache.synthesize_netlist_memoized`.
    """

    def __init__(self, component, library, effort="ultra", target_ps=None):
        if effort not in EFFORTS:
            raise ValueError("unknown effort %r (have %s)"
                             % (effort, sorted(EFFORTS)))
        if component.precision != component.width:
            component = component.with_precision(component.width)
        self.component = component
        self.library = library
        self.effort = effort
        self.target_ps = target_ps
        self._max_rounds = EFFORTS[effort][0]

        raw = component.build()
        with obs_trace.span("synth.synthesize", design=raw.name,
                            effort=effort, source_gates=raw.num_gates) as s:
            self._low = lower(raw, library)
            self._base = run(self._low, self._max_rounds)
            self._presize = sizer_for(self._base, library)
            self.base_result = finish(self._base, library, effort, target_ps,
                                      program=self._presize.clone())
            if s is not None:
                s.attrs["final_gates"] = self.base_result.final_gates
        _log.debug("sweep base %s: %d -> %d gates, %.1f ps (effort=%s)",
                   raw.name, raw.num_gates, self.base_result.final_gates,
                   self.base_result.delay_ps, effort)
        self._derived = {}
        self._hardened = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def derive(self, precision):
        """Synthesis result of the component truncated to *precision*.

        Bit-identical to ``synthesize(component.with_precision(
        precision), library, effort, target_ps)``.
        """
        got = (self.base_result if precision == self.component.width
               else self._derived.get(precision))
        if got is not None:
            obs_metrics.inc(obs_metrics.NETLIST_MEMO_HITS)
            # Memo-served points still trace: a characterization sweep
            # over a warm base shows one (near-zero) span per point.
            with obs_trace.span("synth.sweep.derive",
                                design=self.component.name,
                                precision=precision, cached=True):
                return got
        component = self.component
        tied = truncated_input_nets(component, self._low.netlist, precision)
        with obs_trace.span("synth.sweep.derive", design=component.name,
                            precision=precision) as s:
            opt = run(self._low, self._max_rounds, tied=tied)
            result = finish(opt, self.library, self.effort, self.target_ps,
                            name=component.with_precision(precision).name)
            # Gates whose optimized state differs from the base's.
            cone = opt.diff_rows(self._base)
            if s is not None:
                s.attrs["final_gates"] = result.final_gates
                s.attrs["cone_gates"] = cone
        obs_metrics.inc(obs_metrics.SYNTH_SWEEP_DERIVES)
        obs_metrics.observe(obs_metrics.SYNTH_SWEEP_CONE_GATES, cone)
        _log.debug("sweep derived %s: %d gates, %.1f ps, cone=%d",
                   result.netlist.name, result.final_gates,
                   result.delay_ps, cone)
        self._derived[precision] = result
        return result

    def clear_derived(self):
        """Drop memoized derivations (benchmarks re-time them)."""
        self._derived.clear()

    def presized_copy(self):
        """Editable copy of the base's post-optimize, pre-sizing netlist
        and its sizer program, for a caller that sizes it."""
        netlist = self._base.netlist()
        program = self._presize.clone()
        program.netlist = netlist
        return netlist, program

    def hardened(self, key, build):
        """Aging-aware baseline of this base under content *key*.

        Computed by ``build()`` on a miss and kept with the base (so it
        is evicted with it); of :data:`_HARDENED_LIMIT` entries the
        least recently used goes first. Hits count as
        ``cache.netlist_memo_hits``; the result is shared and read-only
        (see :func:`repro.synth.aging_aware.aging_aware_synthesize`).
        """
        got = self._hardened.pop(key, None)
        if got is not None:
            obs_metrics.inc(obs_metrics.NETLIST_MEMO_HITS)
        else:
            if len(self._hardened) >= _HARDENED_LIMIT:
                self._hardened.pop(next(iter(self._hardened)))
            got = build()
        self._hardened[key] = got      # most recently used last
        return got


# ---------------------------------------------------------------------------
# per-process memo
# ---------------------------------------------------------------------------

#: A sweep holds one lowered base per (component, effort, target,
#: library); a characterization run touches a handful.
_SWEEP_MEMO_LIMIT = 4
_sweep_memo = {}

#: Hardened baselines kept per base (a flow hardens each block for one
#: scenario, target and area budget).
_HARDENED_LIMIT = 4


def _sweep_key(component, library, effort, target_ps):
    from ..core.cache import component_fingerprint, library_fingerprint

    return (component_fingerprint(component), effort, repr(target_ps),
            library_fingerprint(library))


def sweep_for(component, library, effort="ultra", target_ps=None):
    """Shared :class:`SweepSynthesis` for *component*'s family sweep.

    Memoized per process on the full-precision component content, so
    every precision point of a sweep (and repeated sweeps over the same
    component) reuses one lowering and base synthesis. This is the
    process's one in-memory synthesis memo; when full, the least
    recently used sweep is evicted (``synth.sweep.base_memo_evictions``).
    """
    base = (component if component.precision == component.width
            else component.with_precision(component.width))
    key = _sweep_key(base, library, effort, target_ps)
    got = _sweep_memo.pop(key, None)
    if got is not None:
        obs_metrics.inc(obs_metrics.SYNTH_SWEEP_BASE_MEMO_HITS)
    else:
        if len(_sweep_memo) >= _SWEEP_MEMO_LIMIT:
            _sweep_memo.pop(next(iter(_sweep_memo)))
            obs_metrics.inc(obs_metrics.SYNTH_SWEEP_BASE_MEMO_EVICTIONS)
        got = SweepSynthesis(base, library, effort=effort,
                             target_ps=target_ps)
    _sweep_memo[key] = got      # most recently used last
    return got


def clear_sweep_memo():
    """Drop every memoized sweep (mainly for tests)."""
    _sweep_memo.clear()


def synthesize_variant(component, precision, library, effort="ultra",
                       target_ps=None):
    """Sweep-derive one truncated characterization point.

    Drop-in equivalent of ``synthesize(component.with_precision(
    precision), library, effort, target_ps)`` — bit-identical result,
    without re-building or re-lowering the netlist.
    """
    return sweep_for(component, library, effort=effort,
                     target_ps=target_ps).derive(precision)


def memoized_base(source, library, rounds):
    """The memoized sweep base whose optimization of *source* ran
    *rounds* rounds, or None: *source* is a raw netlist or a truncated
    component, or no such base is in the memo."""
    if not (hasattr(source, "_build_core")
            and source.precision == source.width):
        return None
    for effort, (r, __) in EFFORTS.items():
        if r == rounds:
            got = _sweep_memo.get(_sweep_key(source, library, effort, None))
            if got is not None:
                return got
    return None
