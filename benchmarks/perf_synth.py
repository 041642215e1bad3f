#!/usr/bin/env python
"""Benchmark: sweep synthesis vs per-point scratch synthesis.

Times the synthesis half of a cold characterization sweep — every
truncated precision variant of the 16-bit multiplier mapped, optimized
and sized at full effort — two ways, both on the one array optimizer
(:mod:`repro.synth.optimize`) and sizer (:mod:`repro.synth.fastsize`):

* **scratch**: one :func:`repro.synth.synthesize` per precision point:
  build the truncated netlist, lower it, optimize, size;
* **sweep**: one :class:`repro.synth.sweep.SweepSynthesis` over the
  full-precision base, every truncated point derived from the base's
  lowered arrays with the tied-low inputs rewired to CONST0 (no
  rebuild, no re-lowering). Timed twice: *cold* (base synthesis
  included) and *steady-state* (base reused, the shape real campaigns
  hit — the per-process memo synthesizes each family base once and
  every later point, repeated sweep and serve cache miss re-derives
  against it).

So the speedup measures what a derive saves over a scratch synthesis
(building the truncated RTL netlist and lowering it), not an engine
difference. Neither side builds the synthesized netlist's gates: both
return read-only netlists that build them on first read. Every
precision point is cross-checked before anything is timed: against
:func:`repro.verify.reference_synthesize` (the dict optimization passes
and dict sizer), netlist content fingerprints must be identical and
delay/area/leakage float-equal. Results append to ``BENCH_synth.json``
(see ``bench_util``). The enforced floor (``--min-speedup``) catches
regressions without tying CI to one host's exact ratio.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_synth.py --repeats 3
"""

import argparse
import contextlib
import gc
import time
import tracemalloc

import bench_util
from repro.cells import default_library
from repro.core.cache import netlist_fingerprint
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.rtl import Multiplier
from repro.synth.sweep import SweepSynthesis
from repro.synth.synthesize import synthesize
from repro.verify import reference_synthesize


def best_time(fn, repeats):
    """Best-of-*repeats* wall time of ``fn()`` in seconds (GC paused so
    collector pauses don't masquerade as synthesis cost)."""
    best = float("inf")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for __ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best


def traced_peak(fn):
    """Peak traced allocation of one ``fn()`` call in bytes."""
    tracemalloc.start()
    try:
        fn()
        __current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--width", type=int, default=16,
                        help="multiplier operand width (default 16)")
    parser.add_argument("--precisions", type=int, default=8,
                        help="precision steps in the sweep (default 8)")
    parser.add_argument("--effort", default="ultra",
                        help="synthesis effort (default ultra, the "
                             "characterize default)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--min-speedup", type=float, default=1.5,
                        help="fail unless the steady-state sweep beats "
                             "scratch by this factor (default 1.5)")
    parser.add_argument("--out", default="BENCH_synth.json",
                        help="output JSON trajectory path")
    parser.add_argument("--trace", default=None,
                        help="also write a Chrome trace of the benchmark "
                             "run (plus a run manifest next to it)")
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    tracer = obs_trace.Tracer() if args.trace else None
    with contextlib.ExitStack() as stack:
        registry = stack.enter_context(obs_metrics.scoped())
        if tracer is not None:
            stack.enter_context(obs_trace.capture(tracer))
            stack.enter_context(obs_trace.span(
                "benchmark.synth", width=args.width,
                precisions=args.precisions, effort=args.effort))
        report = _run(args)
    if tracer is not None:
        tracer.write_chrome(args.trace)
        print("trace written to %s (%d spans)" % (args.trace, len(tracer)))
        manifest = obs_manifest.build_manifest(
            "benchmarks/perf_synth.py",
            config={"width": args.width, "precisions": args.precisions,
                    "effort": args.effort, "repeats": args.repeats},
            library=default_library(),
            stages=tracer.totals(),
            metrics=registry.snapshot(),
            duration_s=time.perf_counter() - t_start,
            extra={"benchmark": report},
        )
        manifest_path = obs_manifest.default_manifest_path(args.trace)
        obs_manifest.write_manifest(manifest_path, manifest)
        print("run manifest written to %s" % manifest_path)
    return report


def _run(args):
    lib = default_library()
    component = Multiplier(args.width)
    precisions = list(range(args.width,
                            max(args.width - args.precisions, 1), -1))

    print("sweep-synthesizing %d precision variants of %s (effort=%s)..."
          % (len(precisions), component.name, args.effort))

    # Correctness gate: never benchmark a derivation that diverges from
    # the dict-pass oracle — content fingerprints identical, metrics
    # float-equal.
    with obs_metrics.scoped() as gate_registry:
        sweep = SweepSynthesis(component, lib, effort=args.effort)
        for precision in precisions:
            derived = sweep.derive(precision)
            scratch = reference_synthesize(
                component.with_precision(precision), lib,
                effort=args.effort)
            if (netlist_fingerprint(derived.netlist)
                    != netlist_fingerprint(scratch.netlist)
                    or derived.delay_ps != scratch.delay_ps
                    or derived.area_um2 != scratch.area_um2
                    or derived.leakage_nw != scratch.leakage_nw):
                raise SystemExit(
                    "sweep-derived synthesis diverges from the oracle at "
                    "precision %d" % precision)
    obs_metrics.registry().merge(gate_registry.snapshot())
    gates = sum(sweep.derive(p).netlist.num_gates for p in precisions)
    print("correctness gate passed: %d points fingerprint-identical "
          "(%d gates total)" % (len(precisions), gates))

    def scratch_sweep():
        for precision in precisions:
            synthesize(component.with_precision(precision), lib,
                       effort=args.effort)

    def sweep_cold():
        cold = SweepSynthesis(component, lib, effort=args.effort)
        for precision in precisions:
            cold.derive(precision)

    def sweep_steady():
        # The workload shape repeated campaigns hit: the per-process
        # memo (repro.synth.sweep.sweep_for) synthesizes each family
        # base once, then every point of this sweep — and of later
        # sweeps over the same component — is a fresh derivation
        # against it.
        sweep.clear_derived()
        for precision in precisions:
            sweep.derive(precision)

    results = {}
    for label, fn in [
        ("scratch_sweep", scratch_sweep),
        ("sweep_cold", sweep_cold),
        ("sweep_steady", sweep_steady),
    ]:
        with obs_trace.span("bench." + label, repeats=args.repeats):
            seconds = best_time(fn, args.repeats)
            peak = traced_peak(fn)
        results[label] = {"seconds": seconds, "peak_bytes": peak}
        print("%-28s %8.3f s   peak %7.1f MiB"
              % (label, seconds, peak / 2**20))

    speedup = (results["scratch_sweep"]["seconds"]
               / results["sweep_steady"]["seconds"])
    speedup_cold = (results["scratch_sweep"]["seconds"]
                    / results["sweep_cold"]["seconds"])
    print("sweep synthesis: %.1fx faster than scratch (%.1fx including "
          "the one-time base synthesis)" % (speedup, speedup_cold))

    report = {
        "benchmark": "synth",
        "component": component.name,
        "width": args.width,
        "effort": args.effort,
        "precisions": len(precisions),
        "gates_total": gates,
        "repeats": args.repeats,
        "results": results,
        "sweep_speedup": speedup,
        "sweep_speedup_cold": speedup_cold,
        "min_sweep_speedup": args.min_speedup,
    }
    n_runs = bench_util.append_run(args.out, report)
    print("wrote %s (%d run(s) recorded)" % (args.out, n_runs))
    if speedup < args.min_speedup:
        raise SystemExit(
            "steady-state sweep speedup %.2fx is below the enforced "
            "floor %.2fx" % (speedup, args.min_speedup))
    return report


if __name__ == "__main__":
    main()
