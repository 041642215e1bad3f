#!/usr/bin/env python
"""Benchmark: sample-axis batched Monte Carlo STA vs the scalar loop.

Times the Monte Carlo variation workload on the paper's 16-bit
multiplier over a six-corner aging grid: per-gate Vth draws
(:mod:`repro.mc.variation`) feeding the vectorized
``(gates, corners, samples)`` delay-tensor path of
:func:`repro.mc.analyze_mc`, against the per-sample scalar-loop
baseline :func:`repro.verify.analyze_mc_reference` (one scalar BTI-model
call per (gate, corner, sample), one propagation per sample) timed on
a subsample and extrapolated per sample. The acceptance floor is a
>= 20x speedup (``min_mc_speedup``, regression-gated by
``repro bench-report --check``).

Correctness is gated before anything is timed:

* ``sigma = 0`` sampled arrivals and critical paths are **bit
  identical** (``==``, no epsilon) to the deterministic
  :func:`repro.sta.engine.analyze_batch`;
* the vectorized path matches the scalar-loop oracle draw-for-draw at
  ``rtol = 1e-12`` on a subsample;
* ``run_mc`` under ``--jobs 1`` and ``--jobs 2`` produces identical
  ``to_dict()`` results (bit-reproducibility).

Results append to ``BENCH_mc.json`` (see ``bench_util``).

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_mc.py
"""

import argparse
import contextlib
import time
import tracemalloc

import bench_util
from repro.cells import default_library
from repro.core.specs import parse_scenario
from repro.mc import MCSpec, VariationModel, analyze_mc, run_mc
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.rtl import Multiplier
from repro.sta.engine import analyze_batch, compile_timing
from repro.synth import synthesize_netlist
from repro.verify import analyze_mc_reference

SCENARIOS = ("fresh", "worst1y", "worst5y", "worst10y", "balance5y",
             "balance10y")


def best_time(fn, repeats):
    """Best-of-*repeats* wall time of ``fn()`` in seconds."""
    best = float("inf")
    for __ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
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
    parser.add_argument("--samples", type=int, default=2048,
                        help="Monte Carlo samples (default 2048)")
    parser.add_argument("--ref-samples", type=int, default=8,
                        help="samples for the scalar reference timing "
                             "subsample (default 8)")
    parser.add_argument("--sigma", type=float, default=30.0,
                        help="per-gate Vth sigma in mV (default 30)")
    parser.add_argument("--seed", type=int, default=20170618,
                        help="variation seed (default 20170618)")
    parser.add_argument("--effort", default="high",
                        help="synthesis effort (default high)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--out", default="BENCH_mc.json",
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
                "benchmark.mc", width=args.width, samples=args.samples,
                corners=len(SCENARIOS)))
        report = _run(args)
    if tracer is not None:
        tracer.write_chrome(args.trace)
        print("trace written to %s (%d spans)" % (args.trace, len(tracer)))
        manifest = obs_manifest.build_manifest(
            "benchmarks/perf_mc.py",
            config={"width": args.width, "samples": args.samples,
                    "sigma_mv": args.sigma, "seed": args.seed,
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
    import numpy as np

    lib = default_library()
    component = Multiplier(args.width)
    corners = tuple(parse_scenario(s) for s in SCENARIOS)
    print("synthesizing %s (effort=%s)..." % (component.name, args.effort))
    netlist = synthesize_netlist(component, lib, effort=args.effort)
    program = compile_timing(netlist, lib)
    batch = analyze_batch(netlist, lib, corners, program=program)
    print("%d gates, %d corners, fresh critical path %.2f ps"
          % (program.n_gates, len(corners),
             float(batch.critical_path_ps[0])))

    variation = VariationModel(sigma_mv=args.sigma, seed=args.seed)

    # -- correctness gates (never benchmark a wrong engine) ----------------
    zero = analyze_mc(netlist, lib, corners, VariationModel(sigma_mv=0.0,
                                                            seed=args.seed),
                      samples=4, program=program, keep_arrivals=True)
    if not ((zero.critical_path_ps == batch.critical_path_ps[:, None]).all()
            and (zero.arrivals == batch.arrivals[:, :, None]).all()):
        raise SystemExit("sigma = 0 sampled analysis is not bit-identical "
                         "to the deterministic analyze_batch")

    ref_n = min(args.ref_samples, args.samples)
    fast_sub = analyze_mc(netlist, lib, corners, variation, samples=ref_n,
                          program=program)
    slow_sub = analyze_mc_reference(netlist, lib, corners, variation,
                                    samples=ref_n, program=program)
    if not np.allclose(fast_sub.critical_path_ps, slow_sub, rtol=1e-12,
                       atol=0.0):
        raise SystemExit("vectorized engine disagrees with the scalar "
                         "reference on a %d-sample subsample" % ref_n)

    spec = MCSpec(component="multiplier", width=args.width,
                  scenarios=SCENARIOS, clock_scales=(1.0,),
                  sigma_mv=args.sigma, samples=256, seed=args.seed,
                  sweep_bits=0, effort=args.effort)
    if run_mc(spec, library=lib, jobs=1).to_dict() \
            != run_mc(spec, library=lib, jobs=2).to_dict():
        raise SystemExit("run_mc is not bit-identical across --jobs 1/2")
    print("correctness gates passed: sigma=0 bit-identical, vectorized == "
          "scalar reference on %d samples, jobs-deterministic" % ref_n)

    # -- timings -----------------------------------------------------------
    def vectorized():
        analyze_mc(netlist, lib, corners, variation, samples=args.samples,
                   program=program)

    def scalar_reference():
        analyze_mc_reference(netlist, lib, corners, variation,
                             samples=ref_n, program=program)

    results = {}
    for label, fn, n in [
        ("vectorized_mc", vectorized, args.samples),
        ("scalar_reference", scalar_reference, ref_n),
    ]:
        with obs_trace.span("bench." + label, repeats=args.repeats):
            seconds = best_time(fn, args.repeats)
            peak = traced_peak(fn)
        results[label] = {"seconds": seconds, "peak_bytes": peak,
                          "samples": n}
        print("%-18s %8.3f s   %8.1f samples/s   peak %7.1f MiB"
              % (label, seconds, n / seconds, peak / 2**20))

    per_sample_fast = results["vectorized_mc"]["seconds"] / args.samples
    per_sample_slow = results["scalar_reference"]["seconds"] / ref_n
    mc_speedup = per_sample_slow / per_sample_fast
    samples_per_sec = args.samples / results["vectorized_mc"]["seconds"]
    print("vectorized MC: %.0f samples/s over %d corners; %.1fx over the "
          "per-sample scalar loop (floor >= 20x)"
          % (samples_per_sec, len(corners), mc_speedup))

    report = {
        "benchmark": "mc",
        "component": component.name,
        "width": args.width,
        "effort": args.effort,
        "scenarios": list(SCENARIOS),
        "gates": program.n_gates,
        "samples": args.samples,
        "ref_samples": ref_n,
        "sigma_mv": args.sigma,
        "seed": args.seed,
        "repeats": args.repeats,
        "results": results,
        "samples_per_sec": samples_per_sec,
        "mc_speedup": mc_speedup,
        "min_mc_speedup": 20.0,
        "target_mc_speedup": 50.0,
    }
    n_runs = bench_util.append_run(args.out, report)
    print("wrote %s (%d run(s) recorded)" % (args.out, n_runs))
    if mc_speedup < 20.0:
        raise SystemExit("Monte Carlo speedup %.1fx is below the 20x "
                         "floor" % mc_speedup)
    return report


if __name__ == "__main__":
    main()
