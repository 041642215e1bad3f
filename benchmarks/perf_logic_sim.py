#!/usr/bin/env python
"""Benchmark: packed (64-way ``uint64``) vs bytes (``uint8``) logic sim.

Times functional evaluation and activity extraction on the 16-bit
multiplier — the component the paper hits with ~10^6 stimuli per
characterization point — and records the result as
``BENCH_logic_sim.json`` so the perf trajectory of the simulation
engine is tracked over time.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_logic_sim.py --vectors 100000

The script cross-checks that both engines are bit-identical on the
benchmark workload before timing them (the bytes activity path is the
``repro.verify.simulate_activity_bytes`` oracle; production activity
extraction is packed only), times each engine best-of-N,
and measures peak traced memory (NumPy buffers register with
``tracemalloc``) in a separate pass so tracing overhead never pollutes
the timings.
"""

import argparse
import contextlib
import time
import tracemalloc

import numpy as np

import bench_util

from repro.cells import default_library
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.rtl import Multiplier
from repro.sim import (compile_netlist, evaluate_packed, operand_stream_bits,
                       simulate_activity)
from repro.synth import synthesize_netlist
from repro.verify import evaluate_bytes, simulate_activity_bytes


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
    parser.add_argument("--vectors", type=int, default=100000,
                        help="stimulus vectors (default 10^5)")
    parser.add_argument("--width", type=int, default=16,
                        help="multiplier operand width (default 16)")
    parser.add_argument("--effort", default="high",
                        help="synthesis effort (default high)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--out", default="BENCH_logic_sim.json",
                        help="output JSON path")
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
                "benchmark.logic_sim", vectors=args.vectors,
                width=args.width, effort=args.effort))
        report = _run(args)
    if tracer is not None:
        tracer.write_chrome(args.trace)
        print("trace written to %s (%d spans)" % (args.trace, len(tracer)))
        manifest = obs_manifest.build_manifest(
            "benchmarks/perf_logic_sim.py",
            config={"vectors": args.vectors, "width": args.width,
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
    print("synthesizing %s (effort=%s)..." % (component.name, args.effort))
    netlist = synthesize_netlist(component, lib, effort=args.effort)
    compiled = compile_netlist(netlist, lib)

    rng = np.random.default_rng(2017)
    operands = component.random_operands(args.vectors, rng=rng)
    bits = operand_stream_bits(operands, component.operand_widths)
    print("%d gates, %d nets, %d vectors"
          % (netlist.num_gates, compiled.slots, args.vectors))

    # Correctness gate: never benchmark two engines that disagree.
    sample = bits[:4096]
    if not np.array_equal(evaluate_bytes(compiled, sample),
                          evaluate_packed(compiled, sample)):
        raise SystemExit("packed/bytes engines disagree on outputs")
    ref = simulate_activity_bytes(netlist, lib, sample)
    got = simulate_activity(netlist, lib, sample)
    if (ref.signal_probability != got.signal_probability
            or ref.toggle_rate != got.toggle_rate):
        raise SystemExit("packed/bytes engines disagree on activity")

    results = {}
    for label, fn in [
        ("activity_bytes",
         lambda: simulate_activity_bytes(netlist, lib, bits)),
        ("activity_packed",
         lambda: simulate_activity(netlist, lib, bits)),
        ("evaluate_bytes", lambda: evaluate_bytes(compiled, bits)),
        ("evaluate_packed", lambda: evaluate_packed(compiled, bits)),
    ]:
        with obs_trace.span("bench." + label, repeats=args.repeats):
            seconds = best_time(fn, args.repeats)
            peak = traced_peak(fn)
        results[label] = {"seconds": seconds, "peak_bytes": peak}
        print("%-18s %8.3f s   peak %7.1f MiB"
              % (label, seconds, peak / 2**20))

    activity_speedup = (results["activity_bytes"]["seconds"]
                        / results["activity_packed"]["seconds"])
    activity_mem_ratio = (results["activity_bytes"]["peak_bytes"]
                          / max(results["activity_packed"]["peak_bytes"], 1))
    evaluate_speedup = (results["evaluate_bytes"]["seconds"]
                        / results["evaluate_packed"]["seconds"])
    print("activity: %.1fx faster, %.1fx less peak memory"
          % (activity_speedup, activity_mem_ratio))
    print("evaluate: %.1fx faster" % evaluate_speedup)

    report = {
        "benchmark": "logic_sim",
        "component": component.name,
        "width": args.width,
        "effort": args.effort,
        "vectors": args.vectors,
        "gates": netlist.num_gates,
        "nets": compiled.slots,
        "repeats": args.repeats,
        "results": results,
        "activity_speedup": activity_speedup,
        "activity_peak_memory_ratio": activity_mem_ratio,
        "evaluate_speedup": evaluate_speedup,
    }
    n_runs = bench_util.append_run(args.out, report)
    print("wrote %s (%d run(s) recorded)" % (args.out, n_runs))
    return report


if __name__ == "__main__":
    main()
