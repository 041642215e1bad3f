#!/usr/bin/env python
"""Benchmark: batched/incremental STA engine vs per-point scalar STA.

Times the characterization workload the paper's flow actually runs — a
precision sweep of the 16-bit multiplier analyzed under a grid of aging
corners — three ways:

* **scalar**: one :func:`repro.sta.sta.analyze` per (netlist, corner)
  point, the pre-engine baseline;
* **batched**: one compiled timing program per netlist
  (:func:`repro.sta.engine.compile_timing`) propagating every corner in
  a single vectorized pass (:func:`repro.sta.engine.analyze_batch`).
  Timed twice: *cold* (program lowering included) and *steady-state*
  (programs reused, the shape real campaigns hit — the content-
  addressed memo lowers each netlist once and every later guardband /
  invariant / sizing analysis reuses it);
* **incremental**: the truncation sweep re-done on the *full-precision*
  netlist by tying operand LSBs low and replaying only the fan-out cone
  of the gates that drop (:func:`repro.sta.engine.cone_plan`, then
  :func:`repro.sta.engine.delta_plan` from the untruncated netlist, then
  :func:`repro.sta.engine.replay_cone` on a copy of the batch arrivals,
  as the timing grid runs it), against scalar STA of the explicitly
  swept netlists.

Every grid point is cross-checked bit-exactly against the scalar oracle
before anything is timed. Results append to ``BENCH_sta.json`` (see
``bench_util``) so the perf trajectory is tracked over time. The PR
target is >= 10x for the batched grid.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_sta.py --repeats 3
"""

import argparse
import contextlib
import time
import tracemalloc

import numpy as np

import bench_util
from repro.aging import balance_case, worst_case
from repro.aging.delay import clear_multiplier_memo
from repro.cells import default_library
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.rtl import Multiplier
from repro.sta.engine import (_critical_paths, analyze_batch,
                              compile_timing, cone_plan, delta_plan,
                              replay_cone, tie_low, truncated_input_nets)
from repro.sta.sta import analyze
from repro.synth import synthesize_netlist


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


def replay_truncation(batch, tied):
    """Arrivals and critical paths of *batch* with *tied* tied low: the
    cone plan, the delta plan from the untruncated netlist and its
    replay on a copy of the batch arrivals."""
    program = batch.program
    plan = cone_plan(program, tied)
    arrivals = batch.arrivals.copy()
    replay_cone(delta_plan(program, None, plan), arrivals, batch.delays)
    return plan, arrivals, _critical_paths(program, arrivals)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--width", type=int, default=16,
                        help="multiplier operand width (default 16)")
    parser.add_argument("--precisions", type=int, default=8,
                        help="precision steps in the sweep (default 8)")
    parser.add_argument("--effort", default="high",
                        help="synthesis effort (default high)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--out", default="BENCH_sta.json",
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
                "benchmark.sta", width=args.width,
                precisions=args.precisions, effort=args.effort))
        report = _run(args)
    if tracer is not None:
        tracer.write_chrome(args.trace)
        print("trace written to %s (%d spans)" % (args.trace, len(tracer)))
        manifest = obs_manifest.build_manifest(
            "benchmarks/perf_sta.py",
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
    # The paper's corner grid: worst-case and balanced stress at three
    # lifetimes (closed-form BTI; the degradation table only covers
    # tabulated lifetimes).
    corners = [worst_case(1.0), worst_case(5.0), worst_case(10.0),
               balance_case(1.0), balance_case(5.0), balance_case(10.0)]
    precisions = list(range(args.width,
                            max(args.width - args.precisions, 1), -1))

    print("synthesizing %d precision variants of %s (effort=%s)..."
          % (len(precisions), component.name, args.effort))
    variants = []
    for precision in precisions:
        variant = component.with_precision(precision)
        netlist = synthesize_netlist(variant, lib, effort=args.effort)
        variants.append((precision, netlist))
    gates = sum(n.num_gates for __, n in variants)
    points = len(variants) * len(corners)
    print("%d netlists, %d gates total, %d corners -> %d grid points"
          % (len(variants), gates, len(corners), points))

    # Correctness gate: never benchmark an engine that diverges from the
    # scalar oracle — every point must be bit-identical, no epsilon.
    clear_multiplier_memo()
    for __, netlist in variants:
        batch = analyze_batch(netlist, lib, corners)
        for idx, corner in enumerate(corners):
            scalar = analyze(netlist, lib, scenario=corner)
            got = batch.report(idx)
            if (got.arrivals != scalar.arrivals
                    or got.gate_delays != scalar.gate_delays
                    or got.critical_path_ps != scalar.critical_path_ps):
                raise SystemExit("batched STA diverges from scalar on %s/%s"
                                 % (netlist.name, corner.label))
    full_netlist = variants[0][1]
    baseline = analyze_batch(full_netlist, lib, corners)
    uids = baseline.program.gate_uids.tolist()
    for precision in precisions[1:]:
        tied = truncated_input_nets(component, full_netlist, precision)
        plan, __, cps = replay_truncation(baseline, tied)
        swept = tie_low(full_netlist, tied)
        for idx, corner in enumerate(corners):
            scalar = analyze(swept, lib, scenario=corner)
            delays = {uid: float(baseline.delays[row, idx])
                      for row, uid in enumerate(uids)
                      if not plan.dropped[row]}
            if (float(cps[idx]) != scalar.critical_path_ps
                    or delays != scalar.gate_delays):
                raise SystemExit("incremental STA diverges from tie_low "
                                 "oracle at precision %d/%s"
                                 % (precision, corner.label))
    print("correctness gate passed: %d points bit-identical" % points)

    def scalar_grid():
        for __, netlist in variants:
            for corner in corners:
                analyze(netlist, lib, scenario=corner)

    def batched_grid_cold():
        for __, netlist in variants:
            program = compile_timing(netlist, lib, memo=False)
            analyze_batch(netlist, lib, corners, program=program)

    programs = [compile_timing(netlist, lib) for __, netlist in variants]

    def batched_grid():
        # The workload shape characterize/verify/flow actually hit: the
        # content-addressed program memo means each netlist is lowered
        # once per campaign, then re-analyzed many times (guardbands,
        # invariants, sizing rounds) — so steady-state grid cost is the
        # vectorized propagation alone.
        for (__, netlist), program in zip(variants, programs):
            analyze_batch(netlist, lib, corners, program=program)

    def scalar_truncation_sweep():
        for precision in precisions[1:]:
            tied = truncated_input_nets(component, full_netlist, precision)
            swept = tie_low(full_netlist, tied)
            for corner in corners:
                analyze(swept, lib, scenario=corner)

    def incremental_truncation_sweep():
        program = compile_timing(full_netlist, lib, memo=False)
        base = analyze_batch(full_netlist, lib, corners, program=program)
        for precision in precisions[1:]:
            tied = truncated_input_nets(component, full_netlist, precision)
            replay_truncation(base, tied)

    results = {}
    for label, fn in [
        ("scalar_grid", scalar_grid),
        ("batched_grid_cold", batched_grid_cold),
        ("batched_grid", batched_grid),
        ("scalar_truncation_sweep", scalar_truncation_sweep),
        ("incremental_truncation_sweep", incremental_truncation_sweep),
    ]:
        with obs_trace.span("bench." + label, repeats=args.repeats):
            seconds = best_time(fn, args.repeats)
            peak = traced_peak(fn)
        results[label] = {"seconds": seconds, "peak_bytes": peak}
        print("%-28s %8.3f s   peak %7.1f MiB"
              % (label, seconds, peak / 2**20))

    batch_speedup = (results["scalar_grid"]["seconds"]
                     / results["batched_grid"]["seconds"])
    batch_speedup_cold = (results["scalar_grid"]["seconds"]
                          / results["batched_grid_cold"]["seconds"])
    incremental_speedup = (
        results["scalar_truncation_sweep"]["seconds"]
        / results["incremental_truncation_sweep"]["seconds"])
    print("batched corner grid: %.1fx faster (target >= 10x; "
          "%.1fx including one-time program compile)"
          % (batch_speedup, batch_speedup_cold))
    print("incremental truncation sweep: %.1fx faster"
          % incremental_speedup)

    report = {
        "benchmark": "sta",
        "component": component.name,
        "width": args.width,
        "effort": args.effort,
        "precisions": len(precisions),
        "corners": len(corners),
        "grid_points": points,
        "gates_total": gates,
        "repeats": args.repeats,
        "results": results,
        "batch_speedup": batch_speedup,
        "batch_speedup_cold": batch_speedup_cold,
        "incremental_speedup": incremental_speedup,
        "target_batch_speedup": 10.0,
    }
    n_runs = bench_util.append_run(args.out, report)
    print("wrote %s (%d run(s) recorded)" % (args.out, n_runs))
    return report


if __name__ == "__main__":
    main()
