#!/usr/bin/env python
"""Benchmark: packed XOR fault injection vs the scalar reference injector.

Times the fault-injection campaign workload on the paper's 16-bit
multiplier at the guardband-free operating point (fresh clock, aged
gates): per-gate Bernoulli mask sampling (:mod:`repro.inject.masks`)
plus the packed 64-way XOR injector
(:func:`repro.inject.inject_sim.evaluate_packed_injected`), against the
scalar uint8 reference injector on a subsample. The acceptance target
is >= 10^6 injected vectors per second end-to-end (masks + replay).
It also times the packed-words path campaigns run: operands encoded
straight into packed words, a clean :func:`repro.sim.logic.evaluate_words`
(``words_clean_eval``) and, per grid point, a replay of only the
fan-out cone of the violating gates over the clean words it kept
(:func:`repro.sim.logic.replay_words`), outputs decoded straight to
integers (``words_inject_point``).

Correctness is gated before anything is timed:

* the fresh corner at its own critical path derives an *empty*
  faultload (exactly zero injections);
* packed and scalar injectors agree bit-for-bit on a subsample, and
  the packed-words path decodes the same integers there;
* the cone replay equals the full masked ``evaluate_words`` on every
  vector;
* two campaign runs from the same spec + seed produce identical
  results (bit-reproducibility).

Results append to ``BENCH_inject.json`` (see ``bench_util``); the
``packed_speedup`` field is regression-gated by ``repro bench-report``.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_inject.py
"""

import argparse
import contextlib
import time
import tracemalloc

import numpy as np

import bench_util
from repro.cells import default_library
from repro.core.specs import parse_scenario
from repro.inject import CampaignSpec, build_faultload, run_campaign
from repro.inject.inject_sim import (check_alignment, count_mask_bits,
                                     evaluate_bytes_injected,
                                     evaluate_packed_injected,
                                     unpack_op_masks)
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.rtl import Multiplier
from repro.sim import bitpack
from repro.sim.activity import operand_stream_bits, operand_stream_words
from repro.sim.logic import (bits_to_int, compile_netlist, cone_frontier,
                             evaluate_packed, evaluate_words, replay_words)
from repro.sim.stimuli import make_stimulus
from repro.sta.engine import analyze_batch, compile_timing, fanout_rows
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--width", type=int, default=16,
                        help="multiplier operand width (default 16)")
    parser.add_argument("--vectors", type=int, default=1 << 20,
                        help="stimulus vectors (default 1048576)")
    parser.add_argument("--ref-vectors", type=int, default=1 << 14,
                        help="vectors for the scalar reference timing "
                             "subsample (default 16384)")
    parser.add_argument("--scenario", default="worst10y",
                        help="aging scenario (default worst10y)")
    parser.add_argument("--seed", type=int, default=20170618,
                        help="campaign seed (default 20170618)")
    parser.add_argument("--effort", default="high",
                        help="synthesis effort (default high)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, best-of (default 3)")
    parser.add_argument("--out", default="BENCH_inject.json",
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
                "benchmark.inject", width=args.width,
                vectors=args.vectors, scenario=args.scenario))
        report = _run(args)
    if tracer is not None:
        tracer.write_chrome(args.trace)
        print("trace written to %s (%d spans)" % (args.trace, len(tracer)))
        manifest = obs_manifest.build_manifest(
            "benchmarks/perf_inject.py",
            config={"width": args.width, "vectors": args.vectors,
                    "scenario": args.scenario, "seed": args.seed,
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
    scenario = parse_scenario(args.scenario)
    print("synthesizing %s (effort=%s)..." % (component.name, args.effort))
    netlist = synthesize_netlist(component, lib, effort=args.effort)
    compiled = compile_netlist(netlist, lib)
    program = compile_timing(netlist, lib)
    check_alignment(compiled, program)
    batch = analyze_batch(netlist, lib, [parse_scenario("fresh"), scenario],
                          program=program)
    clock_ps = float(batch.critical_path_ps[0])
    print("%d gates, fresh critical path %.2f ps, %s critical path %.2f ps"
          % (program.n_gates, clock_ps, scenario.label,
             float(batch.critical_path_ps[1])))

    a, b = make_stimulus("normal", args.width, args.vectors, seed=args.seed)
    pi_bits = operand_stream_bits([a, b], component.operand_widths)
    pi_words = operand_stream_words([a, b], component.operand_widths)
    words = bitpack.word_count(args.vectors)

    # -- correctness gates (never benchmark a wrong injector) -------------
    fresh_load = build_faultload(program, batch, "fresh", clock_ps)
    if fresh_load.n_violating != 0:
        raise SystemExit("fresh corner at its own critical path derived "
                         "%d violating gate(s); expected exactly 0"
                         % fresh_load.n_violating)
    faultload = build_faultload(program, batch, scenario.label, clock_ps)
    if faultload.n_violating == 0:
        raise SystemExit("aged corner %s derived no violating gates at the "
                         "fresh clock; nothing to inject" % scenario.label)
    masks = faultload.masks(args.seed, words)
    injected, faulted = count_mask_bits(masks, args.vectors)

    ref_n = min(args.ref_vectors, args.vectors)
    ref_words = bitpack.word_count(ref_n)
    ref_bits = pi_bits[:ref_n]
    ref_masks = {row: mask[:ref_words] for row, mask in masks.items()}
    packed_sub = evaluate_packed_injected(compiled, ref_bits, ref_masks)
    scalar_sub = evaluate_bytes_injected(
        compiled, ref_bits, unpack_op_masks(ref_masks, ref_n))
    if not (packed_sub == scalar_sub).all():
        raise SystemExit("packed injector disagrees with the scalar "
                         "reference on a %d-vector subsample" % ref_n)
    words_sub = bitpack.unpack_ints(
        evaluate_words(compiled, pi_words[:, :ref_words], ref_masks), ref_n)
    if not (np.array_equal(pi_words, bitpack.pack_bits(pi_bits))
            and np.array_equal(words_sub,
                               bits_to_int(scalar_sub, signed=True))):
        raise SystemExit("packed-words path disagrees with the scalar "
                         "reference on a %d-vector subsample" % ref_n)
    # The campaign's grid point replays the fan-out cone of the
    # violating gates over the frontier its clean evaluation kept.
    cone = fanout_rows(program, faultload.rows).tolist()
    clean_words, kept = evaluate_words(compiled, pi_words,
                                       keep=cone_frontier(compiled, cone))
    if not np.array_equal(
            replay_words(compiled, pi_words, kept, cone, masks, clean_words),
            evaluate_words(compiled, pi_words, masks)):
        raise SystemExit("cone replay of %d op(s) disagrees with the full "
                         "masked evaluation" % len(cone))

    spec = CampaignSpec(component="multiplier", width=args.width,
                        scenarios=("fresh", args.scenario),
                        clock_scales=(1.0,), vectors=4096, seed=args.seed,
                        effort=args.effort)
    if run_campaign(spec).to_dict() != run_campaign(spec).to_dict():
        raise SystemExit("campaign is not bit-reproducible from its seed")
    print("correctness gates passed: fresh corner empty, packed == scalar "
          "reference on %d vectors, cone replay == full replay, campaign "
          "bit-reproducible" % ref_n)
    print("%d violating gate(s), %d faults injected over %d vectors "
          "(%.4f faults/vector); the cone replay runs %d of %d ops"
          % (faultload.n_violating, injected, args.vectors,
             injected / args.vectors, len(cone), program.n_gates))

    # -- timings -----------------------------------------------------------
    def clean_eval():
        evaluate_packed(compiled, pi_bits)

    def mask_sampling():
        faultload.masks(args.seed, words)

    def injected_eval():
        evaluate_packed_injected(compiled, pi_bits, masks)

    def inject_point():
        # End-to-end grid point: sample masks, replay, count faults.
        m = faultload.masks(args.seed, words)
        count_mask_bits(m, args.vectors)
        evaluate_packed_injected(compiled, pi_bits, m)

    def words_clean_eval():
        bitpack.unpack_ints(evaluate_words(compiled, pi_words), args.vectors)

    def words_inject_point():
        # The campaign's grid point: masks, count, cone replay over the
        # kept clean words, decode straight to integers.
        m = faultload.masks(args.seed, words)
        count_mask_bits(m, args.vectors)
        bitpack.unpack_ints(
            replay_words(compiled, pi_words, kept, cone, m, clean_words),
            args.vectors)

    def scalar_reference():
        evaluate_bytes_injected(compiled, ref_bits,
                                unpack_op_masks(ref_masks, ref_n))

    results = {}
    for label, fn in [
        ("clean_packed_eval", clean_eval),
        ("mask_sampling", mask_sampling),
        ("injected_packed_eval", injected_eval),
        ("inject_point", inject_point),
        ("words_clean_eval", words_clean_eval),
        ("words_inject_point", words_inject_point),
        ("scalar_reference", scalar_reference),
    ]:
        with obs_trace.span("bench." + label, repeats=args.repeats):
            seconds = best_time(fn, args.repeats)
            peak = traced_peak(fn)
        vectors = ref_n if label == "scalar_reference" else args.vectors
        results[label] = {"seconds": seconds, "peak_bytes": peak,
                          "vectors": vectors}
        print("%-22s %8.3f s   %10.0f vectors/s   peak %7.1f MiB"
              % (label, seconds, vectors / seconds, peak / 2**20))

    vectors_per_sec = args.vectors / results["inject_point"]["seconds"]
    scalar_per_vector = results["scalar_reference"]["seconds"] / ref_n
    packed_per_vector = results["inject_point"]["seconds"] / args.vectors
    packed_speedup = scalar_per_vector / packed_per_vector
    overhead_pct = 100.0 * (results["inject_point"]["seconds"]
                            / results["clean_packed_eval"]["seconds"] - 1.0)
    words_vectors_per_sec = (args.vectors
                             / results["words_inject_point"]["seconds"])
    words_speedup = (results["inject_point"]["seconds"]
                     / results["words_inject_point"]["seconds"])
    print("end-to-end injection: %.2fM vectors/s (target >= 1M), "
          "%.1fx over the scalar reference, +%.0f%% over clean packed eval"
          % (vectors_per_sec / 1e6, packed_speedup, overhead_pct))
    print("packed-words grid point: %.2fM vectors/s, %.2fx over the "
          "bit-matrix grid point" % (words_vectors_per_sec / 1e6,
                                     words_speedup))

    report = {
        "benchmark": "inject",
        "component": component.name,
        "width": args.width,
        "effort": args.effort,
        "scenario": scenario.label,
        "clock_ps": clock_ps,
        "vectors": args.vectors,
        "gates": program.n_gates,
        "violating_gates": faultload.n_violating,
        "injected_faults": int(injected),
        "faulted_vectors": int(faulted),
        "seed": args.seed,
        "repeats": args.repeats,
        "results": results,
        "vectors_per_sec": vectors_per_sec,
        "target_vectors_per_sec": 1e6,
        "packed_speedup": packed_speedup,
        "words_vectors_per_sec": words_vectors_per_sec,
        "words_speedup": words_speedup,
        "injection_overhead_pct": overhead_pct,
    }
    n_runs = bench_util.append_run(args.out, report)
    print("wrote %s (%d run(s) recorded)" % (args.out, n_runs))
    if vectors_per_sec < 1e6:
        raise SystemExit("injection throughput %.0f vectors/s is below "
                         "the 10^6 target" % vectors_per_sec)
    return report


if __name__ == "__main__":
    main()
