"""Command-line interface: ``repro-aging``.

Exposes the library's main flows without writing Python:

* ``characterize`` — build a component's aging/precision table and
  optionally persist it into an approximation-library JSON;
* ``timing`` — fresh/aged delays and the guardband of one component;
* ``flow`` — run the Section-V guardband-removal flow on a built-in
  microarchitecture (IDCT, DCT or FIR);
* ``schedule`` — plan a graceful-degradation precision schedule;
* ``export`` — dump a synthesized component as structural Verilog
  and/or an aging-annotated SDF;
* ``verify`` — run the differential-verification stack (golden models,
  cross-engine oracles, paper-fidelity invariants, optional fuzzing) on
  a component;
* ``serve`` — run the characterization service: an asyncio HTTP/JSON
  job server over the sharded multi-tier cache (see :mod:`repro.serve`).

Every command accepts ``--width`` and lifetime lists, uses the bundled
cell library, and prints plain-text reports (see :mod:`repro.report`).
Component names accept a compact ``<name><width>`` spelling (e.g.
``mult16``, ``adder8``) that overrides ``--width``.
"""

import argparse
import asyncio
import contextlib
import dataclasses
import json
import os
import sys
import time

from .aging import balance_case, worst_case
from .cells import default_library
from .core import AgingApproximationLibrary, characterize, remove_guardband
from .core import cache as cache_mod
from .core import specs as specs_mod
from .core.adaptive import plan_graceful_degradation
from .core.characterize import precision_range
from .core.parallel import resolve_jobs
from . import bench_report as bench_report_mod
from .obs import logs as obs_logs
from .obs import manifest as obs_manifest
from .obs import metrics as obs_metrics
from .obs import slo as obs_slo
from .obs import trace as obs_trace
from .netlist.netlist import NetlistError
from .report import (characterization_report, flow_report_text,
                     inject_report_text, mc_report_text,
                     metrics_report_text, schedule_report_text,
                     screen_report, timing_report_text, timings_report_text,
                     verify_report_text)
from .rtl import (fir_microarchitecture, dct_microarchitecture,
                  idct_microarchitecture)

#: Component registry and compact-spec aliases, shared with the server
#: (:mod:`repro.core.specs` owns the vocabulary).
COMPONENTS = specs_mod.component_registry()
COMPONENT_ALIASES = specs_mod.COMPONENT_ALIASES

DESIGNS = {
    "idct": idct_microarchitecture,
    "dct": dct_microarchitecture,
    "fir": fir_microarchitecture,
}


def _years_list(text):
    return [float(part) for part in text.split(",") if part]


def _stress_factory(stress):
    """``--stress`` -> the scenario factory of one lifetime."""
    return worst_case if stress == "worst" else balance_case


def _scenarios(years, stress):
    factory = _stress_factory(stress)
    return [factory(y) for y in years]


def _component(args):
    """Resolve ``--component``, accepting compact ``<name><width>`` specs.

    ``mult16`` means the 16-bit multiplier regardless of ``--width``;
    plain registry names (``multiplier``) keep using ``--width``.
    """
    try:
        return specs_mod.parse_component(
            args.component, width=args.width,
            precision=getattr(args, "precision", None))
    except specs_mod.SpecError as exc:
        raise SystemExit(str(exc))


def _sweep(args, component):
    """Precisions ``--sweep-bits`` below *component*'s full width, down
    to at most precision 1; None (the engine default) when it is 0."""
    if args.sweep_bits < 0:
        raise SystemExit("--sweep-bits must be >= 0, got %d"
                         % args.sweep_bits)
    if not args.sweep_bits:
        return None
    return precision_range(component.width, args.sweep_bits)


def _parse_scenario(spec):
    """One scenario spec: ``fresh``, ``worst10y``/``balance1y`` or the
    characterization-label spelling ``10y_worst``."""
    try:
        return specs_mod.parse_scenario(spec)
    except specs_mod.SpecError as exc:
        raise SystemExit(str(exc))


def _verify_scenarios(text):
    specs = [part.strip() for part in text.split(",") if part.strip()]
    if not specs:
        raise SystemExit("no scenarios given (try --scenario worst10y)")
    return [_parse_scenario(spec) for spec in specs]


def _manifest_config(args):
    """JSON-serializable view of the parsed arguments."""
    config = {}
    for name, value in sorted(vars(args).items()):
        if name == "func" or name.startswith("_") or callable(value):
            continue
        if isinstance(value, (list, tuple)):
            value = [v for v in value]
        config[name] = value
    return config


@contextlib.contextmanager
def _engine(args):
    """Observability + cache scope shared by every subcommand.

    Applies ``--cache-dir`` and ``--log-level``, captures a span tree
    when ``--timings``, ``--trace`` or a manifest is requested, scopes a
    fresh metrics registry, and on exit prints the ``--timings`` report
    (per-span totals of that tree) and writes the ``--trace`` /
    ``--metrics`` / ``--manifest`` artifacts.
    """
    try:
        resolve_jobs(getattr(args, "jobs", None))
    except ValueError as exc:
        raise SystemExit(str(exc))
    if getattr(args, "log_level", None):
        obs_logs.configure(args.log_level)
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    manifest_path = getattr(args, "manifest", None)
    profile_path = getattr(args, "profile", None)
    if manifest_path is None:
        # A trace/metrics request implies provenance: derive a path.
        manifest_path = obs_manifest.default_manifest_path(metrics_path,
                                                           trace_path)
    timings = getattr(args, "timings", False)
    tracing = timings or trace_path is not None or manifest_path is not None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir and not os.path.isdir(cache_dir):
        raise SystemExit("cache directory %r does not exist "
                         "(create it first, or drop --cache-dir)"
                         % cache_dir)
    # A command may pre-build its own cache instance (repro serve shards
    # its cache); scope that so the manifest reports its stats.
    cache_instance = getattr(args, "_cache_instance", None)
    if cache_instance is not None:
        scope = cache_mod.cache_enabled(cache_instance)
    elif cache_dir:
        scope = cache_mod.cache_enabled(cache_dir)
    else:
        scope = contextlib.nullcontext(cache_mod.get_cache())
    tracer = obs_trace.Tracer()
    profiler = None
    start = time.perf_counter()
    with scope as cache:
        with obs_metrics.scoped() as registry:
            capture = (obs_trace.capture(tracer) if tracing
                       else contextlib.nullcontext())
            with capture:
                with obs_trace.span("cli." + args.command,
                                    command=args.command):
                    if profile_path:
                        from .obs.profile import SamplingProfiler
                        profiler = SamplingProfiler(registry=registry)
                        profiler.start()
                    try:
                        yield
                    finally:
                        if profiler is not None:
                            profiler.stop()
            duration = time.perf_counter() - start
            snapshot = registry.snapshot()
        if timings:
            print()
            print(timings_report_text(tracer.totals(),
                                      snapshot["counters"]))
            print()
            print(metrics_report_text(snapshot))
        if trace_path:
            if trace_path.endswith(".jsonl"):
                tracer.write_jsonl(trace_path)
            else:
                tracer.write_chrome(trace_path)
            print("trace written to %s (%d spans)"
                  % (trace_path, len(tracer)))
        if metrics_path:
            with open(metrics_path, "w") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("metrics written to %s" % metrics_path)
        if profiler is not None:
            profiler.write_collapsed(profile_path)
            chrome_path = profile_path + ".chrome.json"
            profiler.write_chrome(chrome_path)
            print("profile written to %s (collapsed stacks) and %s "
                  "(Chrome flame chart, %d samples)"
                  % (profile_path, chrome_path, profiler.sample_count()))
        if manifest_path:
            manifest = obs_manifest.build_manifest(
                "repro-aging " + args.command,
                config=_manifest_config(args),
                library=default_library(),
                stages=tracer.totals(),
                metrics=snapshot,
                duration_s=duration,
                extra={"cache_stats": cache.stats.as_dict()
                       if cache is not None else None})
            obs_manifest.write_manifest(manifest_path, manifest)
            print("run manifest written to %s" % manifest_path)


def cmd_characterize(args):
    lib = default_library()
    component = _component(args)
    sweep = _sweep(args, component)
    with _engine(args):
        scenarios = _scenarios(args.years, args.stress)
        entry = characterize(component, lib, scenarios=scenarios,
                             precisions=sweep, effort=args.effort,
                             jobs=args.jobs)
        print(characterization_report(entry))
        if args.screen:
            from .core.characterize import truncation_screen
            screen = truncation_screen(component, lib, scenarios,
                                       precisions=sweep,
                                       effort=args.effort)
            print()
            print(screen_report(screen))
    if args.output:
        store = (AgingApproximationLibrary.load(args.output)
                 if args.update else AgingApproximationLibrary())
        store.add(entry)
        store.save(args.output)
        print("\nsaved to %s (%d entries)" % (args.output, len(store)))
    return 0


def cmd_timing(args):
    from .sta import analyze_batch
    from .synth import synthesize

    lib = default_library()
    component = _component(args)
    with _engine(args):
        with obs_trace.span("synthesize"):
            netlist = synthesize(component, lib,
                                 effort=args.effort).netlist
        scenarios = _scenarios(args.years, args.stress)
        with obs_trace.span("sta"):
            batch = analyze_batch(netlist, lib, [None] + scenarios)
        fresh = batch.report(0)
        print(timing_report_text(netlist, lib, fresh))
        for idx, scenario in enumerate(scenarios, start=1):
            aged_ps = batch.critical_paths_ps[idx]
            print("\n%s: critical path %.1f ps (guardband %+.1f ps, "
                  "%+.1f%%)"
                  % (scenario.label, aged_ps,
                     aged_ps - fresh.critical_path_ps,
                     100 * (aged_ps / fresh.critical_path_ps - 1)))
    return 0


def cmd_flow(args):
    lib = default_library()
    try:
        micro = DESIGNS[args.design](width=args.width)
    except KeyError:
        raise SystemExit("unknown design %r (choose from %s)"
                         % (args.design, ", ".join(sorted(DESIGNS))))
    store = (AgingApproximationLibrary.load(args.library)
             if args.library else None)
    scenarios = _scenarios(args.years, args.stress)
    with _engine(args):
        report = remove_guardband(
            micro, lib, scenarios[0], report_scenarios=scenarios[1:],
            approx_library=store, effort=args.effort, jobs=args.jobs)
        print(flow_report_text(report))
    return 0 if report.meets_constraint else 1


def cmd_schedule(args):
    lib = default_library()
    micro = DESIGNS[args.design](width=args.width)
    with _engine(args):
        schedule = plan_graceful_degradation(
            micro, lib, args.years, effort=args.effort,
            scenario_factory=_stress_factory(args.stress))
        print(schedule_report_text(schedule))
    return 0


def cmd_export(args):
    from .netlist import to_verilog
    from .sta import to_sdf
    from .synth import synthesize_netlist

    lib = default_library()
    component = _component(args)
    if not (args.verilog or args.sdf):
        raise SystemExit("nothing to export: pass --verilog and/or --sdf")
    with _engine(args):
        with obs_trace.span("synthesize"):
            netlist = synthesize_netlist(component, lib,
                                         effort=args.effort)
        wrote = []
        if args.verilog:
            with open(args.verilog, "w") as handle:
                handle.write(to_verilog(netlist))
            wrote.append(args.verilog)
        if args.sdf:
            scenario = worst_case(args.years[0]) if args.years else None
            with open(args.sdf, "w") as handle:
                handle.write(to_sdf(netlist, lib, scenario=scenario))
            wrote.append(args.sdf)
        print("wrote %s (%d gates)" % (", ".join(wrote),
                                       netlist.num_gates))
    return 0


def cmd_verify(args):
    from .verify import verify_component

    lib = default_library()
    component = _component(args)
    scenarios = _verify_scenarios(args.scenario)
    sweep = _sweep(args, component)
    with _engine(args):
        report = verify_component(
            component, lib, scenarios, vectors=args.vectors,
            oracle_vectors=args.oracle_vectors, event_cap=args.event_cap,
            precisions=sweep, fuzz_rounds=args.fuzz,
            corpus_dir=args.corpus, rng=args.seed, effort=args.effort,
            jobs=args.jobs)
        print(verify_report_text(report))
        if args.counterexamples and report.counterexamples:
            os.makedirs(args.counterexamples, exist_ok=True)
            for index, cx in enumerate(report.counterexamples):
                path = os.path.join(args.counterexamples,
                                    "counterexample_%02d.json" % index)
                with open(path, "w") as handle:
                    handle.write(cx.to_json())
                print("counterexample written to %s" % path)
    return 0 if report.passed else 1


def cmd_stat_arm(args):
    """``inject`` and ``mc``: build the arm's spec from the options that
    share its field names, run it, print and optionally save it."""
    from .core.grid import stat_arms

    spec_cls, run, field = stat_arms()[args.command]
    component = _component(args)
    fields = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(spec_cls)
              if getattr(args, f.name, None) is not None}
    fields.update(
        component=specs_mod.component_spec(component),
        width=component.width,
        scenarios=tuple(["fresh"] + ["%s%gy" % (args.stress, y)
                                     for y in args.years]),
        clock_scales=tuple(args.clocks))
    try:
        spec = spec_cls(**fields).validated()
    except specs_mod.SpecError as exc:
        raise SystemExit(str(exc))
    with _engine(args):
        result = run(spec, jobs=args.jobs)
        report = {"inject": inject_report_text, "mc": mc_report_text}
        print(report[args.command](result))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("%s result written to %s" % (field, args.output))
    return 0


def cmd_serve(args):
    from .serve import CharacterizationServer

    root = args.cache_dir or os.environ.get(cache_mod.CACHE_DIR_ENV)
    if not root:
        raise SystemExit("serve needs a cache directory "
                         "(--cache-dir or $REPRO_CACHE_DIR)")
    os.makedirs(root, exist_ok=True)
    args.cache_dir = root
    try:
        jobs = resolve_jobs(args.jobs)
        cache = cache_mod.CharacterizationCache(
            root, shards=jobs if args.shards is None else args.shards,
            mem_entries=0 if args.no_mem_tier else args.mem_entries)
    except ValueError as exc:
        raise SystemExit(str(exc))
    # Scope the ambient cache to the server's sharded instance so the
    # run manifest reports the session's real cache statistics.
    args._cache_instance = cache

    def ready(server):
        print("serving characterization on http://%s:%d "
              "(workers=%d, shards=%d, mem_entries=%d, dedup=%s)"
              % (server.host, server.port, server.pool.jobs,
                 server.cache.shards, server.cache.mem_entries,
                 server.dedup), flush=True)

    try:
        slos = ([] if args.no_slo
                else [obs_slo.parse_slo(spec) for spec in args.slo]
                if args.slo else None)
    except ValueError as exc:
        raise SystemExit(str(exc))
    with _engine(args):
        server = CharacterizationServer(
            cache, host=args.host, port=args.port, workers=jobs,
            dedup=not args.no_dedup, max_requests=args.max_requests,
            ts_interval=args.ts_interval, ts_jsonl=args.timeseries,
            slos=slos, drain_grace_s=args.drain_grace)
        try:
            asyncio.run(server.run(ready=ready))
        except KeyboardInterrupt:
            pass
        stats = server.stats()
        print("served %d requests, %d points (%d dedup, %d mem, %d disk, "
              "%d computed), %d errors"
              % (stats["requests"], stats["points"], stats["dedup_hits"],
                 stats["tier_hits"]["mem"], stats["tier_hits"]["disk"],
                 stats["computes"], stats["errors"]))
        slo_stats = stats.get("slo", {})
        if slo_stats.get("objectives"):
            print("slo: worst burn rate %.2f, %d breach(es) across %d "
                  "objective(s)"
                  % (slo_stats["worst_burn_rate"], slo_stats["breaches"],
                     len(slo_stats["objectives"])))
        if args.timeseries:
            print("time series journaled to %s (%d samples)"
                  % (args.timeseries, stats["timeseries"]["samples"]))
    return 0


def cmd_bench_report(args):
    from .bench_report import run_report

    return run_report(args.paths, check=args.check,
                      tolerance=args.tolerance)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro-aging",
        description="Aging-induced approximations (DAC'17 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, design=False, sweep=True):
        if sweep:
            p.add_argument("--width", type=int, default=32,
                           help="operand bit width (default 32)")
            p.add_argument("--years", type=_years_list, default=[10.0],
                           help="comma-separated lifetimes, e.g. 1,10")
            p.add_argument("--stress", choices=("worst", "balance"),
                           default="worst")
            p.add_argument("--effort", default="ultra",
                           choices=specs_mod.EFFORTS)
        p.add_argument("--jobs", type=int, default=None,
                       help="characterization worker processes "
                            "(default: $REPRO_JOBS or 1; 0 = one per CPU)")
        p.add_argument("--cache-dir", default=None,
                       help="characterization result cache directory "
                            "(default: $REPRO_CACHE_DIR, else disabled)")
        p.add_argument("--timings", action="store_true",
                       help="print per-stage timing and cache statistics")
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="write a span trace of the run: Chrome trace "
                            "JSON (chrome://tracing / Perfetto), or flat "
                            "JSONL when PATH ends in .jsonl")
        p.add_argument("--metrics", default=None, metavar="PATH",
                       help="write a metrics-registry snapshot JSON "
                            "(counters, gauges, histograms)")
        p.add_argument("--manifest", default=None, metavar="PATH",
                       help="write a run-manifest JSON (default: derived "
                            "from --metrics/--trace as "
                            "<stem>.manifest.json)")
        p.add_argument("--log-level", default=None,
                       choices=obs_logs.LEVELS,
                       help="verbosity of the repro.* logging hierarchy")
        p.add_argument("--profile", default=None, metavar="PATH",
                       help="run the wall-clock sampling profiler and "
                            "write collapsed stacks to PATH plus a "
                            "Chrome flame chart to PATH.chrome.json")
        if design:
            p.add_argument("--design", default="idct",
                           help="idct | dct | fir")
        elif sweep:
            p.add_argument("--component", default="adder",
                           help=" | ".join(sorted(COMPONENTS)))

    p = sub.add_parser("characterize",
                       help="build a precision/aged-delay table")
    common(p)
    p.add_argument("--sweep-bits", type=int, default=12,
                   help="how many LSBs to sweep (default 12)")
    p.add_argument("--output", help="approximation-library JSON to write")
    p.add_argument("--update", action="store_true",
                   help="merge into an existing JSON library")
    p.add_argument("--screen", action="store_true",
                   help="also print the fast incremental-STA truncation "
                        "screen (one netlist, no re-synthesis)")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("timing", help="fresh vs aged timing of a component")
    common(p)
    p.add_argument("--precision", type=int, default=None)
    p.set_defaults(func=cmd_timing)

    p = sub.add_parser("flow", help="run the guardband-removal flow")
    common(p, design=True)
    p.add_argument("--library", help="pre-built approximation-library JSON")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("schedule",
                       help="plan a graceful-degradation schedule")
    common(p, design=True)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("export", help="write Verilog / aged SDF")
    common(p)
    p.add_argument("--precision", type=int, default=None)
    p.add_argument("--verilog", help="output .v path")
    p.add_argument("--sdf", help="output .sdf path")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "verify",
        help="differential verification: golden models, cross-engine "
             "oracles, paper-fidelity invariants")
    common(p)
    p.add_argument("--scenario", default="worst1y,worst10y,balance10y",
                   help="comma-separated aging scenarios for the "
                        "invariants: worst10y, balance1y, 10y_worst, "
                        "fresh (default worst1y,worst10y,balance10y)")
    p.add_argument("--vectors", type=int, default=96,
                   help="operand tuples for the golden 3-way diff "
                        "(default 96; corners always added)")
    p.add_argument("--oracle-vectors", type=int, default=None,
                   help="stimulus vectors for the cross-engine oracle "
                        "(default: exhaustive when narrow, else 128)")
    p.add_argument("--event-cap", type=int, default=32,
                   help="vector cap for the scalar event engine "
                        "(default 32)")
    p.add_argument("--sweep-bits", type=int, default=12,
                   help="precision sweep depth for the Eq. 2 invariants "
                        "(default 12)")
    p.add_argument("--fuzz", type=int, default=0, metavar="N",
                   help="additionally fuzz the engines on N random "
                        "netlists (default 0)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="save fuzzed netlists with new structural "
                        "coverage into this corpus directory")
    p.add_argument("--counterexamples", default=None, metavar="DIR",
                   help="write minimized counterexample JSONs here")
    p.add_argument("--seed", type=int, default=20170618,
                   help="RNG seed for operands, stimulus and fuzzing")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "inject",
        help="statistical timing-fault injection campaign "
             "(guardband-free baseline vs approximation vs guardband)")
    common(p)
    p.add_argument("--clocks", type=_years_list, default=[1.0, 0.95],
                   metavar="SCALES",
                   help="comma-separated clock scales relative to the "
                        "fresh critical path (default 1.0,0.95)")
    p.add_argument("--vectors", type=int, default=4096,
                   help="stimulus vectors per grid point (default 4096)")
    p.add_argument("--seed", type=int, default=20170618,
                   help="campaign seed; results are bit-reproducible "
                        "from it (see the seed-splitting scheme in "
                        "repro.inject.masks)")
    p.add_argument("--stimulus", default="normal",
                   help="stimulus name (default normal)")
    p.add_argument("--activity", type=float, default=0.5,
                   help="output toggle activity scaling flip "
                        "probabilities (default 0.5)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write the campaign result JSON")
    p.set_defaults(func=cmd_stat_arm)

    p = sub.add_parser(
        "mc",
        help="Monte Carlo variation analysis: yield curves and the "
             "yield-constrained max precision K (stochastic Eq. 2)")
    common(p)
    p.add_argument("--clocks", type=_years_list, default=[1.0, 0.97],
                   metavar="SCALES",
                   help="comma-separated clock scales relative to the "
                        "fresh critical path (default 1.0,0.97)")
    p.add_argument("--sigma", dest="sigma_mv", type=float, default=30.0,
                   metavar="MV",
                   help="per-gate Vth variation sigma in mV "
                        "(default 30; 0 reproduces the deterministic "
                        "engine exactly)")
    p.add_argument("--samples", type=int, default=2000,
                   help="Monte Carlo samples per grid point "
                        "(default 2000)")
    p.add_argument("--seed", type=int, default=20170618,
                   help="variation seed; results are bit-reproducible "
                        "from it (see the per-gate Philox streams in "
                        "repro.mc.variation)")
    p.add_argument("--min-yield", type=float, default=0.99,
                   help="yield target defining K (default 0.99)")
    p.add_argument("--sweep-bits", type=int, default=8,
                   help="precision sweep depth below the full width "
                        "(default 8)")
    p.add_argument("--block", type=int, default=None,
                   help="sample-block size bounding peak memory "
                        "(never affects results; default 256)")
    p.add_argument("--surrogate", choices=("off", "screen"),
                   default="off",
                   help="'screen' prescreens the precision sweep with "
                        "the cross-validated least-squares surrogate "
                        "and samples only near feasibility boundaries")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write the mc result JSON")
    p.set_defaults(func=cmd_stat_arm)

    p = sub.add_parser(
        "serve",
        help="serve characterization queries over HTTP/JSON (asyncio "
             "job server over the sharded multi-tier cache)")
    common(p, sweep=False)
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8737,
                   help="bind port (default 8737; 0 = ephemeral, "
                        "printed on startup)")
    p.add_argument("--shards", type=int, default=None,
                   help="on-disk cache shard directories "
                        "(default: one per worker)")
    p.add_argument("--mem-entries", type=int, default=None,
                   help="in-memory LRU tier capacity (default: "
                        "$REPRO_CACHE_MEM_ENTRIES or %d)"
                        % cache_mod.DEFAULT_MEM_ENTRIES)
    p.add_argument("--no-mem-tier", action="store_true",
                   help="disable the in-memory cache tier")
    p.add_argument("--no-dedup", action="store_true",
                   help="disable single-flight dedup of identical "
                        "in-flight queries (for benchmarking)")
    p.add_argument("--max-requests", type=int, default=None,
                   help="shut down after serving N requests "
                        "(smoke tests)")
    p.add_argument("--timeseries", default=None, metavar="PATH",
                   help="journal periodic metric time-series samples "
                        "to this JSONL file")
    p.add_argument("--ts-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="time-series sampling interval (default 1.0)")
    p.add_argument("--slo", action="append", default=None, metavar="SPEC",
                   help="service-level objective, repeatable: "
                        "latency:pN:threshold_ms[:window_s] or "
                        "errors:availability_pct[:window_s] "
                        "(default: %s)" % ", ".join(obs_slo.DEFAULT_SLOS))
    p.add_argument("--no-slo", action="store_true",
                   help="disable SLO evaluation entirely")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   metavar="SECONDS",
                   help="seconds to wait for in-flight requests during "
                        "shutdown before force-closing (default 10)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "bench-report",
        help="analyze committed BENCH_*.json perf trajectories for "
             "speedup regressions")
    p.add_argument("paths", nargs="*", metavar="BENCH.json",
                   help="trajectory files (default: ./BENCH_*.json)")
    p.add_argument("--check", action="store_true",
                   help="exit nonzero on any regression (CI gate)")
    p.add_argument("--tolerance", type=float,
                   default=bench_report_mod.DEFAULT_TOLERANCE,
                   metavar="FRAC",
                   help="allowed fractional drop below the historical "
                        "floor (default %.2f)"
                        % bench_report_mod.DEFAULT_TOLERANCE)
    p.set_defaults(func=cmd_bench_report)
    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code.

    User-facing failures (unknown component/scenario/design names,
    missing cache directories or input files, malformed netlists) exit
    non-zero with a one-line ``error:`` diagnostic on stderr instead of
    a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except SystemExit as exc:
        if not isinstance(exc.code, str):
            raise
        print("error: %s" % exc.code, file=sys.stderr)
        return 2
    except (OSError, NetlistError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
