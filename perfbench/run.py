"""Layer-attributed benchmark of the repro package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_idct --seed 1 --seconds 30 \\
        --trace 0

Workloads (see README.md for why each exists and what it bypasses):
``paper_idct``, ``serve_mult16``, ``stat_arms_mult16``.

With ``--trace 0`` the run is timed with tracing off and reports every
end-to-end metric of ``BENCHMARK.json``; each workload gives the generic
``work_s`` and ``rate_per_s`` its own meaning (see README.md). With
``--trace 1`` it reports every per-layer metric instead, from a traced
run; a layer the workload does not exercise reads 0. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``. Outputs are checked against the program's recorded or
directly computed results before any timing counts; a mismatch counts as
a failed operation and its timing is dropped.
"""

import argparse
import importlib
import json
import shutil
import sys

import harness

WORKLOADS = ("paper_idct", "serve_mult16", "stat_arms_mult16")


class Context:
    """What a workload's ``measure`` gets: the run's settings and I/O."""

    def __init__(self, args, expected, work):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size = args.size
        self.expected = expected
        self.work = work

    @staticmethod
    def say(text):
        print(text, flush=True)

    @staticmethod
    def log(text):
        print(text, file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for smoke tests")
    parser.add_argument("--expected", default=None,
                        help="recorded outputs to check against "
                             "(default perfbench/expected.json)")
    return parser.parse_args(argv)


def declared(trace):
    """``{metric name: unit}`` this run must report, from BENCHMARK.json."""
    with open(harness.ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}


def main(argv=None):
    args = parse_args(argv)
    if not (harness.SRC / "repro" / "__init__.py").is_file():
        print("error: no program to measure at %s" % harness.SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    names = declared(args.trace)
    expected = harness.load_expected(args.expected)
    module = importlib.import_module(args.workload)
    harness.pin_benchmark()
    work = harness.work_dir(args.workload)
    try:
        outcome = module.measure(Context(args, expected, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for name, (value, unit) in outcome["metrics"].items():
        if unit != names.get(name):
            raise harness.BenchError("metric %s measured in %s, declared in "
                                     "%s" % (name, unit, names.get(name)))
        metrics[name] = {"value": value, "unit": unit}
    if args.trace:
        for name, unit in names.items():
            metrics.setdefault(name, {"value": 0.0, "unit": unit})
    elif outcome["failed"] == 0 and set(metrics) != set(names):
        raise harness.BenchError("end-to-end metrics %s not measured"
                                 % sorted(set(names) - set(metrics)))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except harness.BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(1)
