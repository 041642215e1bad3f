"""Measured child process: ``python3 perfbench/child.py WORKLOAD CONFIG``.

Imports what the workload needs and builds the cell library (its
set-up), prints ``ready`` so the parent can time the set-up from the
spawn, then runs one unit of work and writes its result as JSON to
``CONFIG["out"]``. With ``CONFIG["setup_only"]`` it exits after
``ready``.
"""

import time

_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv):
    workload, config = argv[1], json.loads(argv[2])
    module = importlib.import_module(workload)
    state = module.child_setup(config)
    import_s = time.perf_counter() - _START
    print("ready", flush=True)
    if config.get("setup_only"):
        return 0
    result = module.child_work(state, config)
    result["import_s"] = import_s
    with open(config["out"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
