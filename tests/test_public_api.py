"""Every public name resolves, and every function the traced benchmark
rebinds by name is still a module attribute.

Names move between packages (the reference simulators live in
:mod:`repro.verify`); a stale ``__all__`` entry is an ``AttributeError``
on ``from repro.x import *``, and a missing
``perfbench/harness.py`` ``EXTERNAL_SPANS`` target is one in every
``--trace 1`` benchmark run.
"""

import importlib
import importlib.util
import pathlib

import pytest

PACKAGES = ("repro", "repro.sim", "repro.sta", "repro.inject",
            "repro.verify")

HARNESS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" \
    / "harness.py"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert module.__all__
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert not missing, missing


def _external_spans():
    spec = importlib.util.spec_from_file_location("perfbench_harness",
                                                  HARNESS)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness.EXTERNAL_SPANS


def test_traced_benchmark_targets_resolve():
    targets = {(module, name) for module, name, __ in _external_spans()}
    for required in (("repro.sim.logic", "compile_netlist"),
                     ("repro.sta.engine", "compile_timing"),
                     ("repro.inject.campaign", "_build_prelude"),
                     ("repro.mc.yield_curves", "_build_prelude")):
        assert required in targets
    for module_name, name in sorted(targets):
        owner = importlib.import_module(module_name)
        for part in name.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, name)
