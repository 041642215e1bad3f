"""The timing program's level count is the netlist's logic depth.

Characterization reports ``depth`` from the (synthesis-seeded) timing
program instead of walking the netlist with
:func:`repro.sta.paths.logic_depth`; the two must agree on every netlist
synthesis produces.
"""

import pytest

from repro.rtl import Adder, Multiplier
from repro.sta.engine import compile_timing
from repro.sta.paths import logic_depth
from repro.synth import synthesize
from repro.synth.synthesize import EFFORTS
from repro.synth.sweep import sweep_for
from repro.verify import load_corpus


@pytest.mark.parametrize("effort", sorted(EFFORTS))
@pytest.mark.parametrize("component", [Multiplier(8), Adder(16)],
                         ids=lambda c: c.name)
def test_sweep_variants(lib, component, effort):
    sweep = sweep_for(component, lib, effort=effort)
    for precision in range(component.width, 0, -1):
        netlist = sweep.derive(precision).netlist
        assert compile_timing(netlist, lib).depth == logic_depth(netlist), \
            (component.name, effort, precision)


def test_synthesized_corpus(lib, corpus_dir):
    corpus = load_corpus(corpus_dir)
    assert corpus
    for path, netlist in corpus:
        for effort in ("low", "ultra"):
            synthesized = synthesize(netlist, lib, effort=effort).netlist
            assert compile_timing(synthesized, lib).depth \
                == logic_depth(synthesized), (path, effort)
