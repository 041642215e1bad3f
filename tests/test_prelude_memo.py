"""Campaign and Monte Carlo preludes are memoized by library content.

Both preludes key their per-process memo on the library's content
fingerprint, never on ``id(library)`` (Python may hand a dead library's
id to a new one), and take their netlist from the shared in-process
synthesis memo instead of synthesizing again.
"""

import pytest

from repro.cells import default_library
from repro.cells.library import CellLibrary, nangate45
from repro.inject import campaign
from repro.inject.campaign import CampaignSpec
from repro.mc import yield_curves
from repro.mc.yield_curves import MCSpec
from repro.obs import metrics as obs_metrics
from repro.synth import clear_sweep_memo

ARMS = [
    (campaign, CampaignSpec(component="adder6", vectors=64,
                            effort="low").validated()),
    (yield_curves, MCSpec(component="adder6", samples=8, sweep_bits=2,
                          effort="low").validated()),
]


@pytest.fixture(autouse=True)
def _fresh_memos():
    for module, __ in ARMS:
        module._PRELUDE_MEMO.clear()
    clear_sweep_memo()
    yield
    for module, __ in ARMS:
        module._PRELUDE_MEMO.clear()
    clear_sweep_memo()


def _variant_library():
    """Same cells as the default library, heavier primary-output load."""
    return CellLibrary("variant", list(nangate45()), output_load_ff=3.5)


@pytest.mark.parametrize("module, spec", ARMS, ids=["inject", "mc"])
def test_equal_content_shares_a_prelude(module, spec):
    one, other = nangate45(), nangate45()
    assert one is not other
    assert module._prelude(spec, library=one) \
        is module._prelude(spec, library=other)
    # The default library is keyed by content like any other.
    assert module._prelude(spec) is module._prelude(spec, library=one)


@pytest.mark.parametrize("module, spec", ARMS, ids=["inject", "mc"])
def test_different_content_never_shares(module, spec):
    plain = module._prelude(spec, library=default_library())
    heavy = module._prelude(spec, library=_variant_library())
    assert heavy is not plain
    assert heavy.fresh_clock_ps > plain.fresh_clock_ps


def test_preludes_share_one_synthesis():
    """Preludes for different specs reuse one memoized synthesis."""
    with obs_metrics.scoped() as registry:
        for seed in (1, 2, 3):
            campaign._prelude(CampaignSpec(
                component="adder6", vectors=64, effort="low",
                seed=seed).validated())
            yield_curves._prelude(MCSpec(
                component="adder6", samples=8, sweep_bits=2, effort="low",
                seed=seed).validated())
        runs = registry.value(obs_metrics.SYNTH_RUNS)
    assert len(campaign._PRELUDE_MEMO) == 3
    assert len(yield_curves._PRELUDE_MEMO) == 3
    assert runs == 1
