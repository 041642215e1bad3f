"""The statistical arms share one timing grid, memoized by content.

Fault-injection campaigns, Monte Carlo analyses and the truncation
screen take their synthesis, timing program, batched corner STA and
Eq. 2 precisions from one :class:`repro.core.grid.TimingGrid`. The
per-process memo (:func:`repro.core.grid.timing_grid`) is keyed on the
component, effort, corner scenarios and library *content* — never on
``id(library)`` or on per-run fields such as the seed.
"""

import pytest

from repro.aging import worst_case
from repro.cells import default_library
from repro.cells.library import CellLibrary, nangate45
from repro.core import grid as grid_mod
from repro.core.characterize import truncation_screen
from repro.core.grid import GRID_MEMO_LIMIT, timing_grid
from repro.core.specs import parse_component
from repro.inject import campaign
from repro.inject.campaign import CampaignSpec, run_campaign
from repro.mc import yield_curves
from repro.mc.yield_curves import MCSpec, run_mc
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
    grid_mod._GRID_MEMO.clear()
    clear_sweep_memo()
    yield
    grid_mod._GRID_MEMO.clear()
    clear_sweep_memo()


def _variant_library():
    """Same cells as the default library, heavier primary-output load."""
    return CellLibrary("variant", list(nangate45()), output_load_ff=3.5)


def test_preludes_share_one_synthesis():
    """Campaign and mc specs differing only in seed, clocks, vectors,
    samples or sweep depth run one synthesis and one batched STA
    between them."""
    with obs_metrics.scoped() as registry:
        for seed in (1, 2, 3):
            run_campaign(CampaignSpec(
                component="adder6", scenarios=("worst10y",),
                clock_scales=(1.0, 0.9 + 0.02 * seed),
                vectors=64 * seed, effort="low", seed=seed), jobs=1)
            run_mc(MCSpec(
                component="adder6", scenarios=("worst10y",),
                clock_scales=(0.95 + 0.01 * seed,), samples=8 * seed,
                sweep_bits=seed, effort="low", seed=seed), jobs=1)
        counters = registry.snapshot()["counters"]
    assert counters["synth.runs"] == 1
    assert counters["sta.batch.runs"] == 1
    assert len(grid_mod._GRID_MEMO) == 1


@pytest.mark.parametrize("module, spec", ARMS, ids=["inject", "mc"])
def test_equal_content_shares_a_prelude(module, spec):
    one, other = nangate45(), nangate45()
    assert one is not other
    grid = module._build_prelude(spec, one).grid
    assert module._build_prelude(spec, other).grid is grid
    # The default library is keyed by content like any other.
    assert module._build_prelude(spec, None).grid is grid
    assert timing_grid("adder6", effort="low", scenarios=spec.scenarios,
                       library=other) is grid


@pytest.mark.parametrize("module, spec", ARMS, ids=["inject", "mc"])
def test_different_content_never_shares(module, spec):
    plain = module._build_prelude(spec, default_library()).grid
    heavy = module._build_prelude(spec, _variant_library()).grid
    assert heavy is not plain
    assert heavy.fresh_clock_ps > plain.fresh_clock_ps


def test_effort_or_scenarios_never_share():
    base = timing_grid("adder6", effort="low", scenarios=("worst10y",))
    # Spellings of one component or scenario are one grid.
    assert timing_grid("adder", width=6, effort="low",
                       scenarios=("10y_worst",)) is base
    others = [
        timing_grid("adder6", effort="high", scenarios=("worst10y",)),
        timing_grid("adder6", effort="low", scenarios=("worst1y",)),
        timing_grid("adder6", effort="low",
                    scenarios=("worst1y", "worst10y")),
    ]
    assert all(other is not base for other in others)
    assert len({id(other) for other in others}) == len(others)


def test_memo_keeps_the_most_recently_used_grids():
    grids = [timing_grid("adder%d" % width, effort="low",
                         scenarios=("worst10y",))
             for width in range(3, 4 + GRID_MEMO_LIMIT)]
    assert len(grid_mod._GRID_MEMO) == GRID_MEMO_LIMIT
    # The oldest was evicted, the newest are served from the memo.
    assert timing_grid("adder%d" % (3 + GRID_MEMO_LIMIT), effort="low",
                       scenarios=("worst10y",)) is grids[-1]
    assert timing_grid("adder3", effort="low",
                       scenarios=("worst10y",)) is not grids[0]


def test_eq2_precision_agrees_across_arms_and_screen(lib):
    """Campaign approximation, mc deterministic K and the truncation
    screen pick the same precision at every scenario and clock."""
    scales = (1.0, 0.97, 0.9)
    common = dict(component="rca8", scenarios=("worst1y", "worst10y"),
                  clock_scales=scales, effort="high", seed=5)
    inject = run_campaign(CampaignSpec(vectors=64, **common), library=lib)
    mc = run_mc(MCSpec(samples=8, sweep_bits=7, **common), library=lib)
    screen = truncation_screen(parse_component("rca8"), lib,
                               [worst_case(1.0), worst_case(10.0)],
                               precisions=range(8, 0, -1), effort="high")
    fresh_ps = screen.delay_ps(8, "fresh")
    assert fresh_ps == inject.fresh_clock_ps == mc.fresh_clock_ps
    approximation = {(e["scenario"], e["clock_scale"]): e["precision"]
                     for e in inject.approximation}
    det = {(k["scenario"], k["clock_scale"]): k["det_precision"]
           for k in mc.k_rows}
    assert approximation == det
    assert len(det) == 2 * len(scales)
    for (label, scale), k in det.items():
        assert screen.required_precision(
            label, target_ps=fresh_ps * scale) == k
    assert len({k for k in det.values()}) > 1
