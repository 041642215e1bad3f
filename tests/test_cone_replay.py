"""Tests for the cone-restricted fault replay of injection campaigns.

A campaign grid point re-evaluates only the fan-out cone of its
violating gates (:func:`repro.sta.engine.fanout_rows`) over the frontier
slots its chunk's clean evaluation kept
(:func:`repro.sim.logic.cone_frontier`), then splices the PO rows the
cone wrote into the clean PO words (:func:`repro.sim.logic.replay_words`).
These tests hold that replay to the full masked evaluation
(:func:`repro.sim.logic.evaluate_words` with ``op_masks``) and the
scalar byte injector on random netlists and mask sets, to the faultload
rows on real grids, and to identical campaign results whatever the
frontier budget, the chunking or the replay path.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cells import default_library
from repro.core.grid import timing_grid
from repro.inject import CampaignSpec, build_faultload, run_campaign
from repro.inject import campaign
from repro.inject.inject_sim import unpack_op_masks
from repro.obs import metrics as obs_metrics
from repro.sim import bitpack
from repro.sim.logic import (compile_netlist, cone_frontier, evaluate_words,
                             replay_words)
from repro.sta.engine import compile_timing, fanout_rows
from repro.verify import evaluate_bytes_injected, random_netlist

LIB = default_library()

#: Mult8 grid reaching deep cones (up to 105 of 379 ops at 0.5).
DEEP = CampaignSpec(component="mult8", scenarios=("worst1y", "worst10y"),
                    clock_scales=(1.0, 0.7, 0.5), vectors=4097, seed=7,
                    effort="high")

MASK_KINDS = ("empty", "po", "leaf", "overlap", "all", "random")


def _mask_rows(kind, compiled, program, rng):
    """Rows to mask: none, PO drivers, rows without readers, a row
    plus rows of its own cone, every row, or a random subset."""
    n = len(compiled.outs)
    if kind == "empty":
        return []
    if kind == "po":
        drives = set(compiled.po_slots)
        return [r for r, out in enumerate(compiled.outs) if out in drives]
    if kind == "leaf":
        read = {s for ins in compiled.ins for s in ins}
        return [r for r, out in enumerate(compiled.outs) if out not in read]
    if kind == "overlap":
        first = int(rng.integers(n))
        cone = fanout_rows(program, [first]).tolist()
        return sorted({first, int(rng.choice(cone)), int(rng.integers(n))})
    if kind == "all":
        return list(range(n))
    return [r for r in range(n) if rng.random() < 0.3]


def _cone_replay(compiled, program, pi_words, masks):
    """The campaign's replay of *masks*, keeping only its frontier."""
    rows = fanout_rows(program, sorted(masks)).tolist()
    clean, kept = evaluate_words(compiled, pi_words,
                                 keep=cone_frontier(compiled, rows))
    return rows, replay_words(compiled, pi_words, kept, rows, masks, clean)


@given(seed=st.integers(0, 2**32 - 1), vectors=st.integers(1, 200),
       kind=st.sampled_from(MASK_KINDS))
def test_cone_replay_matches_full_and_scalar(seed, vectors, kind):
    """Cone replay == full masked replay == scalar byte injector."""
    rng = np.random.default_rng(seed)
    netlist = random_netlist(rng, n_inputs=5, max_gates=30, n_outputs=4)
    compiled = compile_netlist(netlist, LIB)
    program = compile_timing(netlist, LIB)
    assert compiled.program is program
    words = bitpack.word_count(vectors)
    masks = {row: rng.integers(0, 2**64, size=words, dtype=np.uint64)
             for row in _mask_rows(kind, compiled, program, rng)}
    pi_bits = rng.integers(0, 2, size=(vectors, len(
        netlist.primary_inputs)), dtype=np.uint8)
    pi_words = bitpack.pack_bits(pi_bits)

    rows, got = _cone_replay(compiled, program, pi_words, masks)
    full = evaluate_words(compiled, pi_words, masks)
    assert np.array_equal(got, full)
    assert np.array_equal(bitpack.unpack_bits(full, vectors),
                          evaluate_bytes_injected(
                              compiled, pi_bits,
                              unpack_op_masks(masks, vectors)))
    # The cone holds the masked rows and every reader of what it writes.
    assert set(masks) <= set(rows)
    written = {compiled.outs[r] for r in rows}
    assert all(r in rows for r, ins in enumerate(compiled.ins)
               if written.intersection(ins))


def test_cone_is_faultload_on_grids():
    """Aged arrivals grow along every path, so everything downstream of
    a violating gate violates: the cone is the faultload itself."""
    for component in ("mult8", "mult16"):
        grid = timing_grid(component, scenarios=("worst1y", "worst10y"))
        for label in grid.labels:
            for scale in (1.0, 0.9, 0.8, 0.7, 0.6, 0.5):
                load = build_faultload(grid.program, grid.batch, label,
                                       grid.fresh_clock_ps * scale)
                assert np.array_equal(
                    fanout_rows(grid.program, load.rows), load.rows)


def test_replay_ops_pinned_on_stat_arms_spec():
    """One stat_arms_mult16 pool spec replays its faultloads: 14, 23,
    23 and 32 of mult16's 1614 ops."""
    spec = CampaignSpec(component="mult16",
                        scenarios=("worst1y", "worst10y"),
                        clock_scales=(1.0, 0.95), vectors=4096, seed=1000,
                        effort="high")
    keys = [(task["scenario"], task["clock_scale"])
            for task in campaign.make_point_tasks(spec)]
    prelude = campaign._build_prelude(spec, None, keys)
    assert [len(rows) for rows in prelude.replays] == [14, 23, 23, 32]
    assert [load.n_violating for load in prelude.faultloads] == \
        [14, 23, 23, 32]
    with obs_metrics.scoped() as registry:
        run_campaign(spec, jobs=1)
    assert registry.snapshot()["counters"]["inject.replay_ops"] == 92


def _full_replay(prelude, index, masks):
    return evaluate_words(prelude.compiled, prelude.pi_words, masks)


@pytest.fixture(scope="module")
def deep_reference():
    return run_campaign(DEEP, jobs=1).to_dict()


def test_campaign_equals_full_replay(deep_reference, monkeypatch):
    monkeypatch.setattr(campaign, "_replay", _full_replay)
    assert run_campaign(DEEP, jobs=1).to_dict() == deep_reference


@pytest.mark.parametrize("slots", [0, 1])
def test_frontier_budget_does_not_change_rows(deep_reference, monkeypatch,
                                              slots):
    """With no room, or room for one slot, every point (each has a
    frontier of 8 or more slots) replays every op from the primary
    inputs; the rows stay the same."""
    monkeypatch.setattr(campaign, "KEPT_FRONTIER_BYTES",
                        8 * slots * bitpack.word_count(DEEP.vectors))
    keys = [(task["scenario"], task["clock_scale"])
            for task in campaign.make_point_tasks(DEEP)]
    prelude = campaign._build_prelude(DEEP, None, keys)
    assert len(prelude.kept) <= slots
    n_ops = len(prelude.compiled.outs)
    assert all(len(rows) == n_ops for rows in prelude.replays)
    assert run_campaign(DEEP, jobs=1).to_dict() == deep_reference


def test_jobs_split_frontiers(deep_reference):
    """Each of two chunks keeps its own frontier; results match."""
    keys = [(task["scenario"], task["clock_scale"])
            for task in campaign.make_point_tasks(DEEP)]
    whole = campaign._build_prelude(DEEP, None, keys).kept
    halves = [set(campaign._build_prelude(DEEP, None, part).kept)
              for part in (keys[:3], keys[3:])]
    assert halves[0] != halves[1]
    assert halves[0] | halves[1] == set(whole)
    assert run_campaign(DEEP, jobs=2).to_dict() == deep_reference
