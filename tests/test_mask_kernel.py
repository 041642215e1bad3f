"""The shared-plane fault-mask kernel and the faultload fast paths.

``bernoulli_masks`` draws a gate's bit-planes once for all of its
thresholds; it must equal the whole-uniform oracle
(``repro.verify.bernoulli_masks_reference``) threshold by threshold.
A campaign chunk opens one Philox stream per violating gate and RNG
chunk (the ``inject.mask_streams`` counter), holds at most
``HELD_MASK_BYTES`` of masks for points not yet reached, and releases
each point's masks once the point is done. The faultload's vector forms (output
slots from the program's levels, ``flip_thresholds``) equal the
per-gate scalar forms they replace.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.grid import timing_grid
from repro.inject import CampaignSpec, build_faultload, run_campaign
from repro.inject.campaign import make_point_tasks
from repro.inject import faultload as faultload_mod, masks as masks_mod
from repro.inject.faultload import point_masks
from repro.inject.masks import (CHUNK_WORDS, PROB_BITS, PROB_ONE,
                                bernoulli_masks, bernoulli_words,
                                flip_threshold, flip_thresholds)
from repro.obs import metrics as obs_metrics
from repro.verify import bernoulli_masks_reference

#: Thresholds whose low bits are zero retire before the last plane.
TRAILING_ZEROS = st.builds(lambda value, shift: value << shift,
                           st.integers(1, 255), st.integers(1, 16)).filter(
    lambda t: t < PROB_ONE)
THRESHOLDS = (st.sampled_from((0, 1, PROB_ONE - 1, PROB_ONE))
              | st.integers(1, PROB_ONE - 1) | TRAILING_ZEROS)


class TestKernelMatchesOracle:
    @given(seed=st.integers(0, 2**64 - 1), uid=st.integers(0, 2**40),
           thresholds=st.lists(THRESHOLDS, min_size=1, max_size=6),
           repeat=st.booleans(),
           words=st.sampled_from((1, 2, 63, 255, 256, 4097,
                                  CHUNK_WORDS - 1, CHUNK_WORDS,
                                  CHUNK_WORDS + 5, 2 * CHUNK_WORDS + 1,
                                  2 * CHUNK_WORDS + 4094)))
    def test_every_threshold_equals_the_oracle(self, seed, uid, thresholds,
                                               repeat, words):
        if repeat:                      # duplicates, out of order
            thresholds = thresholds + thresholds[::-1]
        got = bernoulli_masks(seed, uid, thresholds, words)
        want = bernoulli_masks_reference(seed, uid, thresholds, words)
        assert len(got) == len(thresholds)
        for threshold, mask, ref in zip(thresholds, got, want):
            assert mask.dtype == np.uint64 and mask.shape == (words,)
            assert (mask == ref).all(), threshold

    @pytest.mark.parametrize("words", [1, 3, 255, 256, 4097,
                                       CHUNK_WORDS - 1])
    def test_partial_chunk_is_prefix_of_full_chunk(self, words):
        # A partial chunk draws only its own words and advances the
        # stream past the rest: every plane stays where it was.
        thresholds = [1, 0xABCDEF, PROB_ONE - 1, 5 << 20]
        full = bernoulli_masks(3, 17, thresholds, CHUNK_WORDS)
        short = bernoulli_masks(3, 17, thresholds, words)
        for mask, ref in zip(short, full):
            assert (mask == ref[:words]).all()

    def test_one_threshold_call_is_bernoulli_words(self):
        thresholds = [5 << 20, 1, 0xABCDEF, PROB_ONE - 1]
        shared = bernoulli_masks(3, 17, thresholds, CHUNK_WORDS + 5)
        for threshold, mask in zip(thresholds, shared):
            assert (mask == bernoulli_words(3, 17, threshold,
                                            CHUNK_WORDS + 5)).all()

    def test_streams_opened_once_per_chunk(self):
        with obs_metrics.scoped() as registry:
            bernoulli_masks(3, 17, [1, 2, 0xABCDEF, 0, PROB_ONE],
                            2 * CHUNK_WORDS + 1)
            bernoulli_masks(3, 17, [0, PROB_ONE], CHUNK_WORDS)
        counters = registry.snapshot()["counters"]
        assert counters[obs_metrics.INJECT_MASK_STREAMS] == 3


class TestFlipThresholds:
    EDGES = (0.0, -0.0, -1e-300, -0.5, -np.inf, 5e-324, 1e-300, 1e-12,
             2.0 ** -PROB_BITS, 2.0 ** -(PROB_BITS + 1),
             3 * 2.0 ** -(PROB_BITS + 1), 0.5, 0.3,
             1.0 - 2.0 ** -PROB_BITS, 1.0 - 2.0 ** -(PROB_BITS + 1),
             1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 2.0, np.inf)

    def check(self, probabilities):
        got = flip_thresholds(probabilities)
        assert got.dtype == np.int64
        assert got.tolist() == [flip_threshold(p) for p in probabilities]

    def test_edges(self):
        self.check(list(self.EDGES))

    def test_random_probabilities(self):
        rng = np.random.default_rng(2017)
        self.check(rng.random(10 ** 4).tolist())
        self.check((rng.random(10 ** 4) * 2.0 ** -20).tolist())

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError):
            flip_thresholds([0.5, float("nan")])


#: The grid points of ``worst1y,worst10y x 1.0,0.95``, by corner label,
#: in task order and split as two workers split them.
POINTS = ((("1y_worst", 1.0), ("1y_worst", 0.95)),
          (("10y_worst", 1.0), ("10y_worst", 0.95)))


@pytest.fixture(scope="module")
def mult8_grid():
    return timing_grid("mult8", effort="high",
                       scenarios=("worst1y", "worst10y"))


def faultloads_of(grid, points, activity=0.5):
    return [build_faultload(grid.program, grid.batch, label,
                            grid.fresh_clock_ps * scale, activity=activity)
            for label, scale in points]


class TestFaultloadFastPaths:
    def test_output_slots_match_gate_walk(self, mult8_grid):
        program = mult8_grid.program
        walked = [program.slot_of[gate.output] for gate in program.gates]
        assert program.out_slots.tolist() == walked
        for level in program.levels:
            assert np.array_equal(level.out_slots,
                                  program.out_slots[level.rows])

    def test_point_masks_equal_per_gate_draws(self, mult8_grid):
        loads = faultloads_of(mult8_grid, POINTS[0] + POINTS[1])
        words = CHUNK_WORDS + 3
        for load, masks in zip(loads, point_masks(loads, 11, words)):
            want = {}
            for row, uid, threshold in zip(load.rows.tolist(),
                                           load.gate_uids.tolist(),
                                           load.thresholds.tolist()):
                mask = bernoulli_words(11, uid, threshold, words)
                if mask.any():
                    want[row] = mask
            assert list(masks) == list(want)
            assert all((masks[row] == want[row]).all() for row in want)
            assert load.masks(11, words).keys() == masks.keys()

    def test_yielded_masks_are_released(self, mult8_grid):
        loads = faultloads_of(mult8_grid, POINTS[1])
        assert loads[0].n_violating and loads[1].n_violating
        masks_iter = point_masks(loads, 11, 64)
        first = next(masks_iter)
        refs = [weakref.ref(mask) for mask in first.values()]
        del first
        second = next(masks_iter)
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert second

    @pytest.mark.parametrize("budget", [0, 1, 5, 64])
    def test_held_masks_stay_within_budget(self, mult8_grid, monkeypatch,
                                           budget):
        loads = faultloads_of(mult8_grid, POINTS[0] + POINTS[1])
        words = 64
        monkeypatch.setattr(faultload_mod, "HELD_MASK_BYTES",
                            budget * 8 * words)
        drawn = []
        real = masks_mod.bernoulli_masks

        def spy(*args):
            got = real(*args)
            drawn.extend(weakref.ref(mask) for mask in got)
            return got

        monkeypatch.setattr(masks_mod, "bernoulli_masks", spy)
        with obs_metrics.scoped() as registry:
            for load, masks in zip(loads, point_masks(loads, 11, words)):
                del masks
                gc.collect()
                alive = {id(ref()) for ref in drawn if ref() is not None}
                assert len(alive) <= load.n_violating + budget
        streams = registry.snapshot()["counters"][
            obs_metrics.INJECT_MASK_STREAMS]
        violating = sum(load.n_violating for load in loads)
        distinct = len({uid for load in loads
                        for uid in load.gate_uids.tolist()})
        if budget == 0:
            assert streams == violating
        assert distinct <= streams <= violating
        if budget >= violating:
            assert streams == distinct
        for load, masks in zip(loads, point_masks(loads, 11, words)):
            assert masks.keys() == load.masks(11, words).keys()
            for row, mask in masks.items():
                uid = int(load.gate_uids[load.rows.tolist().index(row)])
                threshold = int(load.thresholds[load.rows.tolist().index(row)])
                assert (mask == bernoulli_words(11, uid, threshold,
                                                words)).all()


class TestMaskStreamCounter:
    """One stream per distinct violating gate and RNG chunk of each
    campaign chunk task, however many grid points share the gate."""

    SPEC = CampaignSpec(component="mult8", scenarios=("worst1y", "worst10y"),
                        clock_scales=(1.0, 0.95), vectors=4096, seed=7,
                        effort="high")

    @staticmethod
    def distinct_gates(grid, points):
        return len({uid for load in faultloads_of(grid, points)
                    for uid in load.gate_uids.tolist()})

    def run(self, jobs):
        with obs_metrics.scoped() as registry:
            result = run_campaign(self.SPEC, jobs=jobs)
        return result, registry.snapshot()["counters"]

    def test_jobs1_draws_each_gate_once(self, mult8_grid):
        tasks = make_point_tasks(self.SPEC)
        assert [(t["scenario"], t["clock_scale"]) for t in tasks] \
            == list(POINTS[0] + POINTS[1])
        __, counters = self.run(jobs=1)
        distinct = self.distinct_gates(mult8_grid, POINTS[0] + POINTS[1])
        violating = sum(load.n_violating for load in
                        faultloads_of(mult8_grid, POINTS[0] + POINTS[1]))
        assert distinct < violating
        assert counters[obs_metrics.INJECT_MASK_STREAMS] == distinct

    def test_jobs2_draws_each_gate_once_per_task(self, mult8_grid):
        serial, __ = self.run(jobs=1)
        pooled, counters = self.run(jobs=2)
        assert pooled.to_dict() == serial.to_dict()
        assert counters[obs_metrics.INJECT_MASK_STREAMS] == sum(
            self.distinct_gates(mult8_grid, points) for points in POINTS)

    def test_counts_every_rng_chunk(self, mult8_grid):
        spec = CampaignSpec.from_dict(dict(self.SPEC.to_dict(),
                                           vectors=64 * CHUNK_WORDS + 1))
        with obs_metrics.scoped() as registry:
            run_campaign(spec, jobs=1)
        counters = registry.snapshot()["counters"]
        assert counters[obs_metrics.INJECT_MASK_STREAMS] == 2 * \
            self.distinct_gates(mult8_grid, POINTS[0] + POINTS[1])
