"""Edge-case coverage for repro.quality.metrics.

The metrics feed every acceptance decision in the flow (30 dB PSNR
threshold, error-rate ladders), so the degenerate inputs — empty
vectors, identical images, custom peaks — must have well-defined
answers rather than NaN surprises.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.quality.metrics import (ACCEPTABLE_PSNR_DB, error_rate,
                                   error_summary, is_acceptable_quality,
                                   max_abs_error, mean_abs_error, mse,
                                   psnr_db, snr_db)


class TestEmptyInputs:
    def test_mse_empty_is_zero(self):
        assert mse([], []) == 0.0

    def test_mean_abs_error_empty_is_zero(self):
        assert mean_abs_error([], []) == 0.0

    def test_max_abs_error_empty_is_zero(self):
        assert max_abs_error([], []) == 0.0

    def test_error_rate_empty_is_zero(self):
        assert error_rate([], []) == 0.0

    def test_error_summary_empty_all_zero(self):
        summary = error_summary(np.array([]), np.array([]))
        assert summary == {"error_rate": 0.0, "mean_abs_error": 0.0,
                           "max_abs_error": 0.0}
        for value in summary.values():
            assert not math.isnan(value)

    def test_empty_2d_shapes(self):
        empty = np.zeros((0, 8))
        assert mse(empty, empty) == 0.0
        assert mean_abs_error(empty, empty) == 0.0


class TestIdenticalInputs:
    def test_psnr_identical_images_is_infinite(self):
        img = np.arange(64, dtype=np.float64).reshape(8, 8)
        assert psnr_db(img, img.copy()) == float("inf")

    def test_infinite_psnr_is_acceptable(self):
        assert is_acceptable_quality(float("inf"))

    def test_snr_identical_signals_is_infinite(self):
        sig = np.sin(np.linspace(0, 4, 100))
        assert snr_db(sig, sig.copy()) == float("inf")

    def test_snr_zero_reference_power(self):
        zeros = np.zeros(16)
        assert snr_db(zeros, np.ones(16)) == float("-inf")


class TestPeakOverride:
    def test_default_peak_is_255(self):
        ref = np.zeros((4, 4))
        bad = np.full((4, 4), 10.0)
        assert psnr_db(ref, bad) == pytest.approx(
            10.0 * math.log10(255.0 ** 2 / 100.0))

    def test_peak_override_shifts_by_ratio(self):
        ref = np.zeros(16)
        bad = np.ones(16)
        wide = psnr_db(ref, bad, peak=1023.0)
        narrow = psnr_db(ref, bad, peak=255.0)
        assert wide - narrow == pytest.approx(
            20.0 * math.log10(1023.0 / 255.0))

    def test_unit_peak(self):
        ref = np.zeros(4)
        bad = np.full(4, 0.5)
        assert psnr_db(ref, bad, peak=1.0) == pytest.approx(
            10.0 * math.log10(1.0 / 0.25))


class TestAllZeroVectors:
    def test_error_summary_on_all_zero_error(self):
        exact = np.array([3, -1, 0, 7, -8], dtype=np.int64)
        summary = error_summary(exact, exact.copy())
        assert summary == {"error_rate": 0.0, "mean_abs_error": 0.0,
                           "max_abs_error": 0.0}

    def test_error_summary_zero_signals(self):
        zeros = np.zeros(32, dtype=np.int64)
        summary = error_summary(zeros, zeros)
        assert summary["error_rate"] == 0.0
        assert summary["max_abs_error"] == 0.0

    def test_error_summary_single_flip(self):
        exact = np.zeros(4, dtype=np.int64)
        observed = np.array([0, 0, 2, 0], dtype=np.int64)
        summary = error_summary(exact, observed)
        assert summary["error_rate"] == pytest.approx(0.25)
        assert summary["mean_abs_error"] == pytest.approx(0.5)
        assert summary["max_abs_error"] == 2.0


class TestShapeMismatch:
    def test_mse_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mse(np.zeros(3), np.zeros(4))

    def test_error_rate_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            error_rate(np.zeros(3), np.zeros((3, 1)))

    def test_snr_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            snr_db(np.zeros(3), np.zeros(4))


def separate_metrics(exact, observed, peak):
    """The summary's values, one metric function each."""
    return {"error_rate": error_rate(exact, observed),
            "mean_abs_error": mean_abs_error(exact, observed),
            "max_abs_error": max_abs_error(exact, observed),
            "mse": mse(exact, observed),
            "psnr_db": psnr_db(exact, observed, peak=peak)}


INT64 = st.integers(-2**63, 2**63 - 1)


class TestOnePassSummary:
    """``error_summary(..., peak=)`` equals the separate metrics bit for
    bit: one float64 difference feeds every reduction."""

    @given(pairs=st.lists(st.tuples(INT64, INT64), max_size=300),
           peak=st.sampled_from((255.0, 32768.0, 2.0**31)))
    def test_equals_separate_metrics(self, pairs, peak):
        exact = np.array([a for a, __ in pairs], dtype=np.int64)
        observed = np.array([b for __, b in pairs], dtype=np.int64)
        assert error_summary(exact, observed, peak=peak) \
            == separate_metrics(exact, observed, peak)

    def test_int64_extremes(self):
        top, bottom = 2**63 - 1, -2**63
        exact = np.array([top, bottom, top, 0, 2**62], dtype=np.int64)
        # 2**62 + 1 rounds to 2**62 in float64, yet it is an error.
        observed = np.array([bottom, top, top, bottom, 2**62 + 1],
                            dtype=np.int64)
        summary = error_summary(exact, observed, peak=2.0**63)
        assert summary == separate_metrics(exact, observed, 2.0**63)
        assert summary["error_rate"] == 0.8
        assert summary["max_abs_error"] == 2.0**64

    def test_identical_arrays_give_infinite_psnr(self, rng):
        exact = rng.integers(-2**15, 2**15, 1000)
        summary = error_summary(exact, exact.copy(), peak=32768.0)
        assert summary == separate_metrics(exact, exact, 32768.0)
        assert summary["psnr_db"] == float("inf")
        assert summary["mse"] == 0.0

    def test_empty_arrays(self):
        empty = np.array([], dtype=np.int64)
        summary = error_summary(empty, empty, peak=255.0)
        assert summary == separate_metrics(empty, empty, 255.0)
        assert summary["psnr_db"] == float("inf")

    def test_campaign_scale_vectors(self, rng):
        exact = rng.integers(-2**31, 2**31, 1 << 17)
        observed = exact.copy()
        flips = rng.random(exact.shape) < 0.01
        observed[flips] ^= rng.integers(1, 2**20, int(flips.sum()))
        assert error_summary(exact, observed, peak=2.0**31) \
            == separate_metrics(exact, observed, 2.0**31)

    def test_without_peak_keeps_three_keys(self):
        assert set(error_summary([1, 2], [1, 3])) \
            == {"error_rate", "mean_abs_error", "max_abs_error"}

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            error_summary(np.zeros(3), np.zeros(4), peak=1.0)


def test_acceptability_threshold_boundary():
    assert is_acceptable_quality(ACCEPTABLE_PSNR_DB)
    assert not is_acceptable_quality(ACCEPTABLE_PSNR_DB - 1e-9)
    assert is_acceptable_quality(25.0, threshold_db=20.0)
