"""Quality metrics: PSNR and error statistics.

PSNR is the paper's image-quality metric; 30 dB is cited (after [11]) as
the commonly accepted threshold for acceptable image quality. The error
statistics mirror the quantities reported in the motivational study
(percentage of erroneous outputs of a component, Fig. 1).
"""

import numpy as np

#: PSNR commonly considered acceptable image quality (paper, citing [11]).
ACCEPTABLE_PSNR_DB = 30.0


def mse(reference, test):
    """Mean squared error between two arrays of equal shape."""
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError("shape mismatch: %r vs %r"
                         % (reference.shape, test.shape))
    if reference.size == 0:
        return 0.0
    return float(np.mean((reference - test) ** 2))


def psnr_db(reference, test, peak=255.0):
    """Peak signal-to-noise ratio in dB (infinite for identical inputs)."""
    error = mse(reference, test)
    if error == 0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / error))


def error_rate(exact, observed):
    """Fraction of positions where *observed* differs from *exact*.

    This is the paper's "percentage of error" for a component: how many
    applied input vectors produced a wrong output word.
    """
    exact = np.asarray(exact)
    observed = np.asarray(observed)
    if exact.shape != observed.shape:
        raise ValueError("shape mismatch: %r vs %r"
                         % (exact.shape, observed.shape))
    if exact.size == 0:
        return 0.0
    return float(np.mean(exact != observed))


def mean_abs_error(exact, observed):
    """Mean absolute numeric error (0.0 for empty inputs)."""
    exact = np.asarray(exact, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    if exact.size == 0:
        return 0.0
    return float(np.mean(np.abs(exact - observed)))


def max_abs_error(exact, observed):
    """Largest absolute numeric error."""
    exact = np.asarray(exact, dtype=np.float64)
    observed = np.asarray(observed, dtype=np.float64)
    if exact.size == 0:
        return 0.0
    return float(np.max(np.abs(exact - observed)))


def error_summary(exact, observed, peak=None):
    """All error statistics of one comparison, in one pass.

    The inputs are converted to float64 once and differenced once; the
    mean and max absolute error and, given *peak*, the MSE and PSNR
    (keys ``mse`` and ``psnr_db``) all reduce that one array, while the
    error rate compares the inputs as given (exact for integers beyond
    2**53). Every value equals its separate function (:func:`error_rate`,
    :func:`mean_abs_error`, :func:`max_abs_error`, :func:`mse`,
    :func:`psnr_db`) bit for bit: each is the same full-length
    reduction over the same values in the same order.
    """
    exact = np.asarray(exact)
    observed = np.asarray(observed)
    if exact.shape != observed.shape:
        raise ValueError("shape mismatch: %r vs %r"
                         % (exact.shape, observed.shape))
    summary = {"error_rate": 0.0, "mean_abs_error": 0.0,
               "max_abs_error": 0.0}
    error = 0.0
    if exact.size:
        summary["error_rate"] = (np.count_nonzero(exact != observed)
                                 / exact.size)
        diff = exact.astype(np.float64)
        np.subtract(diff, observed, out=diff)
        np.abs(diff, out=diff)
        summary["mean_abs_error"] = float(np.mean(diff))
        summary["max_abs_error"] = float(np.max(diff))
        if peak is not None:
            np.multiply(diff, diff, out=diff)
            error = float(np.mean(diff))
    if peak is not None:
        summary["mse"] = error
        summary["psnr_db"] = (float("inf") if error == 0 else
                              float(10.0 * np.log10(peak * peak / error)))
    return summary


def is_acceptable_quality(psnr_value_db, threshold_db=ACCEPTABLE_PSNR_DB):
    """Apply the paper's 30 dB acceptability criterion."""
    return psnr_value_db >= threshold_db


def snr_db(reference, test):
    """Signal-to-noise ratio in dB (for the 1-D signal case study).

    Relative to the *reference* signal's own power, so it measures how
    faithfully an (approximate) filter tracks the exact one.
    """
    reference = np.asarray(reference, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if reference.shape != test.shape:
        raise ValueError("shape mismatch: %r vs %r"
                         % (reference.shape, test.shape))
    noise = np.sum((reference - test) ** 2)
    if noise == 0:
        return float("inf")
    power = np.sum(reference.astype(np.float64) ** 2)
    if power == 0:
        return float("-inf")
    return float(10.0 * np.log10(power / noise))
