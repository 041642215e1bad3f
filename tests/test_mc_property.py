"""Property tests for the sample-axis Monte Carlo engine.

The vectorized sampled path must collapse onto the deterministic
engine whenever variation vanishes: at ``sigma = 0`` a one-sample
analysis is **bit-identical** (``==``, no epsilon) to
``analyze_batch`` on arbitrary netlists — random DAGs from the fuzz
generator plus every committed regression entry in ``tests/corpus/``.
With nonzero sigma the vectorized tensor path must match the scalar
per-(gate, corner, sample) oracle to float tolerance on the same
netlists.
"""

import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cells import default_library
from repro.core.specs import parse_scenario
from repro.mc import VariationModel, analyze_mc
from repro.sta.engine import analyze_batch
from repro.verify import analyze_mc_reference, load_corpus, random_netlist
from repro.verify.pytest_plugin import CORPUS_DIRNAME

LIB = default_library()
CORPUS_DIR = os.path.join(os.path.dirname(__file__), CORPUS_DIRNAME)
_CORPUS = load_corpus(CORPUS_DIR)

CORNERS = tuple(parse_scenario(s) for s in ("fresh", "worst1y",
                                            "worst10y"))


def _assert_zero_sigma_bit_identical(netlist, seed):
    batch = analyze_batch(netlist, LIB, CORNERS)
    rep = analyze_mc(netlist, LIB, CORNERS,
                     VariationModel(sigma_mv=0.0, seed=seed), samples=1,
                     keep_arrivals=True)
    assert (rep.critical_path_ps == batch.critical_path_ps[:, None]).all()
    assert (rep.arrivals == batch.arrivals[:, :, None]).all()


def _assert_matches_scalar_oracle(netlist, seed, samples):
    variation = VariationModel(sigma_mv=30.0, seed=seed)
    fast = analyze_mc(netlist, LIB, CORNERS, variation, samples=samples)
    slow = analyze_mc_reference(netlist, LIB, CORNERS, variation,
                                samples=samples)
    np.testing.assert_allclose(fast.critical_path_ps, slow, rtol=1e-12,
                               atol=0.0)


@given(seed=st.integers(0, 2**32 - 1))
def test_zero_sigma_identity_on_random_netlists(seed):
    """sigma = 0, samples = 1 == analyze_batch exactly, any DAG."""
    rng = np.random.default_rng(seed)
    netlist = random_netlist(rng, n_inputs=4, max_gates=30, n_outputs=3)
    _assert_zero_sigma_bit_identical(netlist, seed)


@pytest.mark.verify
@pytest.mark.skipif(not _CORPUS, reason="no fuzz corpus committed")
@given(data=st.data())
def test_zero_sigma_identity_on_corpus(data):
    """Same bit-identity over every committed regression netlist."""
    __, netlist = data.draw(st.sampled_from(_CORPUS))
    seed = data.draw(st.integers(0, 2**32 - 1))
    _assert_zero_sigma_bit_identical(netlist, seed)


@given(seed=st.integers(0, 2**32 - 1),
       samples=st.sampled_from([1, 3, 5]))
def test_vectorized_matches_oracle_on_random_netlists(seed, samples):
    """Tensor path == scalar triple-loop oracle to 1e-12, any DAG."""
    rng = np.random.default_rng(seed)
    netlist = random_netlist(rng, n_inputs=3, max_gates=16, n_outputs=2)
    _assert_matches_scalar_oracle(netlist, seed, samples)
