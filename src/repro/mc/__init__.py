"""Monte Carlo process-variation analysis over the batched STA engine.

``repro.mc`` answers the stochastic form of the paper's Eq. 2: under
per-gate threshold-voltage variation *and* BTI aging, what is the
probability (yield) that a precision point meets the clock — and what
is the deepest precision whose yield clears a target?

* :mod:`repro.mc.variation` — reproducible per-(seed, gate uid) Philox
  draw streams;
* :mod:`repro.mc.engine` — the sample-block kernel (:func:`mc_block`)
  and sample-axis batched STA (:func:`analyze_mc`) over chunked sample
  blocks (its scalar-loop oracle is
  :func:`repro.verify.analyze_mc_reference`);
* :mod:`repro.mc.yield_curves` — specs, yield curves, the
  yield-constrained precision K, and the ``--jobs``/served drivers;
* :mod:`repro.mc.surrogate` — the cross-validated least-squares
  screen that spends exact sampled STA only near feasibility
  boundaries.
"""

from .engine import (DEFAULT_BLOCK, MCReport, analyze_mc, mc_block,
                     sample_blocks)
from .surrogate import (SurrogateFit, cross_validate, design_matrix,
                        fit_surrogate, n_terms, pick_degree)
from .variation import (DEFAULT_CLIP_SIGMAS, SAMPLE_CHUNK, VariationModel,
                        gate_stream, standard_draws)
from .yield_curves import MCResult, MCSpec, run_mc

__all__ = [
    "DEFAULT_BLOCK", "DEFAULT_CLIP_SIGMAS", "MCReport", "MCResult",
    "MCSpec", "SAMPLE_CHUNK", "SurrogateFit", "VariationModel",
    "analyze_mc", "cross_validate", "design_matrix", "fit_surrogate",
    "gate_stream", "mc_block", "n_terms", "pick_degree", "run_mc",
    "sample_blocks", "standard_draws",
]
