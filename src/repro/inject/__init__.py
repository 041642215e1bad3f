"""Statistical timing-fault injection campaigns.

Quantifies the paper's baseline: what a guardband-free aged circuit
suffers *without* aging-induced approximation. See
:mod:`repro.inject.campaign` for the experiment design and
:mod:`repro.inject.masks` for the reproducibility scheme.
"""

from .campaign import (CampaignResult, CampaignSpec, run_campaign,
                       make_point_tasks)
from .crosscheck import (CrosscheckReport, Disagreement,
                         crosscheck_violations, minimize_disagreement)
from .faultload import (DEFAULT_ACTIVITY, Faultload, build_faultload,
                        point_masks)
from .inject_sim import count_mask_bits, unpack_op_masks
from .masks import (CHUNK_WORDS, PROB_BITS, PROB_ONE, bernoulli_masks,
                    bernoulli_words, flip_threshold, flip_thresholds,
                    gate_stream)

__all__ = [
    "CampaignResult", "CampaignSpec", "run_campaign", "make_point_tasks",
    "CrosscheckReport", "Disagreement", "crosscheck_violations",
    "minimize_disagreement",
    "DEFAULT_ACTIVITY", "Faultload", "build_faultload", "point_masks",
    "count_mask_bits", "unpack_op_masks",
    "CHUNK_WORDS", "PROB_BITS", "PROB_ONE", "bernoulli_masks",
    "bernoulli_words", "flip_threshold", "flip_thresholds", "gate_stream",
]
