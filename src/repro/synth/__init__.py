"""Logic synthesis: optimization passes, sizing, aging-aware baseline."""

from .optimize import optimize
from .synthesize import (EFFORTS, SynthesisResult, synthesize,
                         synthesize_netlist)
from .fastsize import upsize_fast
from .sizing import SizingReport
from .sweep import (SweepSynthesis, clear_sweep_memo, sweep_for,
                    synthesize_variant)
from .aging_aware import AgingAwareResult, aging_aware_synthesize

__all__ = [
    "optimize",
    "EFFORTS", "SynthesisResult", "synthesize", "synthesize_netlist",
    "SizingReport", "upsize_fast",
    "SweepSynthesis", "clear_sweep_memo", "sweep_for",
    "synthesize_variant",
    "AgingAwareResult", "aging_aware_synthesize",
]
