"""Aging-aware static timing analysis."""

from .sta import TimingReport, analyze, critical_path_delay
from .engine import (BatchTimingReport, ConePlan, DeltaPlan, TimingProgram,
                     analyze_batch, compile_timing, cone_plan,
                     corner_delays, delta_plan, replay_cone, tie_low,
                     truncated_input_nets)
from .paths import TimingPath, critical_path, logic_depth, per_output_arrivals
from .sdf import from_sdf, gate_delays_from_sdf, to_sdf
from .stats import TimingWallReport, output_arrival_spread, timing_wall

__all__ = [
    "TimingReport", "analyze", "critical_path_delay",
    "BatchTimingReport", "ConePlan", "DeltaPlan", "TimingProgram",
    "analyze_batch", "compile_timing", "cone_plan", "corner_delays",
    "delta_plan", "replay_cone", "tie_low", "truncated_input_nets",
    "TimingPath", "critical_path", "logic_depth", "per_output_arrivals",
    "from_sdf", "gate_delays_from_sdf", "to_sdf",
    "TimingWallReport", "output_arrival_spread", "timing_wall",
]
