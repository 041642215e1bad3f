"""Gate-level simulation: packed functional and timed (timing errors).

The byte-wide and event-driven reference simulators live in
:mod:`repro.verify.reference_sim`.
"""

from .bitpack import pack_bits, pack_ints, popcount, unpack_bits, unpack_ints
from .logic import (CompiledNetlist, compile_netlist, evaluate_packed,
                    evaluate_words, all_net_values_packed, int_to_bits,
                    bits_to_int)
from .timing import TimedResult, TimedSimulator, max_frequency_ghz
from .activity import (ActivityReport, simulate_activity, extract_stress,
                       operand_stream_bits, operand_stream_words)
from .pipeline import PipelineRun, StageReport, TimedPipeline
from .stimuli import STIMULUS_NAMES, make_stimulus

__all__ = [
    "CompiledNetlist", "compile_netlist", "evaluate_packed",
    "evaluate_words", "all_net_values_packed",
    "pack_bits", "unpack_bits", "pack_ints", "unpack_ints", "popcount",
    "int_to_bits", "bits_to_int",
    "TimedResult", "TimedSimulator", "max_frequency_ghz",
    "ActivityReport", "simulate_activity", "extract_stress",
    "operand_stream_bits", "operand_stream_words",
    "PipelineRun", "StageReport", "TimedPipeline",
    "STIMULUS_NAMES", "make_stimulus",
]
