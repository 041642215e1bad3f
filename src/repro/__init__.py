"""repro — reproduction of "Towards Aging-Induced Approximations" (DAC'17).

Transistor aging (BTI) slows circuits over their lifetime; conventional
designs pay for it with a permanent timing guardband. This library
reproduces the DAC 2017 paper by Amrouch, Khaleghi, Gerstlauer and
Henkel that removes the guardband from error-tolerant datapaths by
converting would-be nondeterministic timing errors into deterministic,
bounded precision reductions.

Quick tour
----------
>>> from repro import Adder, characterize, default_library, worst_case
>>> lib = default_library()
>>> entry = characterize(Adder(16), lib, scenarios=[worst_case(10)],
...                      precisions=range(16, 9, -1))
>>> entry.required_precision("10y_worst")  # largest aging-safe precision
...

Package map
-----------
``repro.aging``     BTI model, stress annotations, aging scenarios
``repro.cells``     standard-cell library + degradation-aware tables
``repro.netlist``   gate-level netlist graph and builders
``repro.rtl``       adder/multiplier/MAC/DCT component generators
``repro.synth``     logic synthesis, sizing, aging-aware baseline [4]
``repro.sta``       aging-aware static timing analysis
``repro.sim``       vectorized functional/timed + event-driven simulation
``repro.approx``    truncation + pluggable arithmetic (incl. gate-level)
``repro.power``     power/energy/area models
``repro.quality``   PSNR and error metrics
``repro.media``     synthetic test images + DCT block codec
``repro.core``      the paper's flow: characterize -> library -> apply
"""

from .aging import (AgingScenario, BTIModel, DEFAULT_BTI, FRESH,
                    ONE_YEAR_WORST, TEN_YEARS_WORST, WORST, BALANCE,
                    ActualStress, balance_case, fresh, worst_case)
from .cells import (CellLibrary, DegradationAwareLibrary, default_library,
                    nangate45)
from .netlist import Netlist, NetlistBuilder, NetlistError, CONST0, CONST1
from .rtl import (Adder, ArrayMultiplier, BoothMultiplier,
                  CarryLookaheadAdder, CarrySelectAdder, CarrySkipAdder,
                  FixedPointFIR, FixedPointTransform8, KoggeStoneAdder,
                  Multiplier, MultiplyAccumulate, RippleCarryAdder,
                  RTLComponent, WallaceMultiplier, dct_microarchitecture,
                  fir_microarchitecture, idct_microarchitecture,
                  lowpass_taps)
from .synth import (aging_aware_synthesize, synthesize, synthesize_netlist,
                    upsize_fast)
from .sta import analyze, critical_path, critical_path_delay, logic_depth
from .sim import (TimedSimulator, bits_to_int, compile_netlist,
                  evaluate_packed, extract_stress, int_to_bits,
                  simulate_activity)
from .approx import (ComponentArithmetic, ExactArithmetic,
                     GateLevelArithmetic, TimedComponentModel,
                     TruncatedArithmetic, truncate_lsbs)
from .power import PowerReport, dynamic_power_uw, power_report, savings
from .quality import ACCEPTABLE_PSNR_DB, error_rate, psnr_db
from .media import IMAGE_NAMES, TransformCodec, make_image, roundtrip_psnr
from .core import (ActualCaseSpec, AgingApproximationLibrary,
                   ApproximationOutcome, Block, ComponentCharacterization,
                   Microarchitecture, PrecisionSchedule,
                   apply_aging_approximations, characterize,
                   compare_with_baseline, plan_graceful_degradation,
                   remove_guardband)

__version__ = "1.0.0"

__all__ = [
    # aging
    "AgingScenario", "BTIModel", "DEFAULT_BTI", "FRESH", "ONE_YEAR_WORST",
    "TEN_YEARS_WORST", "WORST", "BALANCE", "ActualStress", "balance_case",
    "fresh", "worst_case",
    # cells
    "CellLibrary", "DegradationAwareLibrary", "default_library", "nangate45",
    # netlist
    "Netlist", "NetlistBuilder", "NetlistError", "CONST0", "CONST1",
    # rtl
    "Adder", "ArrayMultiplier", "BoothMultiplier", "CarryLookaheadAdder",
    "CarrySelectAdder", "CarrySkipAdder", "FixedPointFIR",
    "FixedPointTransform8", "KoggeStoneAdder", "Multiplier",
    "MultiplyAccumulate", "RippleCarryAdder", "RTLComponent",
    "WallaceMultiplier", "dct_microarchitecture", "fir_microarchitecture",
    "idct_microarchitecture", "lowpass_taps",
    # synth
    "aging_aware_synthesize", "synthesize", "synthesize_netlist",
    "upsize_fast",
    # sta
    "analyze", "critical_path", "critical_path_delay", "logic_depth",
    # sim
    "TimedSimulator", "bits_to_int", "compile_netlist", "evaluate_packed",
    "extract_stress", "int_to_bits", "simulate_activity",
    # approx
    "ComponentArithmetic", "ExactArithmetic", "GateLevelArithmetic",
    "TimedComponentModel", "TruncatedArithmetic", "truncate_lsbs",
    # power
    "PowerReport", "dynamic_power_uw", "power_report", "savings",
    # quality
    "ACCEPTABLE_PSNR_DB", "error_rate", "psnr_db",
    # media
    "IMAGE_NAMES", "TransformCodec", "make_image", "roundtrip_psnr",
    # core
    "ActualCaseSpec", "AgingApproximationLibrary", "ApproximationOutcome",
    "Block", "ComponentCharacterization", "Microarchitecture",
    "PrecisionSchedule", "apply_aging_approximations", "characterize",
    "compare_with_baseline", "plan_graceful_degradation",
    "remove_guardband",
]
