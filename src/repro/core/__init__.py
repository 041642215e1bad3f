"""The paper's contribution: characterization, approximation library and
the microarchitecture-level guardband-removal flow."""

from .scenarios import (AgingScenario, FRESH, ONE_YEAR_BALANCE,
                        ONE_YEAR_WORST, TEN_YEARS_BALANCE, TEN_YEARS_WORST,
                        actual_case, balance_case, fresh, worst_case)
from .characterize import (ActualCaseSpec, ComponentCharacterization,
                           characterize, component_key)
from .library import AgingApproximationLibrary
from .microarch import (ApproximationOutcome, Block, BlockDecision,
                        BlockTiming, Microarchitecture,
                        apply_aging_approximations)
from .flow import (BaselineComparison, GuardbandRemovalReport,
                   compare_with_baseline, design_delay_ps,
                   microarchitecture_power, remove_guardband)
from .adaptive import PrecisionSchedule, plan_graceful_degradation
from .sensitivity import SensitivityReport, precision_sensitivity
from .cache import (CharacterizationCache, CacheStats, cache_enabled,
                    get_cache, set_cache, synthesize_netlist_memoized)
from .parallel import WorkerPool, resolve_jobs

__all__ = [
    "AgingScenario", "FRESH", "ONE_YEAR_BALANCE", "ONE_YEAR_WORST",
    "TEN_YEARS_BALANCE", "TEN_YEARS_WORST", "actual_case", "balance_case",
    "fresh", "worst_case",
    "ActualCaseSpec", "ComponentCharacterization", "characterize",
    "component_key",
    "AgingApproximationLibrary",
    "ApproximationOutcome", "Block", "BlockDecision", "BlockTiming",
    "Microarchitecture", "apply_aging_approximations",
    "BaselineComparison", "GuardbandRemovalReport", "compare_with_baseline",
    "design_delay_ps", "microarchitecture_power", "remove_guardband",
    "PrecisionSchedule", "plan_graceful_degradation",
    "SensitivityReport", "precision_sensitivity",
    "CharacterizationCache", "CacheStats", "cache_enabled", "get_cache",
    "set_cache", "synthesize_netlist_memoized", "WorkerPool",
    "resolve_jobs",
]
