"""Differential verification subsystem.

The paper's argument rests on equivalences the rest of the codebase
merely *uses*: every simulation engine must agree on what a netlist
computes, truncated netlists must match their arithmetic models
bit-exactly, and the characterization tables must satisfy Eq. 2 and the
Section-V slack rule. This package makes those equivalences executable:

``golden``
    Pure-Python (integer-only, NumPy-free) reference models for every
    RTL component family at arbitrary precision — a third, independent
    implementation against which both the arithmetic models and the
    synthesized netlists are diffed.
``oracles``
    Cross-engine oracles running one netlist through the functional
    bytes, packed 64-way, event-driven and timed engines and diffing
    the outputs bit-exactly, with minimized counterexample reporting;
    also the byte-engine oracle of activity extraction, the
    scalar-loop oracle of Monte Carlo STA, the structural-cone oracle
    of the truncation replay and the whole-uniform oracle of
    fault-mask sampling.
``optimize``
    The dict-walking optimization passes, oracle of the array optimizer.
``sizing``
    The dict-based sizing loop, oracle of the production array sizer,
    and scratch synthesis by both oracles.
``shrink``
    Greedy netlist shrinker that reduces a failing netlist to a minimal
    reproducer (typically a handful of gates).
``fuzz``
    Coverage-guided random-netlist fuzzer with a committed regression
    corpus (``tests/corpus/``) replayed by the tier-1 suite.
``invariants``
    Paper-fidelity invariants: Eq. 2 / monotonicity over
    characterization tables, the Section-V slack rule, and the
    EXPERIMENTS.md shape claims (zero fresh errors, error rates
    monotone in lifetime and stress).
``pytest_plugin``
    Fixtures and markers exposing all of the above to pytest.

The ``repro-aging verify`` (alias ``repro verify``) CLI subcommand
drives the whole stack end to end; see the user guide, section 13.
"""

from .fuzz import (FuzzReport, fuzz_engines, load_corpus, netlist_from_dict,
                   netlist_to_dict, random_netlist, replay_corpus,
                   save_corpus_entry)
from .golden import GoldenMismatch, check_golden, golden_model
from .invariants import (InvariantResult, check_characterization,
                         check_error_shape, check_injection, check_mc,
                         check_psnr_endpoints, check_slack_rule,
                         check_sta_engine, check_synth_sweep)
from .oracles import (ENGINES, Counterexample, EngineMismatch, OracleReport,
                      analyze_mc_reference, bernoulli_masks_reference,
                      cross_engine_check,
                      diff_engines, engine_outputs,
                      minimize_counterexample, simulate_activity_bytes,
                      structural_replay)
from .optimize import (constant_propagation, dead_gate_elimination,
                       reference_optimize, remove_inverter_pairs,
                       structural_hashing)
from .shrink import shrink_netlist
from .sizing import reference_synthesize, upsize_critical_paths
from .verify import VerificationReport, verify_component

__all__ = [
    "ENGINES", "Counterexample", "EngineMismatch", "FuzzReport",
    "GoldenMismatch", "InvariantResult", "OracleReport",
    "VerificationReport", "analyze_mc_reference",
    "bernoulli_masks_reference",
    "check_characterization", "check_error_shape",
    "check_golden", "check_injection", "check_mc",
    "check_psnr_endpoints", "check_slack_rule",
    "check_sta_engine", "check_synth_sweep", "constant_propagation",
    "cross_engine_check", "dead_gate_elimination", "diff_engines",
    "engine_outputs", "fuzz_engines",
    "golden_model", "load_corpus", "minimize_counterexample",
    "netlist_from_dict", "netlist_to_dict", "random_netlist",
    "reference_optimize", "reference_synthesize",
    "remove_inverter_pairs", "replay_corpus", "save_corpus_entry",
    "shrink_netlist", "simulate_activity_bytes", "structural_hashing",
    "structural_replay",
    "upsize_critical_paths",
    "verify_component",
]
