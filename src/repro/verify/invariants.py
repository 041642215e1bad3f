"""Paper-fidelity invariants as executable checks.

Each check returns a list of :class:`InvariantResult` — one row per
named invariant, with a human-readable detail string on failure. The
invariants encode what the paper *claims*, independently of how the
code computes it:

* **Eq. 2** (:func:`check_characterization`): aging never speeds a
  circuit up; the required precision ``K_j`` is the *largest* precision
  whose aged delay meets the fresh full-precision constraint
  (``t_Cj(Aging, K_j) <= t_Cj(noAging, N_j)``), and every higher
  precision violates it; aged delays are monotone in lifetime and in
  stress (balanced <= worst case) for every characterized precision.
* **Section-V slack rule** (:func:`check_slack_rule`): exactly the
  blocks with negative slack are approximated, precision never
  increases, and a validated outcome has zero residual guardband with
  no block left violating.
* **EXPERIMENTS.md shape claims** (:func:`check_error_shape`,
  :func:`check_psnr_endpoints`): a guardband-free fresh circuit makes
  zero timing errors; error rates are monotone in lifetime and stress;
  the fresh DCT-IDCT chain is high quality while the naively
  guardband-stripped aged chain collapses.
"""

from dataclasses import dataclass

import numpy as np

#: Absolute delay tolerance (ps) for comparisons between STA runs.
DELAY_EPS_PS = 1e-6


@dataclass
class InvariantResult:
    """One named invariant, checked."""

    name: str
    passed: bool
    detail: str = ""

    def describe(self):
        tag = "PASS" if self.passed else "FAIL"
        tail = (": " + self.detail) if self.detail else ""
        return "%s %s%s" % (tag, self.name, tail)


def _result(name, passed, detail_ok, detail_bad):
    return InvariantResult(name=name, passed=passed,
                           detail=detail_ok if passed else detail_bad)


def _scenario_years(label):
    """Parse ``"<years>y_<kind>"`` labels; None for e.g. ``"fresh"``."""
    if "y_" not in label:
        return None, None
    head, kind = label.split("y_", 1)
    try:
        return float(head), kind
    except ValueError:
        return None, None


def check_characterization(char):
    """Eq. 2 + monotonicity invariants over one characterization table.

    Parameters
    ----------
    char:
        A :class:`~repro.core.characterize.ComponentCharacterization`.
    """
    results = []
    aged_labels = [lbl for lbl in char.scenario_labels if lbl != "fresh"]

    # Aging never helps: t(Aging, P) >= t(noAging, P) for every point.
    bad = [(p, lbl) for p in char.precisions for lbl in aged_labels
           if char.aged_delay_ps(p, lbl) < char.fresh_ps[p] - DELAY_EPS_PS]
    results.append(_result(
        "aging_never_helps", not bad,
        "%d precision/scenario points all slower aged than fresh"
        % (len(char.precisions) * len(aged_labels)),
        "aged faster than fresh at %s" % (bad[:3],)))

    # The "fresh" pseudo-scenario, when characterized, equals fresh STA.
    if "fresh" in char.scenario_labels:
        off = [p for p in char.precisions
               if abs(char.aged_delay_ps(p, "fresh") - char.fresh_ps[p])
               > DELAY_EPS_PS]
        results.append(_result(
            "fresh_scenario_is_fresh", not off,
            "fresh-scenario delays equal fresh STA",
            "fresh-scenario delay differs at precisions %s" % off[:5]))

    # Eq. 2: K is feasible and maximal against the fresh constraint.
    constraint = char.fresh_delay_ps()
    for label in aged_labels:
        required = char.required_precision(label)
        if required is None:
            violating = all(char.aged_delay_ps(p, label)
                            > constraint + DELAY_EPS_PS
                            for p in char.precisions)
            results.append(_result(
                "eq2_required_precision[%s]" % label, violating,
                "no feasible precision, and indeed every candidate "
                "violates the constraint",
                "required_precision returned None but some precision "
                "meets the constraint"))
            continue
        feasible = (char.aged_delay_ps(required, label)
                    <= constraint + DELAY_EPS_PS)
        maximal = all(char.aged_delay_ps(p, label)
                      > constraint + DELAY_EPS_PS
                      for p in char.precisions if p > required)
        results.append(_result(
            "eq2_required_precision[%s]" % label, feasible and maximal,
            "K=%d: t(Aging, K) = %.2f ps <= t(noAging, N) = %.2f ps, "
            "and every higher precision violates"
            % (required, char.aged_delay_ps(required, label), constraint),
            "K=%d is %s against constraint %.2f ps"
            % (required,
               "infeasible" if not feasible else "not maximal",
               constraint)))

    # Monotone in lifetime: same stress kind, more years, >= delay.
    parsed = [(lbl,) + _scenario_years(lbl) for lbl in aged_labels]
    by_kind = {}
    for label, years, kind in parsed:
        if years is not None:
            by_kind.setdefault(kind, []).append((years, label))
    lifetime_bad = []
    for kind, entries in by_kind.items():
        entries.sort()
        for (y_lo, lbl_lo), (y_hi, lbl_hi) in zip(entries, entries[1:]):
            for p in char.precisions:
                if (char.aged_delay_ps(p, lbl_hi)
                        < char.aged_delay_ps(p, lbl_lo) - DELAY_EPS_PS):
                    lifetime_bad.append((p, lbl_lo, lbl_hi))
    if any(len(v) > 1 for v in by_kind.values()):
        results.append(_result(
            "aged_delay_monotone_in_lifetime", not lifetime_bad,
            "longer lifetimes never reduce aged delay",
            "aged delay shrank with lifetime at %s" % lifetime_bad[:3]))

    # Monotone in stress: balanced stress ages less than worst case.
    years_seen = {}
    for label, years, kind in parsed:
        if years is not None:
            years_seen.setdefault(years, {})[kind] = label
    stress_bad = []
    compared = False
    for years, kinds in years_seen.items():
        if "balance" in kinds and "worst" in kinds:
            compared = True
            for p in char.precisions:
                if (char.aged_delay_ps(p, kinds["balance"])
                        > char.aged_delay_ps(p, kinds["worst"])
                        + DELAY_EPS_PS):
                    stress_bad.append((p, years))
    if compared:
        results.append(_result(
            "aged_delay_monotone_in_stress", not stress_bad,
            "balanced stress never exceeds worst-case stress",
            "balanced aged delay exceeds worst case at %s"
            % stress_bad[:3]))
    return results


def check_slack_rule(outcome):
    """Section-V slack-rule invariants over an approximation outcome.

    Parameters
    ----------
    outcome:
        A :class:`~repro.core.microarch.ApproximationOutcome`.
    """
    results = []
    decisions = outcome.decisions.values()

    wrong_trigger = [d.name for d in decisions
                     if d.approximated != (d.slack_before_ps < 0)]
    results.append(_result(
        "slack_rule_trigger", not wrong_trigger,
        "exactly the negative-slack blocks were approximated",
        "approximation/slack mismatch in blocks %s" % wrong_trigger[:5]))

    raised = [d.name for d in decisions
              if d.chosen_precision > d.original_precision]
    results.append(_result(
        "precision_never_increases", not raised,
        "no block gained precision",
        "precision increased in blocks %s" % raised[:5]))

    if outcome.validated:
        results.append(_result(
            "validated_means_no_guardband",
            outcome.residual_guardband_ps <= DELAY_EPS_PS,
            "validated outcome carries zero residual guardband",
            "validated outcome still needs %.3f ps of guardband"
            % outcome.residual_guardband_ps))
        late = [d.name for d in decisions
                if d.slack_after_ps < -DELAY_EPS_PS]
        results.append(_result(
            "validated_blocks_meet_constraint", not late,
            "every block meets the fresh constraint after approximation",
            "blocks %s still violate after approximation" % late[:5]))
    else:
        results.append(_result(
            "unvalidated_documents_guardband",
            outcome.residual_guardband_ps > 0,
            "unvalidated outcome documents its residual guardband",
            "outcome not validated yet residual guardband is zero"))
    return results


def check_error_shape(component, library, years=(1.0, 10.0),
                      vectors=256, rng=None, effort="ultra",
                      netlist=None):
    """EXPERIMENTS.md error-shape claims on one component.

    Streams *vectors* random operands through the component's netlist
    at its **fresh critical path** (the guardband-free clock) under a
    ladder of aging scenarios and checks:

    * the fresh circuit makes zero timing errors,
    * the error rate is monotone non-decreasing in lifetime
      (worst-case stress), and
    * balanced stress never errs more than worst-case stress at the
      longest lifetime.
    """
    from ..aging import balance_case, worst_case
    from ..sim.activity import operand_stream_bits
    from ..sim.timing import TimedSimulator
    from ..sta.sta import critical_path_delay

    if netlist is None:
        from ..synth.synthesize import synthesize_netlist
        netlist = synthesize_netlist(component, library, effort=effort)
    rng = np.random.default_rng(rng)
    operands = component.random_operands(vectors, rng=rng)
    bits = operand_stream_bits(operands, component.operand_widths)
    clock = critical_path_delay(netlist, library)

    def rate(scenario):
        sim = TimedSimulator(netlist, library, clock, scenario=scenario)
        return sim.run_stream(bits).error_rate

    years = sorted(years)
    fresh_rate = rate(None)
    worst_rates = [rate(worst_case(y)) for y in years]
    balance_rate = rate(balance_case(years[-1]))

    results = [_result(
        "zero_fresh_errors", fresh_rate == 0.0,
        "fresh netlist at its own critical path: error rate 0",
        "fresh netlist errs at rate %.4f at its own critical path"
        % fresh_rate)]
    ladder = [fresh_rate] + worst_rates
    monotone = all(lo <= hi + 1e-12 for lo, hi in zip(ladder, ladder[1:]))
    results.append(_result(
        "error_rate_monotone_in_lifetime", monotone,
        "error rate ladder %s over years %s"
        % (["%.4f" % r for r in ladder], [0.0] + years),
        "error rate not monotone in lifetime: %s over years %s"
        % (["%.4f" % r for r in ladder], [0.0] + years)))
    results.append(_result(
        "error_rate_monotone_in_stress",
        balance_rate <= worst_rates[-1] + 1e-12,
        "balanced stress (%.4f) <= worst case (%.4f) at %gy"
        % (balance_rate, worst_rates[-1], years[-1]),
        "balanced stress errs more (%.4f) than worst case (%.4f) at %gy"
        % (balance_rate, worst_rates[-1], years[-1])))
    return results


def check_psnr_endpoints(library, image="akiyo", size=32, width=32,
                         years=10.0, fresh_floor_db=40.0,
                         min_collapse_db=5.0, effort="ultra"):
    """EXPERIMENTS.md PSNR endpoints on the DCT-IDCT chain.

    The fresh fixed-point codec round-trips a synthetic image at high
    quality (paper: ~45 dB); decoding through a gate-level multiplier
    aged *years* at the fresh clock (the naive guardband removal of the
    motivational study) collapses the PSNR. Gate-level simulation of a
    ``width``-bit multiplier makes this the most expensive invariant —
    tier-2 territory.
    """
    from ..approx.gate_level import GateLevelArithmetic, TimedComponentModel
    from ..aging import worst_case
    from ..media import make_image, roundtrip_psnr
    from ..rtl import Multiplier

    img = make_image(image, size=size)
    fresh_psnr = roundtrip_psnr(img)
    aged_model = TimedComponentModel(
        Multiplier(width), library, scenario=worst_case(years),
        effort=effort)
    aged_psnr = roundtrip_psnr(
        img, decode_arithmetic=GateLevelArithmetic(mul_model=aged_model))

    results = [_result(
        "fresh_psnr_endpoint", fresh_psnr >= fresh_floor_db,
        "fresh chain round-trips %s at %.1f dB (floor %.1f)"
        % (image, fresh_psnr, fresh_floor_db),
        "fresh chain only reaches %.1f dB (floor %.1f)"
        % (fresh_psnr, fresh_floor_db))]
    results.append(_result(
        "aged_psnr_collapse",
        aged_psnr <= fresh_psnr - min_collapse_db,
        "guardband-free aged decode drops %s to %.1f dB (fresh %.1f)"
        % (image, aged_psnr, fresh_psnr),
        "aged decode at %.1f dB did not collapse vs fresh %.1f dB"
        % (aged_psnr, fresh_psnr)))
    return results


def check_synth_sweep(component, library, efforts=("medium", "ultra"),
                      precisions=None, target_ps=None):
    """Sweep synthesis vs the dict-pass oracle, bit-exactly.

    :class:`repro.synth.sweep.SweepSynthesis` runs the array optimizer
    and sizer, with the same contract as the vectorized STA engine:
    identical results, no epsilon. For every (effort, precision) pair
    this check derives the truncated variant from the full-precision
    base and compares it against an independent scratch synthesis of
    the explicitly truncated component by the dict optimization passes
    and the dict sizer (:func:`repro.verify.sizing.reference_synthesize`,
    so the check rests on neither :mod:`repro.synth.optimize` nor
    :mod:`repro.synth.fastsize`): content-fingerprint equality of the
    netlists plus float-equal delay/area/leakage.
    """
    from ..core.cache import netlist_fingerprint
    from ..synth.sweep import SweepSynthesis
    from .sizing import reference_synthesize

    width = component.width
    if precisions is None:
        precisions = [width, width - 1, max(1, width - 3),
                      max(1, width // 2)]
    precisions = sorted(set(p for p in precisions if 1 <= p <= width),
                        reverse=True)
    bad = []
    points = 0
    for effort in efforts:
        sweep = SweepSynthesis(component, library, effort=effort,
                               target_ps=target_ps)
        for precision in precisions:
            derived = sweep.derive(precision)
            scratch = reference_synthesize(
                component.with_precision(precision), library,
                effort=effort, target_ps=target_ps)
            points += 1
            if (netlist_fingerprint(derived.netlist)
                    != netlist_fingerprint(scratch.netlist)
                    or derived.delay_ps != scratch.delay_ps
                    or derived.area_um2 != scratch.area_um2
                    or derived.leakage_nw != scratch.leakage_nw):
                bad.append("%s@%s" % (precision, effort))
    return [_result(
        "synth_sweep_bit_exact", not bad,
        "%d derived point(s) fingerprint-identical to the dict-pass "
        "oracle" % points,
        "sweep-derived synthesis diverges from the oracle at: %s"
        % ", ".join(bad))]


def check_sta_engine(netlist, library, scenarios, bti=None,
                     degradation=None):
    """Batched/incremental STA vs the scalar oracle, bit-exactly.

    The vectorized engine (:mod:`repro.sta.engine`) is a perf
    optimization with a correctness contract: identical IEEE results.
    This check holds it to that contract without any epsilon —

    * ``analyze_batch`` over the fresh corner plus *scenarios* must
      reproduce :func:`repro.sta.sta.analyze` arrivals, gate delays and
      the critical path float-for-float per corner;
    * the truncation replay with the first half of the primary inputs
      tied low — :func:`~repro.sta.engine.cone_plan`, then
      :func:`~repro.sta.engine.delta_plan` from the untruncated
      netlist, then :func:`~repro.sta.engine.replay_cone` on a copy of
      the batch arrivals, as :meth:`repro.core.grid.TimingGrid.critical_paths`
      runs it — must match the scalar analysis of the explicitly swept
      netlist (:func:`repro.sta.engine.tie_low`): the critical path,
      the delays of the gates that survive and every arrival.
    """
    from ..aging.bti import DEFAULT_BTI
    from ..sta.engine import (_critical_paths, analyze_batch, cone_plan,
                              delta_plan, replay_cone, tie_low)
    from ..sta.sta import analyze

    if bti is None:
        bti = DEFAULT_BTI
    corners = [None] + [s for s in scenarios if s is not None]
    batch = analyze_batch(netlist, library, corners, bti=bti,
                          degradation=degradation)
    bad = []
    for idx, corner in enumerate(corners):
        scalar = analyze(netlist, library, scenario=corner, bti=bti,
                         degradation=degradation)
        got = batch.report(idx)
        if (got.arrivals != scalar.arrivals
                or got.gate_delays != scalar.gate_delays
                or got.critical_path_ps != scalar.critical_path_ps):
            bad.append(got.scenario_label)
    results = [_result(
        "sta_batch_bit_exact", not bad,
        "%d corner(s) bit-identical to scalar STA" % len(corners),
        "batched STA diverges from scalar on: %s" % ", ".join(bad))]

    tied = list(netlist.primary_inputs[:max(1, len(netlist.primary_inputs)
                                            // 2)])
    program = batch.program
    plan = cone_plan(program, tied)
    arrivals = batch.arrivals.copy()
    replay_cone(delta_plan(program, None, plan), arrivals, batch.delays)
    cps = _critical_paths(program, arrivals)
    swept = tie_low(netlist, tied)
    kept = [(row, uid) for row, uid in enumerate(program.gate_uids.tolist())
            if not plan.dropped[row]]
    bad = []
    for idx, corner in enumerate(corners):
        scalar = analyze(swept, library, scenario=corner, bti=bti,
                         degradation=degradation)
        delays = {uid: float(batch.delays[row, idx]) for row, uid in kept}
        if (float(cps[idx]) != scalar.critical_path_ps
                or delays != scalar.gate_delays
                or any(float(arrivals[program.slot_of[n], idx]) != a
                       for n, a in scalar.arrivals.items())):
            bad.append(batch.labels[idx])
    results.append(_result(
        "sta_incremental_bit_exact", not bad,
        "cone re-analysis of %d tied input(s) matches swept-netlist STA"
        % len(tied),
        "incremental STA diverges from tie_low oracle on: %s"
        % ", ".join(bad)))
    return results


def check_injection(component, library, years=(1.0, 10.0),
                    clock_scales=(1.0, 0.95), vectors=256, seed=20170618,
                    effort="ultra", stimulus="normal"):
    """Fault-injection campaign invariants on one component.

    Runs a small :mod:`repro.inject` campaign (fresh + worst-case
    scenarios at *years*, clock scales relative to the fresh critical
    path) and checks what the paper's guardband-free framing demands:

    * a fresh circuit clocked at its own critical path suffers exactly
      zero injected faults;
    * a guardbanded circuit (clock = aged critical path) has zero
      violating gates at every scenario;
    * injected-fault and faulted-vector counts are monotone
      non-decreasing in lifetime at fixed clock, and in clock
      aggressiveness at fixed lifetime (the masks are nested — see
      :mod:`repro.inject.masks`);
    * the campaign's packed cone replay, fed the prelude's packed
      stimulus and kept frontier, agrees bit-for-bit with the scalar
      uint8 reference injector on the most aggressive grid point, and
      the prelude's clean integers equal the byte engine's decoded
      outputs.
    """
    from ..inject import CampaignSpec, run_campaign
    from ..core.specs import component_spec, parse_scenario
    from ..inject.campaign import _build_prelude, _replay
    from ..inject.inject_sim import unpack_op_masks
    from ..sim.bitpack import unpack_bits
    from ..sim.logic import bits_to_int
    from .reference_sim import evaluate_bytes, evaluate_bytes_injected
    from ..sta.engine import corner_label

    years = sorted(years)
    scales = sorted(clock_scales, reverse=True)
    scenarios = tuple(["fresh"] + ["worst%gy" % y for y in years])
    spec = CampaignSpec(component=component_spec(component),
                        width=component.width, scenarios=scenarios,
                        clock_scales=tuple(scales), vectors=vectors,
                        seed=seed, effort=effort, stimulus=stimulus)
    result = run_campaign(spec, library=library)
    labels = [corner_label(parse_scenario(s)) for s in spec.scenarios]
    by_point = {(r["scenario"], r["clock_scale"]): r for r in result.rows}

    fresh_row = by_point[("fresh", scales[0])]
    results = [_result(
        "inject_zero_fresh_faults",
        scales[0] == 1.0 and fresh_row["injected_faults"] == 0
        and fresh_row["violating_gates"] == 0,
        "fresh circuit at its own critical path: 0 violating gates, "
        "0 injected faults",
        "fresh circuit at clock scale %g: %d violating gate(s), %d "
        "injected fault(s)" % (scales[0], fresh_row["violating_gates"],
                               fresh_row["injected_faults"]))]

    bad = [g["scenario"] for g in result.guardbanded
           if g["violating_gates"] != 0]
    results.append(_result(
        "inject_zero_when_guardbanded", not bad,
        "aged clock (guardband) leaves no violating gate in %d "
        "scenario(s)" % len(result.guardbanded),
        "guardbanded corners still violate: %s" % ", ".join(bad)))

    bad = []
    for scale in scales:
        for metric in ("injected_faults", "faulted_vectors"):
            ladder = [by_point[(s, scale)][metric] for s in labels]
            if any(lo > hi for lo, hi in zip(ladder, ladder[1:])):
                bad.append("%s @ x%g: %s" % (metric, scale, ladder))
    results.append(_result(
        "inject_faults_monotone_in_lifetime", not bad,
        "fault counts non-decreasing over %s at every clock scale"
        % (labels,),
        "fault counts decrease with lifetime: %s" % "; ".join(bad)))

    bad = []
    for scenario in labels:
        for metric in ("injected_faults", "faulted_vectors"):
            ladder = [by_point[(scenario, scale)][metric]
                      for scale in scales]
            if any(lo > hi for lo, hi in zip(ladder, ladder[1:])):
                bad.append("%s @ %s: %s" % (metric, scenario, ladder))
    results.append(_result(
        "inject_faults_monotone_in_clock", not bad,
        "fault counts non-decreasing as the clock tightens %s"
        % (list(scales),),
        "fault counts decrease with clock aggressiveness: %s"
        % "; ".join(bad)))

    # The campaign's own path: the point's prelude and cone replay.
    label = labels[-1]
    prelude = _build_prelude(spec, library, [(label, scales[-1])])
    masks = prelude.faultloads[0].masks(spec.seed,
                                        prelude.pi_words.shape[1])
    pi_bits = unpack_bits(prelude.pi_words, spec.vectors)
    packed = unpack_bits(_replay(prelude, 0, masks), spec.vectors)
    reference = evaluate_bytes_injected(
        prelude.compiled, pi_bits, unpack_op_masks(masks, spec.vectors))
    agree = bool((packed == reference).all())
    clean_agree = bool((prelude.clean_ints == bits_to_int(
        evaluate_bytes(prelude.compiled, pi_bits), signed=True)).all())
    results.append(_result(
        "inject_packed_matches_reference", agree and clean_agree,
        "packed cone replay bit-exact vs scalar reference (%d masked "
        "gate(s), %d replayed op(s), %d vectors)"
        % (len(masks), len(prelude.replays[0]), spec.vectors),
        "packed and scalar injectors disagree at %s x%g (masked=%d, "
        "clean_path_agrees=%s)" % (label, scales[-1], len(masks),
                                   clean_agree)))
    return results


def check_mc(component, library, years=(1.0, 10.0),
             clock_scales=(1.0, 0.97), sigma_mv=30.0, samples=192,
             seed=20170618, effort="ultra", sweep_bits=2):
    """Monte Carlo variation-engine invariants on one component.

    Runs a small :mod:`repro.mc` yield analysis (fresh + worst-case
    scenarios at *years*) and checks what the stochastic Eq. 2 framing
    demands:

    * **sigma -> 0 convergence** — the worst deviation of sampled
      critical paths from the deterministic engine shrinks (weakly) as
      sigma is quartered, and ``sigma = 0`` is *bit-identical* to
      :func:`repro.sta.engine.analyze_batch` (``==``, no epsilon);
    * **yield monotonicity** — per precision, yield is non-increasing
      in lifetime at a fixed clock and non-increasing as the clock
      tightens at a fixed lifetime;
    * **jobs determinism** — ``run_mc`` under ``jobs=1`` and ``jobs=2``
      produce equal ``to_dict()`` results;
    * **quantile sandwich** — ``p50 <= mean <= p99`` on every exactly
      evaluated row (critical paths are maxima over many gate sums, a
      right-skewed family).
    """
    from ..core.specs import component_spec, parse_scenario
    from ..mc import MCSpec, VariationModel, analyze_mc, run_mc
    from ..sta.engine import analyze_batch, corner_label
    from ..synth.synthesize import synthesize_netlist

    years = sorted(years)
    scales = sorted(clock_scales, reverse=True)
    scenarios = tuple(["fresh"] + ["worst%gy" % y for y in years])
    spec = MCSpec(component=component_spec(component),
                  width=component.width, scenarios=scenarios,
                  clock_scales=tuple(scales), sigma_mv=sigma_mv,
                  samples=samples, seed=seed, sweep_bits=sweep_bits,
                  effort=effort)
    r1 = run_mc(spec, library=library, jobs=1)
    r2 = run_mc(spec, library=library, jobs=2)
    results = [_result(
        "mc_jobs_deterministic", r1.to_dict() == r2.to_dict(),
        "run_mc bit-identical across --jobs 1 / --jobs 2 (%d samples)"
        % samples,
        "run_mc results differ between --jobs 1 and --jobs 2")]

    netlist = synthesize_netlist(component, library, effort=effort)
    corners = tuple(parse_scenario(s) for s in scenarios)
    batch = analyze_batch(netlist, library, corners)
    det = batch.critical_path_ps[:, None]
    deviations = []
    for factor in (1.0, 0.25, 0.0625):
        rep = analyze_mc(netlist, library, corners,
                         VariationModel(sigma_mv=sigma_mv * factor,
                                        seed=seed),
                         samples=min(64, samples))
        deviations.append(float(np.abs(rep.critical_path_ps - det).max()))
    shrinking = all(hi >= lo - DELAY_EPS_PS for hi, lo in
                    zip(deviations, deviations[1:]))
    results.append(_result(
        "mc_sigma_converges_to_deterministic", shrinking,
        "max |sampled - deterministic| CP shrinks with sigma: %s ps"
        % ["%.4g" % d for d in deviations],
        "deviation does not shrink as sigma -> 0: %s ps"
        % ["%.4g" % d for d in deviations]))

    zero = analyze_mc(netlist, library, corners,
                      VariationModel(sigma_mv=0.0, seed=seed), samples=8)
    results.append(_result(
        "mc_sigma_zero_bit_identical",
        bool((zero.critical_path_ps == det).all()),
        "sigma = 0 sampled CPs == deterministic batch CPs (exact)",
        "sigma = 0 sampled CPs differ from the deterministic engine"))

    exact = {(row["precision"], row["scenario"], row["clock_scale"]): row
             for row in r1.rows if row["exact"]}
    labels = [corner_label(parse_scenario(s)) for s in scenarios]
    bad = []
    for precision in r1.precisions:
        for scale in scales:
            ladder = [exact[(precision, label, scale)]["yield_fraction"]
                      for label in labels
                      if (precision, label, scale) in exact]
            if any(lo < hi for lo, hi in zip(ladder, ladder[1:])):
                bad.append("precision %d @ x%g: %s"
                           % (precision, scale, ladder))
    results.append(_result(
        "mc_yield_monotone_in_lifetime", not bad,
        "yield non-increasing over %s at every precision/clock" % labels,
        "yield increases with lifetime: %s" % "; ".join(bad)))

    bad = []
    for precision in r1.precisions:
        for label in labels:
            ladder = [exact[(precision, label, scale)]["yield_fraction"]
                      for scale in scales
                      if (precision, label, scale) in exact]
            if any(lo < hi for lo, hi in zip(ladder, ladder[1:])):
                bad.append("precision %d @ %s: %s"
                           % (precision, label, ladder))
    results.append(_result(
        "mc_yield_monotone_in_clock", not bad,
        "yield non-increasing as the clock tightens %s" % (list(scales),),
        "yield increases as the clock tightens: %s" % "; ".join(bad)))

    # Finite-sample tolerance: with S draws the sample median wanders
    # around the sample mean by O(spread / sqrt(S)) even on a perfectly
    # symmetric distribution, so the sandwich is enforced up to a few
    # standard errors of the (p99 - p50) spread. Gross violations
    # (swapped quantiles, broken block reductions) exceed this by far.
    bad = []
    for key, row in sorted(exact.items(), key=repr):
        tol = 4.0 * (row["p99_ps"] - row["p50_ps"]) \
            / max(1.0, float(samples)) ** 0.5 + DELAY_EPS_PS
        if not (row["p50_ps"] <= row["mean_ps"] + tol
                and row["mean_ps"] <= row["p99_ps"] + tol):
            bad.append("%s: p50=%.4f mean=%.4f p99=%.4f"
                       % (key, row["p50_ps"], row["mean_ps"],
                          row["p99_ps"]))
    results.append(_result(
        "mc_quantile_sandwich", not bad,
        "p50 <= mean <= p99 (finite-sample tolerance) on all %d exact "
        "rows" % len(exact),
        "quantile sandwich broken: %s" % "; ".join(bad[:3])))
    return results
