"""Plain-text report formatting.

Shared by the CLI and the examples: turns characterizations, timing
analyses and flow outcomes into aligned, readable tables without any
third-party dependency.
"""


def format_table(headers, rows):
    """Render *rows* (sequences of values) under *headers* as text."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append(["%.1f" % v if isinstance(v, float) else str(v)
                      for v in row])
    widths = [max(len(line[col]) for line in cells)
              for col in range(len(headers))]
    lines = []
    for index, line in enumerate(cells):
        lines.append("  ".join(cell.rjust(width)
                               for cell, width in zip(line, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def characterization_report(entry):
    """Text table of one component characterization (Section IV).

    A scenario characterized at only some precisions (a merged or
    flow-searched entry) shows ``-`` where it has no delay."""
    headers = (["precision", "fresh_ps"]
               + ["%s_ps" % label for label in entry.scenario_labels]
               + ["gates", "area_um2"])
    rows = []
    for precision in entry.precisions:
        rows.append([precision, entry.fresh_ps[precision]]
                    + [entry.aged_ps.get((precision, label), "-")
                       for label in entry.scenario_labels]
                    + [entry.gates[precision],
                       entry.area_um2[precision]])
    lines = ["component %s (base width %d)" % (entry.key, entry.width),
             format_table(headers, rows), ""]
    for label in entry.scenario_labels:
        try:
            k = entry.required_precision(label)
        except KeyError:
            # The top-down Eq. 2 walk reached a precision this scenario
            # was not characterized at before finding an answer.
            covered = sum((p, label) in entry.aged_ps
                          for p in entry.precisions)
            lines.append("%-18s characterized at %d of %d precisions, "
                         "no answer among them"
                         % (label, covered, len(entry.precisions)))
            continue
        if k is None:
            lines.append("%-18s cannot be compensated within the sweep"
                         % label)
        else:
            lines.append("%-18s required precision K=%d (drop %d bits, "
                         "guardband %.1f ps removed)"
                         % (label, k, entry.width - k,
                            entry.guardband_ps(label)))
    return "\n".join(lines)


def screen_report(screen):
    """Text table of a fast truncation screen (incremental STA)."""
    headers = (["precision"]
               + ["%s_ps" % label for label in screen.scenario_labels]
               + ["cone_%", "dropped"])
    rows = []
    for row in screen.to_rows():
        rows.append([row["precision"]]
                    + [row["%s_ps" % label]
                       for label in screen.scenario_labels]
                    + ["%.0f%%" % (100 * row["cone_fraction"]),
                       row["dropped_gates"]])
    lines = ["truncation screen %s (one netlist, constants swept — "
             "upper bounds on re-synthesized delays)" % screen.key,
             format_table(headers, rows)]
    for label in screen.scenario_labels:
        k = screen.required_precision(label)
        lines.append("%-18s screen precision K>=%s"
                     % (label, k if k is not None else "none in sweep"))
    return "\n".join(lines)


def timing_report_text(netlist, library, report):
    """Summary of an STA run: critical path and slowest outputs."""
    from .sta.paths import critical_path, per_output_arrivals

    path = critical_path(netlist, report)
    lines = ["design %s under %s" % (netlist.name, report.scenario_label),
             "critical path: %.1f ps through %d gates"
             % (report.critical_path_ps, path.depth),
             "slowest outputs:"]
    for net, name, arrival in per_output_arrivals(netlist, report)[:8]:
        lines.append("  %-12s %.1f ps" % (name, arrival))
    return "\n".join(lines)


def flow_report_text(report):
    """Summary of a guardband-removal run (Section V / Fig. 8(a))."""
    lines = ["timing constraint t_CP(noAging) = %.1f ps"
             % report.constraint_ps,
             "validated: %s (residual guardband %.2f ps)"
             % (report.outcome.validated,
                report.outcome.residual_guardband_ps),
             "", "block decisions:"]
    for name, decision in report.outcome.decisions.items():
        change = ("%d -> %d bits" % (decision.original_precision,
                                     decision.chosen_precision)
                  if decision.approximated else "full precision")
        lines.append("  %-8s %-16s slack %+7.1f -> %+7.1f ps"
                     % (name, change, decision.slack_before_ps,
                        decision.slack_after_ps))
    lines.append("")
    lines.append(format_table(
        ["scenario", "original_ps", "approximated_ps", "meets"],
        [[label, report.original_delays_ps[label],
          report.approximated_delays_ps[label],
          "yes" if report.approximated_delays_ps[label]
          <= report.constraint_ps * (1 + 1e-9) else "NO"]
         for label in report.original_delays_ps]))
    return "\n".join(lines)


def timings_report_text(totals, counters=None):
    """Per-span timing table and cache-effectiveness line.

    *totals* is :meth:`repro.obs.trace.Tracer.totals`; rows are span
    names by descending self time, whose shares of the root spans' wall
    time add up to 100%. *counters* is a metrics snapshot's
    ``"counters"``; its ``cache.hits``/``cache.misses`` give the cache
    line (omitted when neither was counted).
    """
    lines = ["per-stage timing:"]
    if totals:
        total = sum(entry["self_seconds"] for entry in totals.values())
        rows = [[name, entry["calls"], entry["seconds"] * 1e3,
                 entry["self_seconds"] * 1e3,
                 100.0 * entry["self_seconds"] / total if total else 0.0]
                for name, entry in sorted(
                    totals.items(), key=lambda i: -i[1]["self_seconds"])]
        lines.append(format_table(
            ["span", "calls", "ms", "self_ms", "self_%"], rows))
    else:
        lines.append("  (no spans recorded)")
    counters = counters or {}
    if "cache.hits" in counters or "cache.misses" in counters:
        hits = counters.get("cache.hits", 0)
        misses = counters.get("cache.misses", 0)
        looked = hits + misses
        lines.append("cache: %d hits / %d misses (%.0f%% hit rate)"
                     % (hits, misses, 100.0 * hits / looked if looked
                        else 0.0))
    return "\n".join(lines)


#: Metric-family prefixes rendered first, in this order; anything else
#: follows alphabetically.
_METRIC_GROUPS = ("cache", "serve", "sta", "synth", "sim", "obs")


def _metric_unit(name):
    """Display unit of a metric, inferred from its name ('' if none)."""
    if name.endswith("_ms") or ".latency" in name:
        return "ms"
    if "bytes" in name:
        return "B"
    if name.endswith("_ps"):
        return "ps"
    if name.endswith("_um2"):
        return "um2"
    if name.endswith("_nw"):
        return "nW"
    return ""


def _metric_value(value, unit):
    if isinstance(value, float):
        text = "%.3f" % value if abs(value) < 1e4 else "%.4g" % value
    else:
        text = str(value)
    return "%s %s" % (text, unit) if unit else text


def _histogram_line(name, state):
    """One line per histogram: count, mean and p50/p95/p99."""
    from .obs.metrics import DEFAULT_BOUNDARIES, Histogram

    hist = Histogram(state.get("boundaries", DEFAULT_BOUNDARIES))
    hist.merge_snapshot(state)
    if hist.count == 0:
        return "%s  (empty)" % name
    unit = _metric_unit(name)

    def fmt(value):
        return _metric_value(float(value), unit)

    return ("%s  count=%d mean=%s p50=%s p95=%s p99=%s min=%s max=%s"
            % (name, hist.count, fmt(hist.mean),
               fmt(hist.quantile(0.50)), fmt(hist.quantile(0.95)),
               fmt(hist.quantile(0.99)),
               fmt(hist.min if hist.min is not None
                   else hist.quantile(0.0)),
               fmt(hist.max if hist.max is not None
                   else hist.quantile(1.0))))


def metrics_report_text(snapshot):
    """Render a metrics-registry snapshot as grouped, aligned text.

    Metric families are grouped by name prefix (``cache.*``,
    ``serve.*``, ``sta.*``, ``synth.*``, ...) in a stable order,
    histograms render count/mean/p50/p95/p99 on one line each, and
    latency/bytes/area rows carry their units.

    Parameters
    ----------
    snapshot:
        A :class:`~repro.obs.metrics.MetricsRegistry` or the dict from
        its ``snapshot()``.
    """
    if hasattr(snapshot, "snapshot"):
        snapshot = snapshot.snapshot()
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    lines = ["metrics:"]
    if not (counters or gauges or histograms):
        lines.append("  (no metrics recorded)")
        return "\n".join(lines)

    def prefix_of(name):
        return name.split(".", 1)[0]

    every = set(counters) | set(gauges) | set(histograms)
    prefixes = sorted(
        {prefix_of(name) for name in every},
        key=lambda p: (_METRIC_GROUPS.index(p) if p in _METRIC_GROUPS
                       else len(_METRIC_GROUPS), p))
    for prefix in prefixes:
        lines.append("")
        lines.append("%s.*" % prefix)
        rows = []
        for name in sorted(n for n in counters
                           if prefix_of(n) == prefix):
            rows.append([name, _metric_value(counters[name],
                                             _metric_unit(name)),
                         "counter"])
        for name in sorted(n for n in gauges if prefix_of(n) == prefix):
            rows.append([name, _metric_value(float(gauges[name]),
                                             _metric_unit(name)),
                         "gauge"])
        if rows:
            for line in format_table(["name", "value", "kind"],
                                     rows).splitlines():
                lines.append("  " + line)
        for name in sorted(n for n in histograms
                           if prefix_of(n) == prefix):
            lines.append("  " + _histogram_line(name, histograms[name]))
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    if hits or misses:
        lines.append("")
        lines.append("cache hit ratio: %.0f%% (%d read / %d written "
                     "bytes)"
                     % (100.0 * hits / (hits + misses),
                        counters.get("cache.bytes_read", 0),
                        counters.get("cache.bytes_written", 0)))
    return "\n".join(lines)


def schedule_report_text(schedule):
    """Summary of an adaptive precision schedule."""
    lines = ["graceful-degradation schedule for %s (clock %.1f ps)"
             % (schedule.design_name, schedule.constraint_ps)]
    headers = ["age_years"] + sorted(schedule.checkpoints[0][1])
    rows = [[age] + [precisions[name] for name in headers[1:]]
            for age, precisions in schedule.checkpoints]
    lines.append(format_table(headers, rows))
    return "\n".join(lines)


def verify_report_text(report):
    """Summary of a differential-verification run.

    Renders a :class:`repro.verify.VerificationReport`: one status line
    per check (golden diff, cross-engine oracle, each paper invariant,
    fuzzing), a table of scenarios covered, and pointers to any
    minimized counterexamples.
    """
    lines = ["differential verification of %s" % report.component,
             "scenarios: %s" % ", ".join(report.scenario_labels),
             ""]
    lines.append(report.describe())
    counterexamples = report.counterexamples
    if counterexamples:
        lines.append("")
        lines.append("%d minimized counterexample(s):"
                     % len(counterexamples))
        lines += ["  " + cx.describe() for cx in counterexamples]
    lines.append("")
    lines.append("verdict: %s" % ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines)


def mc_report_text(result):
    """Yield curves + yield-constrained K of a Monte Carlo analysis.

    Renders a :class:`repro.mc.MCResult`: per scenario x clock the
    precision ladder with sampled yield and quantiles (``mode`` marks
    surrogate-screened rows, whose quantiles are regression estimates),
    then the yield-constrained max precision K next to its
    deterministic counterpart.
    """
    spec = result.spec
    lines = ["monte carlo yield analysis: %s (%d gates, %d samples, "
             "sigma %g mV, seed %d)"
             % (result.component, result.gates, result.samples,
                spec.sigma_mv, spec.seed),
             "fresh clock: %.3f ps; min yield: %g"
             % (result.fresh_clock_ps, spec.min_yield)]
    order = []
    grouped = {}
    for row in result.rows:
        key = (row["scenario"], row["clock_scale"])
        if key not in grouped:
            order.append(key)
            grouped[key] = []
        grouped[key].append(row)
    for scenario, scale in order:
        rows = grouped[(scenario, scale)]
        lines.append("")
        lines.append("%s @ clock x%.3g (%.2f ps):"
                     % (scenario, scale, rows[0]["clock_ps"]))
        headers = ["precision", "det_ps", "p50_ps", "mean_ps",
                   "q%g_ps" % (spec.min_yield * 100), "p99_ps",
                   "yield", "mode"]
        table = []
        for row in rows:
            if row["exact"]:
                table.append([
                    row["precision"], "%.2f" % row["det_cp_ps"],
                    "%.2f" % row["p50_ps"], "%.2f" % row["mean_ps"],
                    "%.2f" % row["q_ps"], "%.2f" % row["p99_ps"],
                    "%.4f" % row["yield_fraction"], "exact"])
            else:
                table.append([
                    row["precision"], "%.2f" % row["det_cp_ps"],
                    "%.2f" % row["p50_ps"], "-",
                    "%.2f" % row["q_ps"], "-", "-", "est"])
        lines.append(format_table(headers, table))
    lines.append("")
    lines.append("yield-constrained max precision K:")
    headers = ["scenario", "clock", "clock_ps", "det_K", "yield_K",
               "yield_at_K"]
    table = []
    for row in result.k_rows:
        table.append([
            row["scenario"], "x%.3g" % row["clock_scale"],
            "%.2f" % row["clock_ps"],
            "-" if row["det_precision"] is None
            else row["det_precision"],
            "-" if row["yield_precision"] is None
            else row["yield_precision"],
            "-" if row["yield_at_k"] is None
            else "%.4f" % row["yield_at_k"]])
    lines.append(format_table(headers, table))
    if result.surrogate:
        info = result.surrogate
        lines.append("")
        lines.append(
            "surrogate screen: degree %d fit on anchors %s; margin "
            "%.3f ps; evaluated %s; skipped %s"
            % (info["degree"], info["anchors"], info["margin_ps"],
               info["evaluated"], info["skipped"]))
        worst = max(t["max_abs_err"]
                    for t in info["cv"]["targets"].values())
        lines.append("cross-validation (%d folds): worst held-out "
                     "|err| %.3f ps" % (info["cv"]["folds"], worst))
    return "\n".join(lines)


def inject_report_text(result):
    """Error-rate ladder + comparison arms of a fault-injection campaign.

    Renders a :class:`repro.inject.CampaignResult`: the guardband-free
    fault ladder over the scenario x clock grid, then the deterministic
    alternatives — aging-induced approximation at the same clock, and
    guardbanding (clock relaxed to the aged critical path).
    """
    spec = result.spec
    lines = ["fault-injection campaign: %s (%d gates, %d vectors, seed %d)"
             % (result.component, result.gates, result.vectors, spec.seed),
             "guardband-free clock: %.3f ps (fresh critical path)"
             % result.fresh_clock_ps,
             "",
             "guardband-free + faults:"]
    headers = ["scenario", "clock", "clock_ps", "viol", "p_flip",
               "faults", "fault_rate", "word_err", "mae", "psnr_db"]
    rows = []
    for row in result.rows:
        rows.append([
            row["scenario"], "x%.3g" % row["clock_scale"],
            "%.2f" % row["clock_ps"], row["violating_gates"],
            "%.4f" % row["mean_flip_probability"], row["injected_faults"],
            "%.5f" % row["faulted_vector_rate"],
            "%.5f" % row["word_error_rate"], "%.2f" % row["mean_abs_error"],
            "%.1f" % row["psnr_db"]])
    lines.append(format_table(headers, rows))
    if result.approximation:
        lines.append("")
        lines.append("guardband-free + aging-induced approximation:")
        headers = ["scenario", "clock", "precision", "dropped",
                   "aged_cp_ps", "word_err", "mae", "psnr_db"]
        rows = []
        for row in result.approximation:
            if row["feasible"]:
                rows.append([
                    row["scenario"], "x%.3g" % row["clock_scale"],
                    row["precision"], row["dropped_bits"],
                    "%.2f" % row["aged_cp_ps"],
                    "%.5f" % row["word_error_rate"],
                    "%.2f" % row["mean_abs_error"],
                    "%.1f" % row["psnr_db"]])
            else:
                rows.append([row["scenario"],
                             "x%.3g" % row["clock_scale"],
                             "-", "-", "-", "-", "-", "infeasible"])
        lines.append(format_table(headers, rows))
    if result.guardbanded:
        lines.append("")
        lines.append("guardbanded (clock = aged critical path):")
        headers = ["scenario", "clock_ps", "penalty_pct", "viol", "faults"]
        rows = [[row["scenario"], "%.2f" % row["clock_ps"],
                 "%.2f" % row["clock_penalty_pct"], row["violating_gates"],
                 row["injected_faults"]] for row in result.guardbanded]
        lines.append(format_table(headers, rows))
    return "\n".join(lines)
