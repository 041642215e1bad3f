"""Timing-statistics utilities: slack/path-delay distributions.

The likelihood that removing a guardband produces errors is governed by
how much of the design lives near the critical path — the "timing wall"
a max-performance compile produces. These helpers quantify that
structure, feeding the error-anatomy benchmarks and reports.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from ..aging.bti import DEFAULT_BTI
from .engine import analyze_batch
from ..synth.sizing import gate_slacks


@dataclass
class TimingWallReport:
    """Distribution of per-gate slacks against the critical path.

    Attributes
    ----------
    critical_path_ps:
        The reference delay.
    slacks_ps:
        Per-gate slack values (required - arrival of the gate output).
    """

    critical_path_ps: float
    slacks_ps: List[float]

    def fraction_within(self, margin):
        """Fraction of gates with slack <= margin * critical path."""
        if not self.slacks_ps:
            return 0.0
        limit = margin * self.critical_path_ps
        return sum(1 for s in self.slacks_ps if s <= limit) \
            / len(self.slacks_ps)

    def histogram(self, bins=10):
        """``(edges, counts)`` of slack normalized to the critical path."""
        normalized = np.asarray(self.slacks_ps) / self.critical_path_ps
        counts, edges = np.histogram(np.clip(normalized, 0.0, 1.0),
                                     bins=bins, range=(0.0, 1.0))
        return edges, counts

    def text_histogram(self, bins=10, width=40):
        """ASCII rendering of :meth:`histogram` for reports."""
        edges, counts = self.histogram(bins=bins)
        peak = max(int(counts.max()), 1)
        lines = []
        for i, count in enumerate(counts):
            bar = "#" * int(round(width * count / peak))
            lines.append("%4.0f%%-%3.0f%% |%-*s| %d"
                         % (100 * edges[i], 100 * edges[i + 1], width,
                            bar, count))
        return "\n".join(lines)


def timing_wall(netlist, library, scenario=None, bti=DEFAULT_BTI,
                degradation=None):
    """Build a :class:`TimingWallReport` for a netlist."""
    report = analyze_batch(netlist, library, [scenario], bti=bti,
                           degradation=degradation).report(0)
    slacks = gate_slacks(netlist, report, report.critical_path_ps)
    finite = [s for s in slacks.values() if np.isfinite(s)]
    return TimingWallReport(critical_path_ps=report.critical_path_ps,
                            slacks_ps=finite)


def output_arrival_spread(netlist, library, scenario=None,
                          bti=DEFAULT_BTI, degradation=None):
    """Per-output arrival times normalized to the critical path.

    Returns a dict net id -> arrival / critical path; outputs close to
    1.0 are the ones a removed guardband endangers first.
    """
    report = analyze_batch(netlist, library, [scenario], bti=bti,
                           degradation=degradation).report(0)
    cp = report.critical_path_ps or 1.0
    return {net: report.arrivals.get(net, 0.0) / cp
            for net in netlist.primary_outputs}
