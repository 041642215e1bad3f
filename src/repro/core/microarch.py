"""Microarchitecture-level aging-induced approximation (Section V).

A :class:`Microarchitecture` is a set of pipelined combinational datapath
blocks, each containing one RTL database component (the paper's
assumption; glue/steering logic scales proportionally with the component
and control logic is hardened conventionally). The flow in
:func:`apply_aging_approximations` reproduces the paper's Fig. 6:

1. synthesize, obtain the timing constraint ``t_CP(noAging)``;
2. aging-aware STA of every block, giving ``t_Bk(Aging)``;
3. compute slacks ``t_Bk(Slack) = t_CP(noAging) - t_Bk(Aging)``;
4. blocks with negative slack get their component's precision reduced
   using the pre-built approximation library and the *relative slack*
   rule; positive-slack blocks stay exact;
5. validate: re-synthesize, aging-aware STA, and (optionally) check a
   quality constraint; if a small negative slack survives, reduce
   precision further and finally fall back to a (much smaller) residual
   guardband.
"""

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..aging.bti import DEFAULT_BTI
from ..sta.engine import analyze_batch
from .cache import synthesize_netlist_memoized
from .parallel import WorkerPool, resolve_jobs


@dataclass
class Block:
    """One pipelined datapath block wrapping an RTL component.

    Attributes
    ----------
    name:
        Block identifier within the microarchitecture.
    component:
        The :class:`~repro.rtl.component.RTLComponent` instance (its
        precision setting is the block's precision).
    instances:
        How many copies of the component the block instantiates (used by
        area/power roll-ups; timing is per instance).
    role:
        Free-text description for reports.
    """

    name: str
    component: object
    instances: int = 1
    role: str = ""
    netlist: Optional[object] = None

    def synthesized(self, library, effort="ultra"):
        """Return (building lazily) the synthesized netlist.

        Backed by the process-wide synthesis memo, so the many block
        copies a flow creates (``with_precisions``, validation rounds,
        delay reports) share one base synthesis per (component family,
        effort, library) and one derivation per precision. The shared
        netlist must be treated as read-only.
        """
        if self.netlist is None:
            self.netlist = synthesize_netlist_memoized(
                self.component, library, effort=effort)
        return self.netlist

    def with_component(self, component):
        """Copy of this block around a different component instance."""
        return Block(name=self.name, component=component,
                     instances=self.instances, role=self.role)


@dataclass
class BlockTiming:
    """Timing of one block under one scenario (paper's Section V terms)."""

    name: str
    precision: int
    fresh_ps: float
    aged_ps: float
    slack_ps: float
    relative_slack: float

    @property
    def violates(self):
        """True when aging would cause timing errors in this block."""
        return self.slack_ps < 0


class Microarchitecture:
    """A named collection of datapath blocks."""

    def __init__(self, name, blocks, metadata=None):
        self.name = name
        self.blocks = list(blocks)
        self.metadata = dict(metadata or {})
        names = [b.name for b in self.blocks]
        if len(set(names)) != len(names):
            raise ValueError("duplicate block names in %r" % name)

    def __iter__(self):
        return iter(self.blocks)

    def block(self, name):
        for blk in self.blocks:
            if blk.name == name:
                return blk
        raise KeyError("no block named %r in %s" % (name, self.name))

    def synthesize(self, library, effort="ultra"):
        """Synthesize every block (idempotent)."""
        for blk in self.blocks:
            blk.synthesized(library, effort=effort)
        return self

    def timing_constraint_ps(self, library, effort="ultra"):
        """``t_CP(noAging)``: the fresh critical path across all blocks."""
        return max(analyze_batch(blk.synthesized(library, effort), library,
                                 [None]).critical_paths_ps[0]
                   for blk in self.blocks)

    def timing(self, library, scenario=None, constraint_ps=None,
               effort="ultra", bti=DEFAULT_BTI, degradation=None):
        """Per-block timing under *scenario*.

        Returns ``{block name: BlockTiming}`` with slacks measured
        against *constraint_ps* (default: this design's fresh critical
        path).
        """
        if constraint_ps is None:
            constraint_ps = self.timing_constraint_ps(library, effort)
        rows = {}
        for blk in self.blocks:
            netlist = blk.synthesized(library, effort)
            batch = analyze_batch(netlist, library, [None, scenario],
                                  bti=bti, degradation=degradation)
            fresh, aged = batch.critical_paths_ps
            slack = constraint_ps - aged
            rows[blk.name] = BlockTiming(
                name=blk.name, precision=blk.component.precision,
                fresh_ps=fresh, aged_ps=aged, slack_ps=slack,
                relative_slack=slack / constraint_ps)
        return rows

    def with_precisions(self, precisions):
        """New microarchitecture with per-block precisions applied.

        Parameters
        ----------
        precisions:
            Map block name -> precision; omitted blocks stay unchanged.
        """
        blocks = []
        for blk in self.blocks:
            if blk.name in precisions:
                comp = blk.component.with_precision(precisions[blk.name])
                blocks.append(blk.with_component(comp))
            else:
                blocks.append(blk.with_component(blk.component))
        return Microarchitecture(self.name + "_approx", blocks,
                                 metadata=self.metadata)

    def area_um2(self, library, effort="ultra"):
        """Total area over all blocks (weighted by instance counts)."""
        return sum(blk.instances
                   * blk.synthesized(library, effort).area(library)
                   for blk in self.blocks)

    def __repr__(self):
        return "Microarchitecture(%r, blocks=%s)" % (
            self.name, [b.name for b in self.blocks])


@dataclass
class BlockDecision:
    """Approximation decision for one block (one Fig. 6 iteration)."""

    name: str
    original_precision: int
    chosen_precision: int
    slack_before_ps: float
    slack_after_ps: float
    relative_slack: float
    from_library: bool

    @property
    def approximated(self):
        return self.chosen_precision < self.original_precision


@dataclass
class ApproximationOutcome:
    """Result of :func:`apply_aging_approximations`.

    Attributes
    ----------
    design:
        The approximated :class:`Microarchitecture`.
    constraint_ps:
        The timing constraint ``t_CP(noAging)`` all blocks must meet.
    decisions:
        Per-block :class:`BlockDecision` records.
    residual_guardband_ps:
        Extra clock period still required after approximation (0 in the
        expected case; the paper notes it is "very small" otherwise).
    validated:
        True when every aged block meets the constraint without any
        residual guardband.
    iterations:
        Number of validate/refine rounds executed.
    """

    design: Microarchitecture
    constraint_ps: float
    decisions: Dict[str, BlockDecision]
    residual_guardband_ps: float
    validated: bool
    iterations: int

    @property
    def precision_map(self):
        return {name: d.chosen_precision for name, d in self.decisions.items()}


def _search_precision(component, scenario, approx_library, target_of,
                      characterize_at, window):
    """Eq. 2, top down: the largest precision of *component* whose aged
    delay under *scenario* meets ``target_of(entry)``, else the lowest.

    Walks a supplied entry's own precisions, or the default
    :func:`~repro.core.characterize.precision_range` for an entry the
    search creates, from full width down, and stops at the first that
    meets the target. Delays the entry holds are read; missing ones are
    characterized *window* points at a time and merged in. A precision
    new to a created entry is also characterized under the scenarios
    earlier searches put there, so its table stays complete. Window
    points below the answer are dropped again, so the entry is the same
    at every window size.
    """
    from .characterize import precision_range  # local import: avoid cycle

    label = scenario.label
    entry = approx_library.get(component)
    older = approx_library.searched_scenarios(component)
    created = entry is None or older is not None
    span = (precision_range(component.width) if created
            else sorted(entry.precisions, reverse=True))

    def held(precision):
        return entry is not None and (precision, label) in entry.aged_ps

    new_precisions, new_points = [], []
    chosen = span[-1]
    for i, precision in enumerate(span):
        if not held(precision):
            points = [p for p in span[i:i + window] if not held(p)]
            known = [p for p in points
                     if entry is not None and p in entry.fresh_ps]
            new = [p for p in points if p not in known]
            for group, scenarios in ((known, [scenario]),
                                     (new, list(older or ()) + [scenario])):
                if group:
                    part = characterize_at(component, group, scenarios)
                    entry = part if entry is None else entry.merge(part)
            new_precisions += new
            new_points += [(p, label) for p in known]
        if entry.aged_delay_ps(precision, label) <= target_of(entry):
            chosen = precision
            break
    entry.discard([p for p in new_precisions if p < chosen],
                  [point for point in new_points if point[0] < chosen])
    if created:
        approx_library.add_searched(entry, scenario)
    return chosen


def apply_aging_approximations(micro, library, scenario, approx_library,
                               effort="ultra", bti=DEFAULT_BTI,
                               degradation=None, max_refinements=8,
                               quality_check=None, rule="eq2", jobs=None):
    """Convert aging guardbands of *micro* into precision reductions.

    Parameters
    ----------
    micro:
        The microarchitecture to protect.
    library:
        Cell library.
    scenario:
        End-of-life aging scenario to compensate (e.g. 10y worst case).
    approx_library:
        :class:`~repro.core.library.AgingApproximationLibrary` to read
        the Eq. 2 choice from. Each violating block's precision is
        searched top down, from full width to the first precision that
        meets the target, and missing delays are characterized on demand
        (uniform-stress scenarios only). An entry the caller supplied is
        searched over its own precisions and gains none. An entry the
        search creates holds exactly ``width .. chosen`` (the whole
        default :func:`~repro.core.characterize.precision_range` when
        nothing meets the target), and a later scenario that needs a
        lower precision extends it further down that range.
    quality_check:
        Optional callable ``design -> bool``; when it returns False the
        flow backs off one precision step on the most-approximated block
        (the paper's "if final quality is not sufficient, precision can
        be increased and a resulting guardband be similarly added").
    jobs:
        Worker processes for on-demand characterizations; the search
        characterizes this many precisions per window (None defers to
        ``REPRO_JOBS``). Decisions and created entries do not depend
        on it.
    rule:
        Precision-selection rule for violating blocks.

        * ``"eq2"`` (default): pick the largest precision whose aged
          component delay meets the design constraint directly — exact
          when a block contains nothing but its database component, as
          in our microarchitectures.
        * ``"relative"``: the paper's literal relative-slack rule
          ``t_Cj(Aging, P_j) <= (1 + relSlack) * t_Cj(noAging, N_j)``,
          which additionally budgets for glue/steering logic around the
          component and is therefore more conservative here.

    Returns
    -------
    ApproximationOutcome
    """
    if rule not in ("eq2", "relative"):
        raise ValueError("rule must be 'eq2' or 'relative', got %r" % rule)
    from .characterize import characterize  # local import: avoid cycle

    constraint = micro.timing_constraint_ps(library, effort)
    before = micro.timing(library, scenario=scenario,
                          constraint_ps=constraint, effort=effort,
                          bti=bti, degradation=degradation)

    decisions = {}
    precisions = {}
    window = resolve_jobs(jobs)
    # One pool (spawned on first use) serves every window of the search.
    with (WorkerPool(window) if window > 1
          else contextlib.nullcontext()) as pool:

        def characterize_at(component, points, scenarios):
            return characterize(component, library, scenarios,
                                precisions=points, effort=effort, bti=bti,
                                degradation=degradation, jobs=window,
                                pool=pool)

        for blk in micro.blocks:
            timing = before[blk.name]
            full = blk.component.precision
            if not timing.violates:
                decisions[blk.name] = BlockDecision(
                    name=blk.name, original_precision=full,
                    chosen_precision=full, slack_before_ps=timing.slack_ps,
                    slack_after_ps=timing.slack_ps,
                    relative_slack=timing.relative_slack, from_library=True)
                continue
            if rule == "relative":
                # Paper's literal relative-slack rule: pick P_j with
                # t_Cj(Aging, P_j) <= (1 + relSlack) * t_Cj(noAging, N_j).
                def target_of(entry, scale=1.0 + timing.relative_slack):
                    return scale * entry.fresh_delay_ps()
            else:
                # Eq. 2 at the design constraint (block == component).
                def target_of(entry):
                    return constraint
            chosen = _search_precision(blk.component, scenario,
                                       approx_library, target_of,
                                       characterize_at, window)
            precisions[blk.name] = chosen
            decisions[blk.name] = BlockDecision(
                name=blk.name, original_precision=full,
                chosen_precision=chosen, slack_before_ps=timing.slack_ps,
                slack_after_ps=float("nan"),
                relative_slack=timing.relative_slack, from_library=True)

    # Validation / refinement loop (bottom of Fig. 6).
    iterations = 0
    design = micro.with_precisions(precisions)
    while True:
        iterations += 1
        after = design.timing(library, scenario=scenario,
                              constraint_ps=constraint, effort=effort,
                              bti=bti, degradation=degradation)
        worst = min(after.values(), key=lambda t: t.slack_ps)
        quality_ok = quality_check(design) if quality_check else True
        if worst.slack_ps >= 0 and quality_ok:
            residual = 0.0
            break
        if iterations > max_refinements:
            residual = max(0.0, -worst.slack_ps)
            break
        if worst.slack_ps < 0 and worst.name in precisions \
                and precisions[worst.name] > 1:
            # Timing still violated: reduce the offender further.
            precisions[worst.name] -= 1
        elif not quality_ok:
            # Quality violated: back off the deepest reduction; timing
            # is then covered by a residual guardband on exit.
            name = min(decisions, key=lambda n: precisions.get(
                n, decisions[n].original_precision))
            if name not in precisions \
                    or precisions[name] >= decisions[name].original_precision:
                residual = max(0.0, -worst.slack_ps)
                break
            precisions[name] += 1
        else:
            residual = max(0.0, -worst.slack_ps)
            break
        design = micro.with_precisions(precisions)

    for name, timing in after.items():
        decisions[name].slack_after_ps = timing.slack_ps
        decisions[name].chosen_precision = precisions.get(
            name, decisions[name].original_precision)

    return ApproximationOutcome(
        design=design, constraint_ps=constraint, decisions=decisions,
        residual_guardband_ps=residual,
        validated=residual == 0.0, iterations=iterations)
