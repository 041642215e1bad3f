"""Incremental sweep synthesis: synthesize once, derive every variant.

A characterization sweep synthesizes the *same* component at a dozen
precisions; each truncated variant differs from the full-precision
netlist only in that some operand LSB inputs are tied to constant 0.
From-scratch synthesis re-runs every optimization pass over every gate
for every precision, even though constant propagation only *does*
anything inside the fan-out cone of the tied inputs — the same
observation :func:`repro.sta.engine.analyze_incremental` exploits for
timing.

This module makes the whole sweep incremental:

1. the full-precision component is synthesized **once**, with every
   optimization pass recording an :class:`~repro.synth.optimize.
   OptimizeJournal` of its per-gate decisions;
2. each truncated variant is derived by **replaying** that journal
   through the cone of divergence only: gates whose inputs (or input
   resolutions, or hash representatives, or liveness refcounts) differ
   from the base run are re-decided with the *same* shared step helpers
   (``_constprop_step`` / ``_hash_key``), everything untouched is
   carried over byte-for-byte;
3. the sizing pass runs on a :func:`~repro.synth.fastsize.patch_sizer`\\
   -derived program instead of a fresh compile, replaying the scalar
   pass's exact upsize sequence.

The derived netlist is **bit-identical** (``repro.core.cache.
netlist_fingerprint``-equal) to ``synthesize(component.with_precision(p)
)`` — same gate uids, cells, input tuples, outputs and gate order — so
downstream consumers (STA, simulation, caching) cannot tell the
difference. ``repro.verify.check_synth_sweep`` and
``tests/test_synth_sweep.py`` enforce the identity; any replay surprise
falls back to scratch synthesis (counted by
``synth.sweep.fallbacks``).

Why replay is exact
-------------------
The passes are deterministic functions of the netlist content, and the
truncated build differs from the base build *only* by a substitution
``phi`` (tied PI nets -> CONST0) applied to gate inputs and primary
outputs — gate uids, outputs and list order are identical (asserted
empirically for every component family; the fallback guards the rest).
Replay maintains, per pass, the delta between variant and base state
(``override``/``extra``/``gone`` gates plus net-resolution differences)
and processes dirty gates in ascending raw-gate-list position — the
exact order the real pass visits them — so every re-decided gate sees
the same resolved inputs the real pass would.
"""

import heapq

from ..netlist.gate import Gate
from ..netlist.net import CONST0
from ..netlist.netlist import Netlist
from ..obs import logs, metrics as obs_metrics, trace as obs_trace
from ..sta.engine import truncated_input_nets
from .fastsize import compile_sizer, patch_sizer
from .optimize import OptimizeJournal, _constprop_step, _hash_key, optimize
from .synthesize import EFFORTS, finish, synthesize

_log = logs.get_logger("synth.sweep")

#: Substitution sentinel: the variant keeps the gate driving this net
#: (stop chasing), where the base run may have substituted it away.
_KEEP = object()


class SweepFallback(Exception):
    """Raised when a derive cannot (or should not) use journal replay."""


_KIND_MEMO = {}
_DRIVE_MEMO = {}


def _cell_kind(cell):
    """Cell name -> logic kind, replicating :meth:`Gate.kind`."""
    got = _KIND_MEMO.get(cell)
    if got is None:
        base, sep, drive = cell.rpartition("_X")
        got = _KIND_MEMO[cell] = base if (sep and drive.isdigit()) else cell
    return got


def _cell_drive(cell):
    """Cell name -> drive strength, replicating :meth:`Gate.drive`."""
    got = _DRIVE_MEMO.get(cell)
    if got is None:
        base, sep, drive = cell.rpartition("_X")
        got = _DRIVE_MEMO[cell] = (int(drive) if (sep and drive.isdigit())
                                   else 1)
    return got


class _SubstIndex:
    """Lazy per-(round, pass) index over a substitution pass's journal.

    ``readers`` maps a net to the raw positions of entries that store it
    as an input; ``one_step``/``rev`` capture the base substitution
    graph (out -> target and its reverse); ``drv`` maps an output net to
    its entry's uid. For structural hashing, ``key_of`` / ``key_
    positions`` index entries by their base hash key (the first position
    of a key is its base representative).
    """

    __slots__ = ("ents", "readers", "one_step", "rev", "drv",
                 "key_of", "key_positions")

    def __init__(self, entries, raw_pos, sh=False):
        self.ents = ents = {}
        self.readers = readers = {}
        self.one_step = one_step = {}
        self.rev = rev = {}
        self.drv = drv = {}
        self.key_of = key_of = {} if sh else None
        self.key_positions = key_positions = {} if sh else None
        for e in entries:
            uid, out, cell, ins = e[0], e[1], e[2], e[3]
            ents[uid] = e
            drv[out] = uid
            p = raw_pos[uid]
            for n in ins:
                got = readers.get(n)
                if got is None:
                    readers[n] = [p]
                elif got[-1] != p:
                    got.append(p)
            if e[4] is None:
                t = e[5][0] if sh else e[5]
                one_step[out] = t
                rev.setdefault(t, []).append(out)
            if sh:
                key = _hash_key(_cell_kind(cell),
                                e[5] if e[4] is not None else e[5][1])
                key_of[uid] = key
                key_positions.setdefault(key, []).append(p)


class _DgeIndex:
    """Refcount index of one dead-gate-elimination journal pass.

    ``rc`` counts, per net, reads by base-live gates plus primary-output
    occurrences — a gate is live exactly when its output's refcount is
    positive, which is what the real pass's backward reachability
    computes.
    """

    __slots__ = ("ents", "rc", "drv", "kept_count")

    def __init__(self, entries, po_after_sh):
        self.ents = ents = {}
        self.rc = rc = {}
        self.drv = drv = {}
        kept = 0
        rc_get = rc.get
        for e in entries:
            ents[e[0]] = e
            drv[e[1]] = e[0]
            if e[4]:
                kept += 1
                for n in e[3]:
                    rc[n] = rc_get(n, 0) + 1
        for n in po_after_sh:
            rc[n] = rc_get(n, 0) + 1
        self.kept_count = kept


class SweepSynthesis:
    """One synthesized base component plus its replayable journal.

    Synthesizes *component* at full precision on construction (recording
    the optimization journal and the pre-sizing sizer program), then
    :meth:`derive` produces each truncated variant by cone-restricted
    replay. Derived results are memoized per precision, and the
    aging-aware baselines hardened from the base's snapshot by content
    key (:meth:`hardened`); netlists must be treated as read-only by
    callers (same contract as
    :func:`~repro.core.cache.synthesize_netlist_memoized`).
    """

    def __init__(self, component, library, effort="ultra", target_ps=None):
        if effort not in EFFORTS:
            raise ValueError("unknown effort %r (have %s)"
                             % (effort, sorted(EFFORTS)))
        if component.precision != component.width:
            component = component.with_precision(component.width)
        self.component = component
        self.library = library
        self.effort = effort
        self.target_ps = target_ps
        self._max_rounds = EFFORTS[effort][0]

        raw = component.build()
        self._raw = raw
        self._raw_pos = {g.uid: i for i, g in enumerate(raw.gates)}
        self._uid_at = [g.uid for g in raw.gates]
        self._raw_out = {g.uid: g.output for g in raw.gates}
        self._raw_name = {g.uid: g.name for g in raw.gates}
        self._raw_readers = raw_readers = {}
        for g in raw.gates:
            for n in g.inputs:
                got = raw_readers.get(n)
                if got is None:
                    raw_readers[n] = [g]
                elif got[-1] is not g:
                    got.append(g)
        journal = OptimizeJournal() if raw._list_is_topological() else None

        work = raw.copy()
        source_gates = work.num_gates
        with obs_trace.span("synth.synthesize", design=work.name,
                            effort=effort, source_gates=source_gates) as s:
            optimize(work, library, max_rounds=self._max_rounds,
                     journal=journal)
            work.validate()
            # Post-optimize, pre-sizing snapshots: the reference state
            # variant deltas are diffed against (sizing mutates cells in
            # place, so both must be captured here).
            self._bmap = {g.uid: (g.cell, g.inputs) for g in work.gates}
            self._presize = compile_sizer(work, library)
            self.base_result = finish(work, library, self._presize.clone(),
                                      effort, target_ps, source_gates)
            if s is not None:
                s.attrs["final_gates"] = work.num_gates
        _log.debug("sweep base %s: %d -> %d gates, %.1f ps (effort=%s)",
                   work.name, source_gates, work.num_gates,
                   self.base_result.delay_ps, effort)
        self._journal = journal
        self._idx = {}
        self._derived = {}
        self._hardened = {}
        # Pure-step memos shared across rounds and derives: a constprop
        # decision / hash key is a function of (cell, resolved inputs)
        # and the fixed library only.
        self._step_memo = {}
        self._key_memo = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def derive(self, precision):
        """Synthesis result of the component truncated to *precision*.

        Bit-identical to ``synthesize(component.with_precision(
        precision), library, effort, target_ps)``; falls back to exactly
        that call when replay is unavailable or surprises.
        """
        got = (self.base_result if precision == self.component.width
               else self._derived.get(precision))
        if got is not None:
            obs_metrics.inc(obs_metrics.NETLIST_MEMO_HITS)
            # Memo-served points still trace: a characterization sweep
            # over a warm base shows one (near-zero) span per point.
            with obs_trace.span("synth.sweep.derive",
                                design=self.component.name,
                                precision=precision, cached=True):
                return got
        try:
            result = self._derive(precision)
        except SweepFallback as exc:
            obs_metrics.inc(obs_metrics.SYNTH_SWEEP_FALLBACKS)
            _log.debug("sweep derive unavailable for %s p=%d (%s); "
                       "synthesizing from scratch",
                       self.component.name, precision, exc)
            result = self._scratch(precision)
        except Exception:
            obs_metrics.inc(obs_metrics.SYNTH_SWEEP_FALLBACKS)
            _log.warning("sweep derive failed for %s p=%d; synthesizing "
                         "from scratch", self.component.name, precision,
                         exc_info=True)
            result = self._scratch(precision)
        self._derived[precision] = result
        return result

    def clear_derived(self):
        """Drop memoized derivations (benchmarks re-time the replay)."""
        self._derived.clear()

    def presized_copy(self):
        """Private copy of the base's post-optimize, pre-sizing netlist
        and its sizer program, for a caller that sizes it."""
        netlist = self.base_result.netlist.copy()
        for gate in netlist.gates:
            gate.cell = self._bmap[gate.uid][0]
        program = self._presize.clone()
        program.netlist = netlist
        return netlist, program

    def hardened(self, key, build):
        """Aging-aware baseline of this base under content *key*.

        Computed by ``build()`` on a miss and kept with the base (so it
        is evicted with it); of :data:`_HARDENED_LIMIT` entries the
        least recently used goes first. Hits count as
        ``cache.netlist_memo_hits``; the result is shared and read-only
        (see :func:`repro.synth.aging_aware.aging_aware_synthesize`).
        """
        got = self._hardened.pop(key, None)
        if got is not None:
            obs_metrics.inc(obs_metrics.NETLIST_MEMO_HITS)
        else:
            if len(self._hardened) >= _HARDENED_LIMIT:
                self._hardened.pop(next(iter(self._hardened)))
            got = build()
        self._hardened[key] = got      # most recently used last
        return got

    def _scratch(self, precision):
        return synthesize(self.component.with_precision(precision),
                          self.library, effort=self.effort,
                          target_ps=self.target_ps)

    # ------------------------------------------------------------------
    # derive pipeline
    # ------------------------------------------------------------------
    def _derive(self, precision):
        if self._journal is None:
            raise SweepFallback("raw netlist is not list-topological")
        component = self.component
        library = self.library
        tied = set(truncated_input_nets(component, self._raw, precision))
        cone = set()
        with obs_trace.span("synth.sweep.derive", design=component.name,
                            precision=precision) as s:
            netlist, stable, replayed = self._replay(tied, cone)
            if not stable and replayed < self._max_rounds:
                # The base run settled (or journaling stopped) before
                # the variant did; finish with the real passes.
                optimize(netlist, library,
                         max_rounds=self._max_rounds - replayed)
            netlist.name = component.with_precision(precision).name
            vmap = {g.uid: (g.cell, g.inputs) for g in netlist.gates}
            bmap = self._bmap
            prog = patch_sizer(
                self._presize, netlist, library,
                [u for u in bmap if u not in vmap],
                [u for u, st in vmap.items()
                 if u in bmap and bmap[u] != st],
                [u for u in vmap if u not in bmap])
            result = finish(netlist, library, prog, self.effort,
                            self.target_ps, len(self._raw.gates))
            if s is not None:
                s.attrs["final_gates"] = result.final_gates
                s.attrs["cone_gates"] = len(cone)
        obs_metrics.inc(obs_metrics.SYNTH_SWEEP_DERIVES)
        obs_metrics.observe(obs_metrics.SYNTH_SWEEP_CONE_GATES, len(cone))
        _log.debug("sweep derived %s: %d gates, %.1f ps, cone=%d",
                   netlist.name, result.final_gates, result.delay_ps,
                   len(cone))
        return result

    def _replay(self, tied, cone):
        """Replay the journal under the tie-low substitution *tied*.

        Returns ``(netlist, stable, rounds_replayed)`` where *netlist*
        is the materialized variant after the last replayed round and
        *stable* says whether the variant's gate count had settled
        (the real ``optimize`` stopping rule).
        """
        raw = self._raw
        override = {}
        raw_readers = self._raw_readers
        for net in tied:
            for g in raw_readers.get(net, ()):
                if g.uid not in override:
                    override[g.uid] = (g.cell, tuple(
                        CONST0 if n in tied else n for n in g.inputs))
        extra = {}
        gone = set()
        po_v = [CONST0 if n in tied else n for n in raw.primary_outputs]
        prev_count = len(raw.gates)
        stable = False
        last = 0
        for rnum, rec in enumerate(self._journal.rounds):
            last = rnum
            for passname in ("cp", "inv", "sh"):
                idx = self._subst_index(rnum, passname)
                override, extra, gone, po_v = self._replay_subst(
                    passname, idx, override, extra, gone, po_v, cone)
            override, extra, gone, count_v = self._replay_dge(
                self._dge_index(rnum), rec, override, extra, gone, po_v,
                cone)
            if count_v == prev_count:
                stable = True
                break
            prev_count = count_v
        netlist = self._materialize(last, override, extra, gone, po_v)
        return netlist, stable, last + 1

    def _subst_index(self, rnum, passname):
        key = (rnum, passname)
        got = self._idx.get(key)
        if got is None:
            got = _SubstIndex(self._journal.rounds[rnum][passname],
                              self._raw_pos, sh=(passname == "sh"))
            self._idx[key] = got
        return got

    def _dge_index(self, rnum):
        key = (rnum, "dge")
        got = self._idx.get(key)
        if got is None:
            rec = self._journal.rounds[rnum]
            got = _DgeIndex(rec["dge"], rec["po"]["sh"])
            self._idx[key] = got
        return got

    # ------------------------------------------------------------------
    # substitution passes (constprop / inverter cleanup / strhash)
    # ------------------------------------------------------------------
    def _replay_subst(self, passname, idx, override, extra, gone, po_v,
                      cone):
        raw_pos = self._raw_pos
        uid_at = self._uid_at
        raw_out = self._raw_out
        library = self.library
        ents = idx.ents
        ents_get = ents.get
        one_step_get = idx.one_step.get
        rev_get = idx.rev.get
        readers_get = idx.readers.get
        override_get = override.get
        extra_get = extra.get
        step_memo = self._step_memo
        key_memo = self._key_memo
        is_cp = passname == "cp"
        is_sh = passname == "sh"
        heappush = heapq.heappush
        heappop = heapq.heappop

        # Seed positions: every gate whose state diverges from the base
        # (pushed positions are unique, so each pops exactly once).
        pushed = {raw_pos[uid] for uid in override}
        for uid in extra:
            pushed.add(raw_pos[uid])
        if is_sh:
            # A gone gate may have been a hash representative; its later
            # same-key contributors must re-elect one.
            key_of_get = idx.key_of.get
            key_positions = idx.key_positions
            for uid in gone:
                key = key_of_get(uid)
                if key is not None:
                    p0 = raw_pos[uid]
                    for q in key_positions[key]:
                        if q > p0:
                            pushed.add(q)
        heap = list(pushed)
        heapq.heapify(heap)

        def push(p):
            if p not in pushed:
                pushed.add(p)
                heappush(heap, p)

        vsub = {}        # out -> variant one-step target, or _KEEP
        vres = {}        # resolution memo (safe: chases strictly upstream)
        vstate = {}      # uid -> variant kept (cell, ins)
        vdropped = set()
        vclaims = {} if is_sh else None
        extra_out = {raw_out[uid]: uid for uid in extra}
        vsub_get = vsub.get
        vres_get = vres.get
        marked = set()

        def resolve(n):
            got = vres_get(n)
            if got is not None:
                return got
            chain = []
            cur = n
            while True:
                t = vsub_get(cur)
                if t is not None:
                    if t is _KEEP:
                        break
                    chain.append(cur)
                    cur = t
                    continue
                t = one_step_get(cur)
                if t is None:
                    break
                chain.append(cur)
                cur = t
            for m in chain:
                vres[m] = cur
            vres[n] = cur
            return cur

        def mark(n):
            # Every entry whose input-resolution chain passes through a
            # net in the reverse-substitution closure of *n* may decide
            # differently now; push them (always downstream of the
            # current position, so the ascending heap stays valid).
            # ``marked`` memoizes across calls — the closure and reader
            # index are static and pushes are idempotent.
            if n in marked:
                return
            stack = [n]
            while stack:
                m = stack.pop()
                if m in marked:
                    continue
                marked.add(m)
                for q in readers_get(m, ()):
                    push(q)
                rs = rev_get(m)
                if rs:
                    stack.extend(rs)

        cone_add = cone.add
        while heap:
            p = heappop(heap)
            uid = uid_at[p]
            if uid in gone:
                continue
            ent = ents_get(uid)
            st = override_get(uid) or extra_get(uid)
            if st is None:
                if ent is None:
                    continue  # stale mark: not in this pass's input
                st = (ent[2], ent[3])
            cone_add(uid)
            cell_v, ins_v = st
            out = raw_out[uid]
            ins_r = []
            for n in ins_v:
                r = vres_get(n)
                ins_r.append(r if r is not None else resolve(n))
            ins_r = tuple(ins_r)
            key_v = key_b = None

            if is_cp:
                mk = (cell_v, ins_r)
                outcome = step_memo.get(mk)
                if outcome is None:
                    step = _constprop_step(_cell_kind(cell_v),
                                           _cell_drive(cell_v), ins_r,
                                           library)
                    outcome = (("d", step[1]) if step[0] == "s"
                               else ("k", step[1], step[2]))
                    step_memo[mk] = outcome
            elif is_sh:
                mk = (cell_v, ins_r)
                key_v = key_memo.get(mk)
                if key_v is None:
                    key_v = key_memo[mk] = _hash_key(_cell_kind(cell_v),
                                                     ins_r)
                key_b = idx.key_of.get(uid)
                rep = self._sh_rep(idx, key_v, p, gone, vclaims, pushed)
                if rep is not None:
                    outcome = ("d", rep)
                else:
                    vclaims.setdefault(key_v, []).append((p, out))
                    outcome = ("k", cell_v, ins_r)
            else:  # inv
                kind = _cell_kind(cell_v)
                if kind == "BUF":
                    outcome = ("d", ins_r[0])
                elif kind == "INV":
                    target = self._inv_target(idx, ins_r[0], gone,
                                              extra_out, vstate, vdropped,
                                              resolve)
                    outcome = (("d", target) if target is not None
                               else ("k", cell_v, ins_r))
                else:
                    outcome = ("k", cell_v, ins_r)

            if outcome[0] == "d":
                target = outcome[1]
                vsub[out] = target
                vdropped.add(uid)
                base_target = (None if ent is None or ent[4] is not None
                               else (ent[5][0] if is_sh else ent[5]))
                diverged = base_target != target
            else:
                vsub[out] = _KEEP
                vstate[uid] = vst = (outcome[1], outcome[2])
                diverged = (ent is None or ent[4] is None
                            or ent[4] != vst[0] or ent[5] != vst[1])
            if diverged:
                mark(out)
            if is_sh and (diverged or key_v != key_b):
                # The representative election of both keys may shift for
                # everything downstream of this position.
                for key in (key_b, key_v):
                    if key is None:
                        continue
                    for q in idx.key_positions.get(key, ()):
                        if q > p:
                            push(q)

        new_override = {}
        new_extra = {}
        new_gone = set()
        for uid in gone:
            ent = ents_get(uid)
            if ent is not None and ent[4] is not None:
                new_gone.add(uid)
        for uid in vdropped:
            ent = ents_get(uid)
            if ent is not None and ent[4] is not None:
                new_gone.add(uid)
        for uid, st in vstate.items():
            ent = ents_get(uid)
            if ent is None or ent[4] is None:
                new_extra[uid] = st
            elif ent[4] != st[0] or ent[5] != st[1]:
                new_override[uid] = st
        return (new_override, new_extra, new_gone,
                [resolve(n) for n in po_v])

    def _inv_target(self, idx, d_net, gone, extra_out, vstate, vdropped,
                    resolve):
        """Collapse target of an INV reading *d_net*, or None to keep.

        Mirrors the real pass: look at the variant driver's post-pass
        state; a driver that is itself an INV collapses the pair.
        """
        duid = extra_out.get(d_net)
        if duid is None:
            duid = idx.drv.get(d_net)
        if duid is None or duid in gone or duid in vdropped:
            return None
        st = vstate.get(duid)
        if st is None:
            ent = idx.ents.get(duid)
            if ent is None or ent[4] is None:
                return None
            st = (ent[4], ent[5])
        if _cell_kind(st[0]) != "INV":
            return None
        return resolve(st[1][0])

    def _sh_rep(self, idx, key, p, gone, vclaims, pushed):
        """Variant hash representative for *key* upstream of position *p*.

        Candidates: the base representative (first base position of the
        key), valid while clean (never pushed for reprocessing — pushes
        at positions below *p* have all been processed by now) and
        present in the variant, merged with every processed variant
        claim; the earliest wins, exactly like the real pass's
        first-seen rule.
        """
        best_pos = None
        best_out = None
        plist = idx.key_positions.get(key)
        if plist:
            p0 = plist[0]
            if (p0 < p and p0 not in pushed
                    and self._uid_at[p0] not in gone):
                best_pos = p0
                best_out = self._raw_out[self._uid_at[p0]]
        for q, o in vclaims.get(key, ()):
            if q < p and (best_pos is None or q < best_pos):
                best_pos = q
                best_out = o
        return best_out

    # ------------------------------------------------------------------
    # dead-gate elimination
    # ------------------------------------------------------------------
    def _replay_dge(self, idx, rec, override, extra, gone, po_v, cone):
        raw_pos = self._raw_pos
        uid_at = self._uid_at
        raw_out = self._raw_out
        ents = idx.ents
        ents_get = ents.get
        override_get = override.get
        extra_get = extra.get
        rc = idx.rc
        rc_get = rc.get
        drv_get = idx.drv.get
        heappush = heapq.heappush
        heappop = heapq.heappop

        heap = []  # max-heap (negated): liveness flows output-to-input
        pushed = set()
        delta = {}
        delta_get = delta.get
        extra_out = {raw_out[u]: u for u in extra}
        extra_out_get = extra_out.get

        def bump(net, d):
            old = delta_get(net, 0)
            delta[net] = old + d
            base = rc_get(net, 0)
            if (base + old > 0) != (base + old + d > 0):
                duid = extra_out_get(net)
                if duid is None:
                    duid = drv_get(net)
                if duid is not None and duid not in gone:
                    p = raw_pos[duid]
                    if p not in pushed:
                        pushed.add(p)
                        heappush(heap, -p)

        for uid in override:
            pushed.add(raw_pos[uid])
        for uid in extra:
            pushed.add(raw_pos[uid])
        for uid in gone:
            if uid in ents:
                pushed.add(raw_pos[uid])
        heap.extend(-p for p in pushed)
        heapq.heapify(heap)
        pdiff = {}
        for net in po_v:
            pdiff[net] = pdiff.get(net, 0) + 1
        for net in rec["po"]["sh"]:
            pdiff[net] = pdiff.get(net, 0) - 1
        for net, d in pdiff.items():
            if d:
                bump(net, d)

        new_override = {}
        new_extra = {}
        new_gone = set()
        cone_add = cone.add
        while heap:
            p = -heappop(heap)
            uid = uid_at[p]
            ent = ents_get(uid)
            if uid in gone:
                if ent is not None and ent[4]:
                    new_gone.add(uid)
                    rm = {}
                    for net in ent[3]:
                        rm[net] = rm.get(net, 0) + 1
                    for net, m in rm.items():
                        bump(net, -m)
                continue
            st = override_get(uid) or extra_get(uid)
            if st is None:
                if ent is None:
                    continue
                st = (ent[2], ent[3])
            cone_add(uid)
            out = raw_out[uid]
            # Readers of *out* sit at higher positions, all settled by
            # now, so the refcount (hence liveness) is final.
            live_v = rc_get(out, 0) + delta_get(out, 0) > 0
            live_b = ent is not None and bool(ent[4])
            # Read-count diff between the variant's and the base's
            # contribution of this gate.
            if live_v != live_b or st[1] is not (ent[3] if ent is not None
                                                 else None):
                d = {}
                d_get = d.get
                if live_v:
                    for net in st[1]:
                        d[net] = d_get(net, 0) + 1
                if live_b:
                    for net in ent[3]:
                        d[net] = d_get(net, 0) - 1
                for net, dv in d.items():
                    if dv:
                        bump(net, dv)
            if live_v:
                if not live_b:
                    new_extra[uid] = st
                elif st[0] != ent[2] or st[1] != ent[3]:
                    new_override[uid] = st
            elif live_b:
                new_gone.add(uid)
        count_v = idx.kept_count - len(new_gone) + len(new_extra)
        return new_override, new_extra, new_gone, count_v

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def _materialize(self, rnum, override, extra, gone, po_v):
        """Variant netlist after the last replayed round.

        Merges the base round's post-DGE survivors (minus *gone*, states
        overridden where diverged) with the variant-only *extra* gates,
        ordered by raw position — the same relative order every real
        pass preserves, so the list is topological by construction.
        """
        raw = self._raw
        raw_pos = self._raw_pos
        entries = self._journal.rounds[rnum]["dge"]
        extras = sorted(extra.items(), key=lambda kv: raw_pos[kv[0]])
        gates = []
        ei = 0

        def emit_extra(xu, xst):
            gates.append(Gate(uid=xu, cell=xst[0], inputs=tuple(xst[1]),
                              output=self._raw_out[xu],
                              name=self._raw_name[xu]))

        for e in entries:
            p = raw_pos[e[0]]
            while ei < len(extras) and raw_pos[extras[ei][0]] < p:
                emit_extra(*extras[ei])
                ei += 1
            if not e[4] or e[0] in gone:
                continue
            st = override.get(e[0])
            cell, ins = st if st is not None else (e[2], e[3])
            gates.append(Gate(uid=e[0], cell=cell, inputs=tuple(ins),
                              output=e[1], name=self._raw_name[e[0]]))
        while ei < len(extras):
            emit_extra(*extras[ei])
            ei += 1

        nl = Netlist(raw.name)
        nl._next_net = raw._next_net
        nl._next_gate_uid = raw._next_gate_uid
        nl.net_names = dict(raw.net_names)
        nl.primary_inputs = list(raw.primary_inputs)
        nl.primary_outputs = list(po_v)
        nl.gates = gates
        nl._driver = {g.output: g for g in gates}
        if len(nl._driver) != len(gates):
            raise SweepFallback("materialized netlist multiply drives "
                                "a net")
        nl._topo_cache = list(gates)
        return nl


# ---------------------------------------------------------------------------
# per-process memo
# ---------------------------------------------------------------------------

#: A sweep holds one base netlist + journal per (component, effort,
#: target, library); a characterization run touches a handful.
_SWEEP_MEMO_LIMIT = 4
_sweep_memo = {}

#: Hardened baselines kept per base (a flow hardens each block for one
#: scenario, target and area budget).
_HARDENED_LIMIT = 4


def _sweep_key(component, library, effort, target_ps):
    from ..core.cache import component_fingerprint, library_fingerprint

    return (component_fingerprint(component), effort, repr(target_ps),
            library_fingerprint(library))


def sweep_for(component, library, effort="ultra", target_ps=None):
    """Shared :class:`SweepSynthesis` for *component*'s family sweep.

    Memoized per process on the full-precision component content, so
    every precision point of a sweep (and repeated sweeps over the same
    component) reuses one base synthesis and journal. This is the
    process's one in-memory synthesis memo; when full, the least
    recently used sweep is evicted (``synth.sweep.base_memo_evictions``).
    """
    base = (component if component.precision == component.width
            else component.with_precision(component.width))
    key = _sweep_key(base, library, effort, target_ps)
    got = _sweep_memo.pop(key, None)
    if got is not None:
        obs_metrics.inc(obs_metrics.SYNTH_SWEEP_BASE_MEMO_HITS)
    else:
        if len(_sweep_memo) >= _SWEEP_MEMO_LIMIT:
            _sweep_memo.pop(next(iter(_sweep_memo)))
            obs_metrics.inc(obs_metrics.SYNTH_SWEEP_BASE_MEMO_EVICTIONS)
        got = SweepSynthesis(base, library, effort=effort,
                             target_ps=target_ps)
    _sweep_memo[key] = got      # most recently used last
    return got


def clear_sweep_memo():
    """Drop every memoized sweep (mainly for tests)."""
    _sweep_memo.clear()


def synthesize_variant(component, precision, library, effort="ultra",
                       target_ps=None):
    """Sweep-derive one truncated characterization point.

    Drop-in equivalent of ``synthesize(component.with_precision(
    precision), library, effort, target_ps)`` — bit-identical result,
    incremental cost.
    """
    return sweep_for(component, library, effort=effort,
                     target_ps=target_ps).derive(precision)


def memoized_base(source, library, rounds):
    """The memoized sweep base whose optimization of *source* ran
    *rounds* rounds, or None: *source* is a raw netlist or a truncated
    component, or no such base is in the memo."""
    if not (hasattr(source, "_build_core")
            and source.precision == source.width):
        return None
    for effort, (r, __) in EFFORTS.items():
        if r == rounds:
            got = _sweep_memo.get(_sweep_key(source, library, effort, None))
            if got is not None:
                return got
    return None
