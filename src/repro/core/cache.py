"""Content-addressed on-disk cache for characterization results.

Characterizing one ``(component, precision)`` point means a full
synthesis run plus one aging-aware STA per scenario — seconds of work
that is bit-identical every time because the whole flow is
deterministic. This module keys each point by a **stable fingerprint**
of everything the result depends on:

* the component spec (class, family, width, precision),
* the synthesis effort,
* the cell-library contents (every cell's electrical parameters, plus
  the library-level load/voltage settings),
* the BTI model parameters and the optional degradation-aware library,
* the aging-scenario parameters (lifetime, stress annotation — for
  actual-case specs, a digest of the stimulus operand streams).

Entries store the :class:`~repro.synth.synthesize.SynthesisResult`
headline metrics and the per-scenario aged delays as JSON — *not* the
netlist — so a warm cache answers a repeated ``characterize()`` without
synthesizing anything. Changing any fingerprinted input (a cell's
drive resistance, the BTI prefactor, the effort knob ...) changes the
key and transparently invalidates the entry. Corrupted or truncated
entry files are treated as misses and discarded.

An **ambient cache** (configured with :func:`set_cache`, the
``REPRO_CACHE_DIR`` environment variable, or the CLI ``--cache-dir``
flag) is picked up by :func:`~repro.core.characterize.characterize`
and everything built on it, so deep flows hit the cache without
plumbing a handle through every call.

A second, in-process layer — :func:`synthesize_netlist_memoized`,
served by the sweep-synthesis memo (:func:`repro.synth.sweep.sweep_for`,
keyed by the same content fingerprints) — shares synthesized *netlists*
with consumers that need the gate-level structure itself (e.g.
``Block.synthesized``), where a metrics-only disk entry cannot help.
"""

import collections
import dataclasses
import hashlib
import json
import os
import weakref
from contextlib import contextmanager

import numpy as np

from ..obs import logs, metrics as obs_metrics, trace as obs_trace

_log = logs.get_logger("core.cache")

#: Bump when the entry layout changes; old entries become misses.
CACHE_SCHEMA = 1

#: Environment variable naming the ambient cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable capping the in-memory read-through tier.
MEM_ENTRIES_ENV = "REPRO_CACHE_MEM_ENTRIES"

#: Default in-memory tier capacity (entries are ~1-2 KiB of parsed JSON,
#: so the default tier tops out around half a megabyte).
DEFAULT_MEM_ENTRIES = 256


def resolve_mem_entries(mem_entries=None):
    """Normalize a memory-tier capacity; None defers to the env var."""
    if mem_entries is None:
        raw = os.environ.get(MEM_ENTRIES_ENV, "").strip()
        if not raw:
            return DEFAULT_MEM_ENTRIES
        try:
            mem_entries = int(raw)
        except ValueError:
            raise ValueError("%s must be an integer, got %r"
                             % (MEM_ENTRIES_ENV, raw))
    mem_entries = int(mem_entries)
    if mem_entries < 0:
        raise ValueError("mem_entries must be >= 0, got %d" % mem_entries)
    return mem_entries


def shard_index(key, shards):
    """Deterministic shard of *key* (a hex digest) among *shards* dirs."""
    return int(key[:8], 16) % shards


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------

def _canonical(obj):
    """Reduce *obj* to a canonical JSON-serializable structure."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items(),
                                                         key=lambda i: str(i[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return {"__ndarray__": hashlib.sha256(arr.tobytes()).hexdigest(),
                "dtype": str(arr.dtype), "shape": list(arr.shape)}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError("cannot fingerprint %r of type %s" % (obj, type(obj)))


def fingerprint(payload):
    """SHA-256 hex digest of the canonical JSON form of *payload*."""
    text = json.dumps(_canonical(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def library_fingerprint(library):
    """Content fingerprint of a cell library.

    Covers every cell's electrical parameters and the library-level
    load/voltage settings; cached on the library instance (libraries are
    built once and never mutated in this codebase).
    """
    cached = library.__dict__.get("_content_fingerprint")
    if cached is not None:
        return cached
    cells = []
    for cell in sorted(library, key=lambda c: c.name):
        cells.append({
            "name": cell.name, "kind": cell.kind, "drive": cell.drive,
            "n_inputs": cell.n_inputs, "area": cell.area,
            "leakage_nw": cell.leakage_nw,
            "input_cap_ff": cell.input_cap_ff,
            "intrinsic_ps": cell.intrinsic_ps, "drive_res": cell.drive_res,
            "wp": cell.wp, "wn": cell.wn,
        })
    fp = fingerprint({
        "name": library.name,
        "output_load_ff": library.output_load_ff,
        "wire_cap_ff": library.wire_cap_ff,
        "vdd": library.vdd, "vth": library.vth,
        "cells": cells,
    })
    library.__dict__["_content_fingerprint"] = fp
    return fp


def library_memo_key(library):
    """Key of *library* in the per-netlist compile memo.

    A :class:`~repro.cells.library.CellLibrary` is keyed by its content
    fingerprint, so equal libraries (such as the copy each pool task
    unpickles) share the programs compiled or seeded under either. A
    stand-in that is not a library is keyed by weak reference (the
    lowering's cell table holds it weakly too, so it must allow one).
    """
    from ..cells.library import CellLibrary

    if isinstance(library, CellLibrary):
        return library_fingerprint(library)
    return weakref.ref(library)


def compile_token(netlist, library):
    """Content token of *netlist* under *library* in the compile memo
    (:func:`repro.sta.engine.compile_timing`, whose program
    :func:`repro.sim.logic.compile_netlist` also reads): the library's
    memo key,
    the PI/PO orders and every gate's cell, pins and output, so any
    mutation, including in-place ``gate.cell`` edits, recompiles. A
    read-only netlist (:meth:`~repro.netlist.netlist.Netlist.freeze`,
    every synthesized one) carries its token, computed once."""
    token = getattr(netlist, "_token", None)
    if token is not None:
        return (library_memo_key(library), token)
    return (library_memo_key(library), tuple(netlist.primary_inputs),
            tuple(netlist.primary_outputs),
            tuple((g.cell, g.inputs, g.output) for g in netlist.gates))


def bti_fingerprint(bti):
    """Fingerprint of a :class:`~repro.aging.bti.BTIModel`."""
    return fingerprint(dataclasses.asdict(bti))


def degradation_fingerprint(degradation):
    """Fingerprint of an optional degradation-aware library."""
    if degradation is None:
        return "none"
    return fingerprint({
        "lifetimes": list(degradation.lifetimes),
        "bti": bti_fingerprint(degradation.bti),
        "library": library_fingerprint(degradation.library),
    })


def netlist_fingerprint(netlist):
    """Content fingerprint of a gate-level netlist.

    Covers the design name, the primary input/output net lists and every
    gate's ``(uid, cell, inputs, output)`` in gate-list order. Net
    *names* are display metadata and excluded, so two structurally
    identical netlists fingerprint equal however they were produced —
    the identity :mod:`repro.verify` checks between scratch synthesis
    and :mod:`repro.synth.sweep` derivation.
    """
    return fingerprint({
        "name": netlist.name,
        "inputs": list(netlist.primary_inputs),
        "outputs": list(netlist.primary_outputs),
        "gates": [[g.uid, g.cell, list(g.inputs), g.output]
                  for g in netlist.gates],
    })


def component_fingerprint(component, precision=None):
    """Fingerprint of a component spec at *precision* (default: its own)."""
    return fingerprint({
        "class": "%s.%s" % (type(component).__module__,
                            type(component).__qualname__),
        "family": component.family,
        "width": component.width,
        "precision": component.precision if precision is None else precision,
    })


def scenario_fingerprint(spec):
    """Fingerprint of a scenario / actual-case spec's *parameters*.

    Combined with the point key (which pins the component variant), this
    uniquely determines one aged delay: an
    :class:`~repro.core.characterize.ActualCaseSpec` is fingerprinted by
    its stimulus operand streams, and the stress extracted from them on
    a fixed variant is deterministic.
    """
    # Import here: characterize imports this module at its own top level.
    from .characterize import ActualCaseSpec
    from ..aging.stress import ActualStress, UniformStress

    if isinstance(spec, ActualCaseSpec):
        return fingerprint({
            "kind": "actual_case", "years": spec.years, "label": spec.label,
            "operands": [np.asarray(op) for op in spec.operands],
        })
    stress = spec.stress
    if isinstance(stress, UniformStress):
        return fingerprint({"kind": "uniform", "years": spec.years,
                            "s": stress.s, "label": stress.label})
    if isinstance(stress, ActualStress):
        per_gate = sorted((int(uid), list(sn)) for uid, sn
                          in stress.per_gate.items())
        return fingerprint({"kind": "actual", "years": spec.years,
                            "label": stress.label,
                            "default": list(stress.default),
                            "per_gate": per_gate})
    raise TypeError("cannot fingerprint scenario %r" % (spec,))


def point_key(component, precision, effort, library, bti, degradation):
    """Cache key of one ``(component, precision)`` characterization point."""
    return fingerprint({
        "schema": CACHE_SCHEMA,
        "component": component_fingerprint(component, precision),
        "effort": effort,
        "library": library_fingerprint(library),
        "bti": bti_fingerprint(bti),
        "degradation": degradation_fingerprint(degradation),
    })


# ---------------------------------------------------------------------------
# the on-disk store
# ---------------------------------------------------------------------------

#: Metric fields every entry must carry to count as a hit.
METRIC_FIELDS = ("delay_ps", "area_um2", "leakage_nw", "gates", "depth")


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`CharacterizationCache`.

    ``hits`` counts every successful load; ``mem_hits`` is the subset
    answered by the in-memory tier without touching disk.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0
    mem_hits: int = 0
    mem_evictions: int = 0

    def merge(self, other):
        """Fold another stats record (or its dict form) into this one."""
        if isinstance(other, dict):
            other = CacheStats(**other)
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.errors += other.errors
        self.mem_hits += other.mem_hits
        self.mem_evictions += other.mem_evictions
        return self

    def as_dict(self):
        return dataclasses.asdict(self)


class CharacterizationCache:
    """Content-addressed multi-tier JSON store of characterization points.

    Layout: ``<root>/<key[:2]>/<key>.json`` — one file per point, whose
    ``metrics`` dict holds the synthesis headline numbers and whose
    ``aged`` dict maps scenario fingerprints to ``{"label", "delay_ps"}``
    records. With ``shards=N`` the layout gains a shard level
    (``<root>/shard-<i>/<key[:2]>/...``, *i* derived from the key
    digest) so heavy concurrent writers — the serving layer's worker
    pool — spread across N directories instead of contending on one
    tree. Writes are atomic (temp file + ``os.replace``) so a crashed
    or concurrent run never leaves a torn entry; unreadable entries are
    quarantined (renamed aside to ``*.corrupt``) and treated as misses.

    A bounded in-memory LRU tier (``mem_entries``, default from
    ``REPRO_CACHE_MEM_ENTRIES`` else :data:`DEFAULT_MEM_ENTRIES`;
    0 disables it) sits in front of the disk tier: repeated warm loads
    skip the read-and-parse entirely. Loaded entries are shared between
    the tier and callers — treat them as read-only.
    """

    def __init__(self, root, shards=0, mem_entries=None):
        self.root = os.fspath(root)
        self.shards = int(shards)
        if self.shards < 0:
            raise ValueError("shards must be >= 0, got %d" % self.shards)
        self.mem_entries = resolve_mem_entries(mem_entries)
        self.stats = CacheStats()
        self._mem = collections.OrderedDict()
        self._suppress_metrics = False

    def _path(self, key):
        parts = [self.root]
        if self.shards:
            parts.append("shard-%02d" % shard_index(key, self.shards))
        parts.extend((key[:2], key + ".json"))
        return os.path.join(*parts)

    def _emit(self, name, n=1):
        """Emit to the ambient metrics registry (unless peeking)."""
        if not self._suppress_metrics:
            obs_metrics.inc(name, n)

    # -- in-memory tier ----------------------------------------------------
    def _mem_get(self, key):
        entry = self._mem.get(key)
        if entry is not None:
            self._mem.move_to_end(key)
        return entry

    def _mem_put(self, key, entry):
        if self.mem_entries <= 0:
            return
        self._mem[key] = entry
        self._mem.move_to_end(key)
        while len(self._mem) > self.mem_entries:
            self._mem.popitem(last=False)
            self.stats.mem_evictions += 1
            self._emit(obs_metrics.CACHE_MEM_EVICTIONS)

    def _mem_drop(self, key):
        self._mem.pop(key, None)

    def load(self, key):
        """Return the entry stored under *key*, or None (recording a miss)."""
        entry, __source = self.load_with_source(key)
        return entry

    def load_with_source(self, key, require=None):
        """Like :meth:`load` but also says which tier answered.

        Returns ``(entry, "mem"|"disk")`` on a hit, ``(None, None)`` on
        a miss. The serving layer uses the source to report tier hit
        ratios.

        *require* is an optional iterable of scenario fingerprints: a
        memory-tier entry missing any of them is treated as stale and
        re-read from disk, because out-of-process writers (the serving
        pool, concurrent CLI runs) extend entries the in-memory copy
        never sees. Without the fall-through, a repeat query for a
        newly stored scenario would recompute forever behind a stale
        memory hit.
        """
        entry = self._mem_get(key)
        if entry is not None:
            required = list(require or ())
            if all(fp in entry["aged"] for fp in required):
                self.stats.hits += 1
                self.stats.mem_hits += 1
                self._emit(obs_metrics.CACHE_HITS)
                self._emit(obs_metrics.CACHE_MEM_HITS)
                return entry, "mem"
        entry = self._load_disk(key)
        if entry is None:
            return None, None
        self._mem_put(key, entry)
        return entry, "disk"

    def refresh(self, key):
        """Re-read *key* from disk into the memory tier, quietly.

        Used after an out-of-process store (a serving-pool worker wrote
        the entry) to make the new scenarios visible to the memory tier
        without waiting for it to age out. No hit/miss accounting: this
        is tier maintenance, not a query. Returns the entry or None.
        """
        entry = self.peek(key)
        if entry is None:
            self._mem_drop(key)
        else:
            self._mem_put(key, entry)
        return entry

    def _load_disk(self, key):
        """Disk-tier load: the entry under *key*, or None (a miss).

        A corrupted entry (bad JSON, wrong schema, missing fields) is
        quarantined — renamed aside to ``<entry>.corrupt`` — so repeated
        loads don't re-parse a known-bad file and the follow-up store
        starts clean, while the bytes survive for post-mortems.
        """
        path = self._path(key)
        try:
            with open(path) as handle:
                text = handle.read()
            entry = json.loads(text)
            if (entry.get("schema") != CACHE_SCHEMA
                    or not isinstance(entry.get("metrics"), dict)
                    or not isinstance(entry.get("aged"), dict)
                    or any(f not in entry["metrics"]
                           for f in METRIC_FIELDS)):
                raise ValueError("malformed cache entry")
        except FileNotFoundError:
            self.stats.misses += 1
            self._emit(obs_metrics.CACHE_MISSES)
            return None
        except (OSError, ValueError) as exc:
            self.stats.errors += 1
            self.stats.misses += 1
            self._emit(obs_metrics.CACHE_ERRORS)
            self._emit(obs_metrics.CACHE_MISSES)
            _log.warning("quarantining corrupt cache entry %s (%s)",
                         path, exc)
            try:
                os.replace(path, path + ".corrupt")
            except OSError:
                pass
            return None
        self.stats.hits += 1
        self._emit(obs_metrics.CACHE_HITS)
        self._emit(obs_metrics.CACHE_BYTES_READ, len(text))
        _log.debug("cache hit %s (%d bytes)", key[:12], len(text))
        return entry

    def peek(self, key):
        """Disk-tier :meth:`load` without touching the hit/miss counters.

        Bypasses the memory tier: :meth:`store` merges over *peek*'s
        result, and the merge base must be the on-disk truth so a
        concurrent writer's scenarios are never clobbered by a stale
        in-memory copy.
        """
        stats = dataclasses.replace(self.stats)
        self._suppress_metrics = True
        try:
            entry = self._load_disk(key)
        finally:
            self._suppress_metrics = False
        self.stats = stats
        return entry

    def store(self, key, metrics, aged, meta=None):
        """Write (or extend) the entry under *key* atomically.

        Parameters
        ----------
        metrics:
            Dict with at least :data:`METRIC_FIELDS`.
        aged:
            Map scenario fingerprint -> ``{"label", "delay_ps"}``; merged
            over whatever the existing entry already holds.
        meta:
            Optional human-readable context (component name, precision,
            effort) stored alongside for debuggability.
        """
        entry = self.peek(key)
        if entry is None:
            entry = {"schema": CACHE_SCHEMA, "metrics": dict(metrics),
                     "aged": {}, "meta": dict(meta or {})}
        else:
            entry["metrics"] = dict(metrics)
            if meta:
                entry.setdefault("meta", {}).update(meta)
        entry["aged"].update(aged)
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp.%d" % os.getpid()
        text = json.dumps(entry)
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
        self._mem_put(key, entry)
        self.stats.stores += 1
        self._emit(obs_metrics.CACHE_STORES)
        self._emit(obs_metrics.CACHE_BYTES_WRITTEN, len(text))
        _log.debug("cache store %s (%d bytes, %d scenarios)",
                   key[:12], len(text), len(entry["aged"]))
        return entry

    def __repr__(self):
        return "CharacterizationCache(%r, shards=%d, mem=%d/%d, %r)" % (
            self.root, self.shards, len(self._mem), self.mem_entries,
            self.stats)


# ---------------------------------------------------------------------------
# ambient cache configuration
# ---------------------------------------------------------------------------

#: Sentinel: "use the ambient cache" (module default for ``cache=`` params).
AMBIENT = object()

_configured = AMBIENT          # AMBIENT means "fall back to the env var"
_env_caches = {}               # cache dir -> CharacterizationCache


def get_cache():
    """Return the ambient cache, or None when caching is disabled.

    Resolution order: an explicit :func:`set_cache` configuration wins;
    otherwise ``REPRO_CACHE_DIR`` names the directory; otherwise caching
    is off.
    """
    if _configured is not AMBIENT:
        return _configured
    root = os.environ.get(CACHE_DIR_ENV)
    if not root:
        return None
    if root not in _env_caches:
        _env_caches[root] = CharacterizationCache(root)
    return _env_caches[root]


def set_cache(cache):
    """Configure the ambient cache; returns the previous configuration.

    Accepts a :class:`CharacterizationCache`, a directory path, None
    (disable caching) or :data:`AMBIENT` (defer to ``REPRO_CACHE_DIR``).
    """
    global _configured
    previous = _configured
    if cache is None or cache is AMBIENT \
            or isinstance(cache, CharacterizationCache):
        _configured = cache
    else:
        _configured = CharacterizationCache(cache)
    return previous


@contextmanager
def cache_enabled(cache):
    """Scoped :func:`set_cache`: yields the active cache, then restores."""
    previous = set_cache(cache)
    try:
        yield get_cache()
    finally:
        set_cache(previous)


def resolve_cache(cache):
    """Normalize a ``cache=`` argument to an instance or None."""
    if cache is AMBIENT:
        return get_cache()
    if cache is None or isinstance(cache, CharacterizationCache):
        return cache
    return CharacterizationCache(cache)


# ---------------------------------------------------------------------------
# in-process synthesized netlists
# ---------------------------------------------------------------------------

def synthesize_netlist_memoized(component, library, effort="ultra"):
    """Synthesized netlist of *component*, shared within the process.

    Served by the process's one synthesis memo: the component family's
    :func:`repro.synth.sweep.sweep_for` base, derived to the
    component's precision (bit-identical to scratch synthesis). It is
    the in-memory complement of the on-disk metrics cache for callers
    that need the gate-level structure (lazy ``Block.synthesized``,
    repeated flow validations, timing grids). Callers must treat
    the result as read-only.
    """
    from ..synth.sweep import sweep_for

    with obs_trace.span("synthesize"):
        return sweep_for(component, library, effort=effort).derive(
            component.precision).netlist
