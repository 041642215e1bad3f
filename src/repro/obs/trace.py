"""Hierarchical tracing with ambient, contextvars-based propagation.

A :class:`Span` is one timed region with a name and free-form
attributes (component, precision, scenario, cache hit/miss ...); spans
nest into trees under a :class:`Tracer`. Propagation is *ambient*: the
active ``(tracer, span)`` pair lives in a :mod:`contextvars` context
variable, so deeply nested flows record into one trace without
threading a handle through every signature, and concurrent contexts
(threads via :func:`wrap`, asyncio tasks natively) never corrupt each
other's span stack.

Tracing is **off by default** — :func:`span` is a near-free no-op until
a :func:`capture` scope activates a tracer — so instrumented hot paths
cost nothing in normal library use.

Process-pool workers cannot share the parent's context. The supported
pattern (:func:`repro.core.parallel.traced` / ``absorb``) is: the
worker opens its own :func:`capture`, runs, and ships
``tracer.to_dicts()`` home with its result; the parent calls
:func:`adopt` while its submitting span is still open, re-parenting the
worker trees under it. Wall-clock starts
(``time.time``) make worker timestamps comparable across processes.

Beyond process pools, spans carry **distributed trace identities**:
every span has a ``trace_id`` (shared by the whole request tree, across
processes and hosts) and a ``span_id``, plus a ``parent_id`` link. A
remote hop — an HTTP request to :mod:`repro.serve`, a task dict shipped
to a pool worker — forwards ``(trace_id, span_id)`` as a **propagation
context** (:func:`propagation_context`, the ``X-Repro-Trace`` header's
payload); the receiving side re-enters it with :func:`propagated`, so
its root spans become children of the remote caller and one
client-issued query yields a single connected span tree stitched from
every process that touched it.

Export formats:

* :meth:`Tracer.write_chrome` — Chrome trace format JSON, loadable in
  ``chrome://tracing`` and https://ui.perfetto.dev;
* :meth:`Tracer.write_jsonl` — one flat JSON object per span with
  ``depth``/``parent`` fields, greppable and stream-parseable.
"""

import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager

#: Bump when the serialized span layout changes. 2 added the
#: ``trace_id``/``span_id``/``parent_id`` identity fields (schema-1
#: trees still load: identities are regenerated on adoption).
TRACE_SCHEMA = 2


def new_id():
    """A fresh 16-hex-digit trace/span identifier."""
    return os.urandom(8).hex()


class Span:
    """One timed, named, attributed region of a trace tree."""

    __slots__ = ("name", "attrs", "t0", "dur", "pid", "tid", "children",
                 "trace_id", "span_id", "parent_id")

    def __init__(self, name, attrs=None, t0=None, dur=0.0, pid=None,
                 tid=None, children=None, trace_id=None, span_id=None,
                 parent_id=None):
        self.name = name
        self.attrs = dict(attrs or {})
        self.t0 = time.time() if t0 is None else t0
        self.dur = dur
        self.pid = os.getpid() if pid is None else pid
        self.tid = threading.get_ident() if tid is None else tid
        self.children = list(children or [])
        self.span_id = span_id if span_id is not None else new_id()
        self.trace_id = trace_id if trace_id is not None else self.span_id
        self.parent_id = parent_id

    def to_dict(self):
        """JSON-serializable tree — the worker -> parent wire format."""
        return {"name": self.name, "attrs": self.attrs, "t0": self.t0,
                "dur": self.dur, "pid": self.pid, "tid": self.tid,
                "trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id,
                "children": [c.to_dict() for c in self.children]}

    @classmethod
    def from_dict(cls, data):
        return cls(name=data["name"], attrs=data.get("attrs"),
                   t0=data["t0"], dur=data.get("dur", 0.0),
                   pid=data.get("pid"), tid=data.get("tid"),
                   trace_id=data.get("trace_id"),
                   span_id=data.get("span_id"),
                   parent_id=data.get("parent_id"),
                   children=[cls.from_dict(c)
                             for c in data.get("children", ())])

    def link_children(self):
        """Stamp this subtree's parent/trace links from its structure.

        Children lacking an explicit identity inherit this span's
        ``trace_id`` and point their ``parent_id`` here — used when
        adopting schema-1 trees that predate span identities.
        """
        for child in self.children:
            if child.parent_id is None:
                child.parent_id = self.span_id
            if child.trace_id == child.span_id:
                child.trace_id = self.trace_id
            child.link_children()

    def walk(self, depth=0, parent=None):
        """Yield ``(span, depth, parent)`` over this subtree, pre-order."""
        yield self, depth, parent
        for child in self.children:
            yield from child.walk(depth + 1, self)

    def __repr__(self):
        return "Span(%r, %.3fms, %d children)" % (
            self.name, self.dur * 1e3, len(self.children))


class Tracer:
    """Collects root spans; the unit that is captured, shipped, merged."""

    def __init__(self):
        self.roots = []

    def add_root(self, span):
        self.roots.append(span)

    def walk(self):
        """Yield ``(span, depth, parent)`` over every tree, pre-order."""
        for root in self.roots:
            yield from root.walk()

    def __len__(self):
        return sum(1 for __ in self.walk())

    # -- wire format -------------------------------------------------------
    def to_dicts(self):
        """Serialize every root tree (the process-pool wire format)."""
        return [root.to_dict() for root in self.roots]

    def adopt(self, trees, parent=None):
        """Attach serialized span *trees* under *parent* (or as roots).

        Adopted roots that were not produced under a propagated context
        (no ``parent_id`` of their own) are stitched into *parent*'s
        trace: they inherit its ``trace_id`` and point their
        ``parent_id`` at it. Roots that already carry a remote identity
        (the worker ran inside :func:`propagated`) keep it — their links
        already name the right parent.
        """
        spans = [Span.from_dict(tree) for tree in trees]
        for span_ in spans:
            if parent is not None and span_.parent_id is None:
                span_.parent_id = parent.span_id
                span_.trace_id = parent.trace_id
            span_.link_children()
        if parent is None:
            self.roots.extend(spans)
        else:
            parent.children.extend(spans)
        return spans

    def totals(self):
        """Aggregate ``{span name: {"calls", "seconds", "self_seconds"}}``.

        ``seconds`` sums each span's duration; ``self_seconds`` sums its
        duration minus its children's, so over all names the self times
        add up to the root spans' wall time. Children that ran
        concurrently (adopted pool workers) can outlast their parent;
        self time is clamped at zero then.
        """
        out = {}
        for span_, __depth, __parent in self.walk():
            entry = out.setdefault(span_.name, {
                "calls": 0, "seconds": 0.0, "self_seconds": 0.0})
            entry["calls"] += 1
            entry["seconds"] += span_.dur
            entry["self_seconds"] += max(
                0.0, span_.dur - sum(c.dur for c in span_.children))
        return out

    # -- Chrome trace format -----------------------------------------------
    def chrome_events(self):
        """Flatten into Chrome-trace ``X`` (+ ``M`` metadata) events.

        Timestamps are microseconds relative to the earliest span, so
        they are non-negative and monotonically sorted; durations are
        clamped non-negative.
        """
        spans = [s for s, __d, __p in self.walk()]
        if not spans:
            return []
        base = min(s.t0 for s in spans)
        root_pid = os.getpid()
        events = []
        for pid in sorted({s.pid for s in spans}):
            label = ("repro" if pid == root_pid
                     else "repro worker %d" % pid)
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": label}})
        timed = []
        for s in spans:
            args = dict(s.attrs)
            args["trace_id"] = s.trace_id
            args["span_id"] = s.span_id
            if s.parent_id is not None:
                args["parent_id"] = s.parent_id
            timed.append({
                "name": s.name, "cat": "repro", "ph": "X",
                "ts": max(0.0, (s.t0 - base) * 1e6),
                "dur": max(0.0, s.dur * 1e6),
                "pid": s.pid, "tid": s.tid, "args": args,
            })
        timed.sort(key=lambda e: e["ts"])
        return events + timed

    def write_chrome(self, path):
        """Write a ``chrome://tracing`` / Perfetto-loadable JSON file."""
        payload = {"traceEvents": self.chrome_events(),
                   "displayTimeUnit": "ms",
                   "otherData": {"schema": TRACE_SCHEMA,
                                 "producer": "repro.obs"}}
        with open(path, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")

    # -- JSONL -------------------------------------------------------------
    def write_jsonl(self, path):
        """Write one flat JSON object per span (pre-order, depth-tagged)."""
        with open(path, "w") as handle:
            for span_, depth, parent in self.walk():
                handle.write(json.dumps({
                    "name": span_.name, "t0": span_.t0, "dur": span_.dur,
                    "pid": span_.pid, "tid": span_.tid, "depth": depth,
                    "parent": parent.name if parent else None,
                    "trace_id": span_.trace_id, "span_id": span_.span_id,
                    "parent_id": span_.parent_id,
                    "attrs": span_.attrs,
                }))
                handle.write("\n")

    def __repr__(self):
        return "Tracer(%d spans)" % len(self)


# ---------------------------------------------------------------------------
# ambient propagation
# ---------------------------------------------------------------------------

#: Active ``(tracer, innermost open span | None)``; None = tracing off.
_ACTIVE = contextvars.ContextVar("repro_obs_trace", default=None)

#: Remote propagation context: ``(trace_id, parent_span_id)`` carried in
#: from another process/host; new root spans attach to it.
_REMOTE = contextvars.ContextVar("repro_obs_trace_remote", default=None)

#: HTTP header carrying a propagation context between processes.
TRACE_HEADER = "X-Repro-Trace"


def propagation_context():
    """The current span's identity for a remote hop, or None.

    Returns ``{"trace_id", "span_id"}`` of the innermost open span —
    the payload a client puts in the ``X-Repro-Trace`` header, or a
    parent stamps into a worker's task dict (``task["trace"]``) —
    falling back to the inbound remote context when no span is open.
    """
    active = _ACTIVE.get()
    if active is not None and active[1] is not None:
        span_ = active[1]
        return {"trace_id": span_.trace_id, "span_id": span_.span_id}
    remote = _REMOTE.get()
    if remote is not None:
        return {"trace_id": remote[0], "span_id": remote[1]}
    return None


@contextmanager
def propagated(context):
    """Adopt a remote propagation *context* for a scope.

    *context* is a :func:`propagation_context` dict (or None / malformed
    — both no-ops, so receivers can pass untrusted input straight in).
    Root spans opened inside the scope join the remote caller's trace:
    same ``trace_id``, ``parent_id`` pointing at the caller's span.
    """
    trace_id = parent_id = None
    if isinstance(context, dict):
        trace_id = context.get("trace_id")
        parent_id = context.get("span_id")
    if not (isinstance(trace_id, str) and isinstance(parent_id, str)):
        yield
        return
    token = _REMOTE.set((trace_id, parent_id))
    try:
        yield
    finally:
        _REMOTE.reset(token)


def format_traceparent(context=None):
    """``X-Repro-Trace`` header value of *context* (default: ambient).

    Returns ``"<trace_id>-<span_id>"`` or None when there is nothing to
    propagate.
    """
    if context is None:
        context = propagation_context()
    if not context:
        return None
    return "%s-%s" % (context["trace_id"], context["span_id"])


def parse_traceparent(value):
    """Parse an ``X-Repro-Trace`` header into a propagation context.

    Returns ``{"trace_id", "span_id"}`` or None for missing/malformed
    values (propagation is best-effort; bad headers never fail a
    request).
    """
    if not value or not isinstance(value, str):
        return None
    trace_id, sep, span_id = value.strip().partition("-")
    if not sep or not trace_id or not span_id:
        return None
    if not all(c in "0123456789abcdef" for c in trace_id + span_id):
        return None
    return {"trace_id": trace_id, "span_id": span_id}


def active_tracer():
    """The capturing :class:`Tracer`, or None when tracing is off."""
    active = _ACTIVE.get()
    return active[0] if active is not None else None


def current_span():
    """The innermost open :class:`Span`, or None."""
    active = _ACTIVE.get()
    return active[1] if active is not None else None


@contextmanager
def capture(tracer=None):
    """Activate tracing into *tracer* (fresh when omitted) for a scope.

    Nesting is allowed: an inner ``capture`` hides the outer one (used
    by pool workers to build their own shippable tree even on the
    serial in-process path).
    """
    if tracer is None:
        tracer = Tracer()
    token = _ACTIVE.set((tracer, None))
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


@contextmanager
def span(name, **attrs):
    """Record one span under the current one; no-op when tracing is off.

    Yields the open :class:`Span` (or None when off) so callers can add
    attributes discovered mid-region (e.g. ``cache: hit``).
    """
    active = _ACTIVE.get()
    if active is None:
        yield None
        return
    tracer, parent = active
    s = Span(name, attrs)
    if parent is not None:
        s.trace_id = parent.trace_id
        s.parent_id = parent.span_id
    else:
        remote = _REMOTE.get()
        if remote is not None:
            s.trace_id, s.parent_id = remote
    token = _ACTIVE.set((tracer, s))
    start = time.perf_counter()
    try:
        yield s
    finally:
        s.dur = time.perf_counter() - start
        _ACTIVE.reset(token)
        if parent is None:
            tracer.add_root(s)
        else:
            parent.children.append(s)


def adopt(trees):
    """Re-parent serialized worker span *trees* under the current span.

    No-op when tracing is off; attaches as roots when no span is open.
    Returns the adopted :class:`Span` objects (empty list when off).
    """
    active = _ACTIVE.get()
    if active is None or not trees:
        return []
    tracer, parent = active
    return tracer.adopt(trees, parent=parent)


def wrap(fn):
    """Bind *fn* to the caller's tracing context, for worker threads.

    ``contextvars`` do not propagate into threads started later (e.g. a
    ``ThreadPoolExecutor`` created before :func:`capture`); submitting
    ``wrap(fn)`` instead of ``fn`` makes the thread record into the
    submitter's trace. The wrapper is re-entrant: safe to run
    concurrently from many threads.
    """
    active = _ACTIVE.get()

    def runner(*args, **kwargs):
        token = _ACTIVE.set(active)
        try:
            return fn(*args, **kwargs)
        finally:
            _ACTIVE.reset(token)

    return runner
