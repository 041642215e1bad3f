"""Process-pool fan-out for the characterization sweep.

The precision sweep is embarrassingly parallel: every ``(precision,
scenarios)`` point is an independent synthesize + STA pipeline over
picklable inputs (components, cell libraries, scenarios and BTI models
are all plain data). This module maps a point worker over
``concurrent.futures.ProcessPoolExecutor`` while keeping a
**deterministic serial fallback** as the default: ``jobs=1`` runs the
worker inline in submission order, and the parallel path preserves that
order on collection, so both produce byte-for-byte identical results.

Job-count resolution: an explicit ``jobs=`` argument wins; otherwise
the ``REPRO_JOBS`` environment variable; otherwise 1 (serial).
``jobs=0`` / ``REPRO_JOBS=0`` means "one worker per CPU".

Telemetry: a pool worker cannot record into the parent's ambient
tracer and metrics registry, so every pool task runs under
:func:`traced` (its own capture, registry and propagated trace
context) and the parent folds what comes back in with :func:`absorb`.
Serial tasks run inline and record into the caller's scope directly.
"""

import functools
import os

from ..obs import logs, metrics as obs_metrics, trace as obs_trace

#: Environment variable overriding the default worker count.
JOBS_ENV = "REPRO_JOBS"

_log = logs.get_logger("core.parallel")


def resolve_jobs(jobs=None):
    """Normalize a ``jobs=`` argument to a positive worker count.

    ``None`` defers to ``REPRO_JOBS`` (default 1); 0 expands to the CPU
    count; negative values are rejected.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError("%s must be an integer, got %r"
                             % (JOBS_ENV, raw))
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError("jobs must be >= 0, got %d" % jobs)
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return jobs


def traced(worker, task):
    """Run ``worker(task)`` as a pool task: ``(result, spans, metrics)``.

    The worker records into a tracer and metrics registry of its own,
    entered under the task's ``"trace"`` propagation context (stamped
    by :func:`map_tasks` or the serve layer), so its root spans chain
    to the submitting span by identity. Module-level, hence picklable.
    """
    context = task.get("trace") if isinstance(task, dict) else None
    with obs_trace.capture() as tracer, obs_metrics.scoped() as registry:
        with obs_trace.propagated(context):
            result = worker(task)
    return result, tracer.to_dicts(), registry.snapshot()


def absorb(outcome, registry=None):
    """Fold a :func:`traced` outcome into the caller; returns the result.

    The spans are re-parented under the current span, the metrics
    merged into *registry* (the ambient one by default).
    """
    result, spans, metrics = outcome
    obs_trace.adopt(spans)
    (registry if registry is not None
     else obs_metrics.registry()).merge(metrics)
    return result


#: Sentinel distinguishing "jobs not passed" from an explicit value, so
#: the pool/jobs conflict warning only fires on a real caller mistake.
_JOBS_UNSET = object()


def _stamp_trace(tasks):
    """Shallow-copy dict tasks with the ambient trace identity.

    Pool workers cannot share the parent's contextvars; a ``"trace"``
    propagation context in the task dict lets the worker re-enter the
    submitting trace (:func:`repro.obs.trace.propagated`), so its
    shipped span tree stitches into one connected request tree. No-op
    when tracing is off, for non-dict tasks, and for tasks that already
    carry an explicit context (the serve layer stamps per-point spans).
    """
    ctx = obs_trace.propagation_context()
    if ctx is None:
        return tasks
    return [dict(task, trace=ctx)
            if isinstance(task, dict) and "trace" not in task else task
            for task in tasks]


def map_tasks(worker, tasks, jobs=_JOBS_UNSET, pool=None):
    """Apply *worker* to every task, serially or over a process pool.

    Results come back in task order either way, with pool workers'
    spans and metrics absorbed into the caller's scope. *worker* must
    be a module-level function and *tasks* picklable when ``jobs > 1``.
    Passing a :class:`WorkerPool` as *pool* reuses its persistent
    workers instead of spawning (and tearing down) a pool for this
    call; the pool's worker count wins, and an explicit *jobs* that
    disagrees with it raises a :class:`RuntimeWarning` instead of being
    silently ignored (``jobs=None`` defers, so it never conflicts).
    """
    tasks = list(tasks)
    if pool is not None and tasks:
        if (jobs is not _JOBS_UNSET and jobs is not None
                and resolve_jobs(jobs) != pool.jobs):
            import warnings
            warnings.warn(
                "map_tasks: explicit jobs=%r conflicts with pool (%d "
                "workers); the pool wins" % (jobs, pool.jobs),
                RuntimeWarning, stacklevel=2)
        return pool.map(worker, tasks)
    jobs = resolve_jobs(None if jobs is _JOBS_UNSET else jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    workers = min(jobs, len(tasks))
    _log.info("fanning out %d tasks over %d worker processes",
              len(tasks), workers)
    with obs_trace.span("parallel.map", tasks=len(tasks),
                        workers=workers):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return [absorb(outcome) for outcome in pool.map(
                functools.partial(traced, worker), _stamp_trace(tasks))]


class WorkerPool:
    """A persistent process pool for repeated characterization fan-out.

    :func:`map_tasks` spins a fresh ``ProcessPoolExecutor`` up (and
    down) per call — fine for one sweep, wasteful for a long-lived
    service dispatching thousands of small jobs. A ``WorkerPool`` keeps
    its worker processes alive across calls: the serving layer
    (:mod:`repro.serve`) owns one for its whole session, and
    :func:`repro.core.characterize.characterize` accepts one via
    ``pool=`` so repeated sweeps amortize pool startup.

    The executor is created lazily on first use; :meth:`submit` returns
    a :class:`concurrent.futures.Future` (the asyncio server runs
    :func:`traced` jobs on :attr:`executor` and absorbs their results),
    :meth:`map` preserves task order like :func:`map_tasks`. Use as a
    context manager or call :meth:`shutdown` to reap the workers.
    """

    def __init__(self, jobs=None):
        self.jobs = resolve_jobs(jobs)
        self._executor = None

    @property
    def executor(self):
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor

            _log.info("starting persistent pool of %d worker processes",
                      self.jobs)
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def submit(self, worker, task):
        """Schedule one task; returns a ``concurrent.futures.Future``."""
        return self.executor.submit(worker, task)

    def map(self, worker, tasks):
        """Apply *worker* to every task, preserving task order and
        absorbing each task's telemetry (see :func:`traced`)."""
        tasks = list(tasks)
        if not tasks:
            return []
        with obs_trace.span("parallel.map", tasks=len(tasks),
                            workers=self.jobs, persistent=True):
            return [absorb(outcome) for outcome in self.executor.map(
                functools.partial(traced, worker), _stamp_trace(tasks))]

    def shutdown(self, wait=True):
        """Reap the worker processes (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=not wait)
            self._executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.shutdown()

    def __repr__(self):
        state = "idle" if self._executor is None else "running"
        return "WorkerPool(jobs=%d, %s)" % (self.jobs, state)
