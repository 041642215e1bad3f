"""Shared machinery of the benchmark: processes, statistics, trace attribution.

Nothing here imports :mod:`repro`; the workload modules do, lazily, so
that the parent process and the measured children pay for exactly the
imports they need.
"""

import collections
import functools
import importlib
import inspect
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
EXPECTED = HERE / "expected.json"

#: Seconds a child may take to report ready (import + library build).
READY_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing program, dead child)."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values):
    values = list(values)
    if not values:
        raise BenchError("no samples to take a median of")
    return float(statistics.median(values))


def spread(values):
    """(Q3 - Q1) / median of *values*, quartiles as
    ``statistics.quantiles(values, n=4)`` gives them; 0 for fewer than
    two values."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def describe(log, name, values):
    """Log how many samples a figure came from and how widely they
    spread, so a noisy figure can be told from a slow one."""
    values = list(values)
    log("  %-12s n=%-4d median=%.6g spread=%.3f"
        % (name, len(values), median(values), spread(values)))


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

#: Median wall of :func:`reference_kernel_s` on a 2-vCPU VM in a quiet
#: spell. Each end-to-end time is scaled by this over the run's median
#: kernel wall, i.e. reported at this reference host speed.
REFERENCE_KERNEL_S = 0.045


def reference_kernel_s(peaks=None):
    """Wall time of a fixed kernel that uses no code of the program: an
    integer loop in the interpreter, then sorting and scaling an 8 MB
    float array twice; the two halves take about as long as each other.

    A shared host's speed swings by a third or more over tens of
    seconds. Interpreter-bound and memory-bound code slow down by
    different amounts in different spells, and the workloads are a mix
    of both, so the kernel is too: over simulated 40-second runs it
    followed the warm ``paper_idct`` pipeline better than either half
    alone. Workloads run it on the measured cores between their timed
    units (never inside one); the median over a run is that run's host
    speed.

    The kernel's arrays live only during the call. When *peaks* is a
    list, the calling process's peak RSS so far is appended to it first,
    and the peak is reset to the current RSS afterwards, so the kernel
    never counts toward the program's peak (see :func:`self_peak_rss_mb`).
    """
    import numpy as np

    if peaks is not None:
        peaks.append(self_peak_rss_mb())
    data = np.random.default_rng(0).random(1 << 20)
    t0 = time.perf_counter()
    total = 0
    for i in range(250000):
        total += i * i % 7
    for __ in range(2):
        np.sort(data) * 2.0 + data
    wall = time.perf_counter() - t0
    del data
    if peaks is not None:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    return wall


def run_kernel(repeat, peaks=None):
    """*repeat* walls of :func:`reference_kernel_s`, back to back."""
    return [reference_kernel_s(peaks) for __ in range(repeat)]


def kernel_on_measured_cpus(repeat):
    """:func:`run_kernel` from the benchmark's own process, moved to the
    measured cores for the call."""
    if MEASURED_CPUS is not None:
        os.sched_setaffinity(0, MEASURED_CPUS)
    try:
        return run_kernel(repeat)
    finally:
        pin_benchmark()


def kernel_on_every_cpu(repeat):
    """:func:`run_kernel` from the benchmark's own process, first on its
    own core, then moved to the measured cores: for a load that keeps
    both busy, such as the serve clients and the server."""
    return run_kernel(repeat) + kernel_on_measured_cpus(repeat)


def host_scale(walls):
    """Factor that takes times to the reference host speed, from the
    kernel *walls* measured at about the same time."""
    return REFERENCE_KERNEL_S / median(walls)


class HostSpeed:
    """Host-speed kernel runs around a sequence of timed units.

    Call :meth:`mark` once before the first unit and :meth:`unit` right
    after each: it runs the kernel again. :meth:`factors` then gives, per
    unit, the factor that takes its time to the reference host speed,
    from the kernel runs of the :attr:`REACH` marks on either side of
    it. So a unit is scaled by the host's speed of its own moment, and a
    swing within a run is followed as well as one between runs; taking
    more than the two adjacent marks keeps the kernel's own noise down.
    *measure* runs the kernel and returns its walls.
    """

    REACH = 2

    def __init__(self, measure):
        self.measure = measure
        self.marks = []
        self._before = []

    @property
    def walls(self):
        """Every kernel wall so far."""
        return [wall for mark in self.marks for wall in mark]

    def mark(self):
        self.marks.append(self.measure())

    def unit(self):
        """Close the unit timed since the last mark; returns its index."""
        self._before.append(len(self.marks) - 1)
        self.mark()
        return len(self._before) - 1

    def factors(self):
        out = []
        for k in self._before:
            near = self.marks[max(0, k + 1 - self.REACH):k + 1 + self.REACH]
            out.append(host_scale([wall for mark in near for wall in mark]))
        return out


def percentile(values, q):
    """Linear-interpolated *q*-quantile (0..1) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples to take a percentile of")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _cpus():
    """``(benchmark cpus, measured cpus)``: one core each when there are two
    or more, so the scheduler cannot put the load generator and the
    program on one core in some runs and on two in others."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


BENCH_CPUS, MEASURED_CPUS = _cpus()


def pin_benchmark():
    """Keep the benchmark's own process off the measured cores."""
    if BENCH_CPUS is not None:
        os.sched_setaffinity(0, BENCH_CPUS)


def pin_measured():
    """Run the calling process on the measured cores."""
    if MEASURED_CPUS is not None:
        os.sched_setaffinity(0, MEASURED_CPUS)


def child_env():
    """Environment of every measured process: the checkout's ``src`` on
    the path and a fixed hash seed, so set/dict orders (and the work
    that depends on them) repeat from run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One measured subprocess with a ready handshake on its stdout.

    ``setup_s`` is the time from just before the spawn until the child
    printed a line starting with *ready_prefix*; that line is kept as
    ``ready_line``.
    """

    def __init__(self, argv, ready_prefix, stderr_path):
        self.argv = argv
        self._stderr = open(stderr_path, "wb")
        self.stderr_path = stderr_path
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._stderr,
            env=child_env(), cwd=str(ROOT), preexec_fn=pin_measured)
        self.ready_line = self._await_line(ready_prefix)
        self.setup_s = time.perf_counter() - t0

    def _await_line(self, prefix):
        # Unbuffered reads: a buffered readline could pull the ready line
        # into Python's buffer where select() no longer sees it.
        deadline = time.monotonic() + READY_TIMEOUT_S
        fd = self.proc.stdout.fileno()
        pending = b""
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                while b"\n" in pending:
                    line, pending = pending.split(b"\n", 1)
                    line = line.decode("utf-8", "replace")
                    if line.startswith(prefix):
                        return line.strip()
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(timeout=left):
                    self.kill()
                    raise BenchError("%s not ready within %.0fs"
                                     % (self.argv[1:3], READY_TIMEOUT_S))
                chunk = os.read(fd, 65536)
                if not chunk:
                    self.proc.wait()
                    raise BenchError("%s exited with %s before ready:\n%s"
                                     % (self.argv[1:3], self.proc.returncode,
                                        self.stderr_tail()))
                pending += chunk

    def wait(self, timeout):
        """Wait for a clean exit; raises when the child fails."""
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("%s did not finish within %.0fs"
                             % (self.argv[1:3], timeout))
        finally:
            self._stderr.close()
        if self.proc.returncode != 0:
            raise BenchError("%s exited with %s:\n%s"
                             % (self.argv[1:3], self.proc.returncode,
                                self.stderr_tail()))

    def kill(self):
        """Kill the child and its own children (a server's pool worker)."""
        if self.proc.poll() is None:
            for pid in children(self.proc.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()

    def stderr_tail(self, lines=15):
        try:
            text = Path(self.stderr_path).read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


def spawn_worker(workload, config, stderr_path):
    """Start ``child.py`` for *workload*; returns the ready :class:`Child`."""
    argv = [sys.executable, str(HERE / "child.py"), workload,
            json.dumps(config)]
    return Child(argv, "ready", stderr_path)


def children(pid):
    """Direct children of *pid* (Linux ``/proc``); empty when unknown."""
    pids = []
    try:
        for task in os.listdir("/proc/%d/task" % pid):
            with open("/proc/%d/task/%s/children" % (pid, task)) as handle:
                pids.extend(int(p) for p in handle.read().split())
    except OSError:
        pass
    return pids


def peak_rss_mb(pid):
    """Summed peak RSS (VmHWM) of *pid* and its direct children, in MB."""
    total_kb = 0
    for each in [pid] + children(pid):
        try:
            with open("/proc/%d/status" % each) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def self_peak_rss_mb():
    """Peak RSS (VmHWM) of the calling process in MB, since its start or
    since :func:`reference_kernel_s` last reset it."""
    return peak_rss_mb(os.getpid())


# ---------------------------------------------------------------------------
# tracing from outside the program
# ---------------------------------------------------------------------------

#: Program functions that emit no span of their own, wrapped in one by
#: the traced run: ``(module, function or Class.method, span name)``.
EXTERNAL_SPANS = (
    ("repro.sta.engine", "compile_timing", "ext.compile_timing"),
    ("repro.sim.logic", "compile_netlist", "ext.compile_netlist"),
    ("repro.synth.aging_aware", "aging_aware_synthesize",
     "ext.aging_aware_synthesize"),
    ("repro.inject.campaign", "_build_prelude", "ext.inject_prelude"),
    ("repro.mc.yield_curves", "_build_prelude", "ext.mc_prelude"),
    ("repro.media.images", "make_image", "ext.make_image"),
    ("repro.media.codec", "TransformCodec.roundtrip", "ext.codec_roundtrip"),
    ("repro.quality.metrics", "psnr_db", "ext.psnr_db"),
    ("repro.serve.client", "ServeClient.request", "ext.serve_client"),
)


def _spanned(original, span_name):
    """*original* wrapped in a span; coroutine functions stay coroutines,
    so the span covers the awaited call."""
    from repro.obs import trace as obs_trace

    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            with obs_trace.span(span_name):
                return await original(*args, **kwargs)
    else:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with obs_trace.span(span_name):
                return original(*args, **kwargs)
    return wrapper


def wrap_in_spans(only=None):
    """Rebind each :data:`EXTERNAL_SPANS` function (or those named in
    *only*), in every loaded ``repro`` module that holds it, to a wrapper
    opening a span around the call; a method is rebound on its class.

    Only traced runs call this, after importing what they use; the timed
    runs execute the program unmodified. Returns a function that undoes
    the rebinding.
    """
    rebound = []
    for module_name, func_name, span_name in EXTERNAL_SPANS:
        if only is not None and func_name not in only:
            continue
        module = importlib.import_module(module_name)
        if "." in func_name:
            class_name, method = func_name.split(".")
            owner = getattr(module, class_name)
            original = vars(owner)[method]
            setattr(owner, method, _spanned(original, span_name))
            rebound.append((owner, method, original))
            continue
        original = getattr(module, func_name)
        wrapper = _spanned(original, span_name)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not name.startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapper)
                    rebound.append((loaded, attr, original))

    def undo():
        for owner, attr, original in reversed(rebound):
            setattr(owner, attr, original)
    return undo


#: Span name -> per-layer self-time metric: the program's own spans and
#: the :data:`EXTERNAL_SPANS` wrappers. The benchmark's spans around the
#: public calls it makes (``bench.*``) map to no layer: their self time
#: is program time that no layer span covers, so it counts as
#: unattributed (and is also reported as ``bench.calls.s``).
LAYER_OF_SPAN = {
    "synth.synthesize": "synth.synthesize.s",
    "synth.sweep.derive": "synth.sweep.derive.s",
    "synthesize": "synth.stage.s",
    "ext.aging_aware_synthesize": "synth.aging_aware.s",
    "ext.compile_timing": "sta.compile.s",
    "ext.compile_netlist": "sta.compile.s",
    "sta": "sta.analyze.s",
    "sta.analyze": "sta.analyze.s",
    "sta.analyze_batch": "sta.analyze.s",
    "sta.analyze_incremental": "sta.analyze.s",
    "characterize": "core.characterize.s",
    "characterize.point": "core.characterize.s",
    "characterize.screen": "core.characterize.s",
    "parallel.map": "core.parallel.s",
    "flow.remove_guardband": "core.flow.remove_guardband.s",
    "flow.approximate": "core.flow.remove_guardband.s",
    "flow.report_delays": "core.flow.remove_guardband.s",
    "flow.compare_with_baseline": "core.flow.compare_with_baseline.s",
    "sim.activity": "sim.activity.s",
    "stress.extract": "sim.stress.s",
    "stress.annotate": "sim.stress.s",
    "stress_extraction": "sim.stress.s",
    "ext.make_image": "media.codec.s",
    "ext.codec_roundtrip": "media.codec.s",
    "ext.psnr_db": "media.codec.s",
    "ext.serve_client": "serve.client.s",
    "serve.request": "serve.request.s",
    "serve.point": "serve.point.s",
    "inject.campaign": "inject.campaign.s",
    "inject.point": "inject.point.s",
    "inject.arms": "inject.arms.s",
    "ext.inject_prelude": "inject.prelude.s",
    "mc.run": "mc.run.s",
    "mc.block": "mc.analyze.s",
    "ext.mc_prelude": "mc.prelude.s",
    "mc.analyze": "mc.analyze.s",
}

#: Inclusive span totals reported beside the self times (not part of the
#: partition of wall time): ``metric -> span names``.
INCLUSIVE = {
    "serve.compute.characterize.s": ("characterize.point",),
    "serve.compute.inject.s": ("inject.campaign",),
    "serve.compute.mc.s": ("mc.run",),
}

#: Call counts taken from span counts.
CALLS = {
    "synth.synthesize.calls": "synth.synthesize",
    "synth.sweep.derive.calls": "synth.sweep.derive",
}

#: Counters read from the program's own metrics registry.
COUNTERS = (
    "synth.sizing.upsizes", "synth.runs", "sta.batch.runs",
    "sta.batch.corners", "cache.stores", "cache.hits", "cache.mem_hits",
    "cache.netlist_memo_hits", "cache.timing_memo_hits", "sim.vectors",
    "inject.vectors", "mc.samples",
)

#: Every self-time metric, in report order.
SELF_TIME_METRICS = tuple(dict.fromkeys(LAYER_OF_SPAN.values()))


def flatten(trees):
    """Serialized span trees (``Tracer.to_dicts``) -> flat span dicts."""
    out = []
    stack = list(trees)
    while stack:
        span = stack.pop()
        stack.extend(span.get("children", ()))
        out.append({k: v for k, v in span.items() if k != "children"})
    return out


class Attribution:
    """Accumulates per-layer self times and counts over traced units.

    A *unit* is one repetition of a workload's timed work; ``wall`` is
    the sum of the units' traced wall times (per client lane for the
    server, whose two lanes are each busy for the whole phase).
    """

    def __init__(self):
        self.units = 0
        self.wall = 0.0
        self.seconds = collections.Counter()
        self.counts = collections.Counter()
        self.unknown = collections.Counter()
        self.bench_self = 0.0

    def add_spans(self, spans, served=()):
        """Fold flat spans (any processes, joined by span id) in.

        *served* holds the ids of spans recorded by the server, whose
        compute spans also count toward the ``serve.compute.*`` totals.
        """
        by_id = {s["span_id"]: s for s in spans}
        covered = collections.Counter()
        for span in spans:
            if span.get("parent_id") in by_id:
                covered[span["parent_id"]] += span["dur"]
        for span in spans:
            name = span["name"]
            self_s = max(0.0, span["dur"] - covered[span["span_id"]])
            layer = LAYER_OF_SPAN.get(name)
            if layer is not None:
                self.seconds[layer] += self_s
            elif name.startswith("bench."):
                self.bench_self += self_s
            else:
                self.unknown[name] += self_s
            for metric, names in INCLUSIVE.items():
                if name in names and span["span_id"] in served:
                    self.seconds[metric] += span["dur"]
            for metric, counted in CALLS.items():
                if name == counted:
                    self.counts[metric] += 1

    def add_counters(self, snapshot):
        counters = snapshot.get("counters", {})
        for name in COUNTERS:
            self.counts[name] += counters.get(name, 0)

    def add_unit(self, wall_s, lanes=1):
        self.units += 1
        self.wall += wall_s * lanes

    def metrics(self):
        """Per-unit averages of every layer metric, plus the remainder."""
        if not self.units:
            raise BenchError("traced run recorded no units")
        units = float(self.units)
        out = {}
        for name in SELF_TIME_METRICS:
            out[name] = (self.seconds[name] / units, "s")
        for name in INCLUSIVE:
            out[name] = (self.seconds[name] / units, "s")
        for name in list(CALLS) + list(COUNTERS):
            out[name] = (self.counts[name] / units, "count")
        attributed = sum(self.seconds[name] for name in SELF_TIME_METRICS)
        out["unattributed.s"] = ((self.wall - attributed) / units, "s")
        out["bench.calls.s"] = (self.bench_self / units, "s")
        out["trace.attributed_share"] = (
            attributed / self.wall if self.wall else 0.0, "ratio")
        if self.unknown:
            print("unmapped spans (counted as unattributed): %s"
                  % dict(self.unknown.most_common(8)), file=sys.stderr)
        return out


def work_dir(workload):
    """A fresh directory under the checkout for this run's files."""
    path = WORK_ROOT / ("%s-%d" % (workload, os.getpid()))
    path.mkdir(parents=True, exist_ok=False)
    return path


def load_expected(path=None):
    with open(path or EXPECTED) as handle:
        return json.load(handle)


def canonical(obj):
    """Stable text form of a JSON-able value, for exact comparisons."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
