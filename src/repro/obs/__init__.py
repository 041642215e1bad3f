"""repro.obs — dependency-free observability for the whole flow.

Three pillars, each usable on its own:

* :mod:`repro.obs.trace` — hierarchical spans with ambient
  (contextvars) propagation, process-pool re-parenting, and Chrome
  trace / JSONL export;
* :mod:`repro.obs.metrics` — named counters, gauges and histograms
  with an associative snapshot/merge wire format;
* :mod:`repro.obs.manifest` — one JSON run manifest per top-level run
  (config fingerprints, library identity, span totals, metric
  snapshot, peak RSS);

plus the live-telemetry layer:

* :mod:`repro.obs.timeseries` — ring-buffer periodic sampling of a
  registry (rates, quantiles, JSONL journal);
* :mod:`repro.obs.profile` — stdlib wall-clock sampling profiler with
  collapsed-stack and Chrome flame-chart export;
* :mod:`repro.obs.slo` — declarative latency/error-budget objectives
  with windowed burn rates;
* :mod:`repro.obs.logs` — the ``repro.*`` :mod:`logging` hierarchy and
  per-request access-log lines.
"""

from . import logs, metrics, profile, slo, timeseries, trace
from . import manifest  # imported last: lazily reaches into repro.core
from .logs import configure as configure_logging, get_logger, log_access
from .manifest import (build_manifest, default_manifest_path,
                       peak_rss_bytes, write_manifest)
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry, observe,
                      prometheus_text, registry, scoped)
from .profile import SamplingProfiler
from .slo import SLO, SLOEvaluator, parse_slo
from .timeseries import TimeSeriesRecorder
from .trace import (Span, Tracer, adopt, capture, current_span,
                    parse_traceparent, propagated, propagation_context,
                    span)

__all__ = [
    "logs", "metrics", "trace", "manifest", "timeseries", "profile",
    "slo",
    "configure_logging", "get_logger", "log_access",
    "build_manifest", "default_manifest_path", "peak_rss_bytes",
    "write_manifest",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "observe",
    "prometheus_text", "registry", "scoped",
    "SamplingProfiler", "SLO", "SLOEvaluator", "parse_slo",
    "TimeSeriesRecorder",
    "Span", "Tracer", "adopt", "capture", "current_span",
    "parse_traceparent", "propagated", "propagation_context", "span",
    "propagate",
]


def propagate(fn):
    """Bind *fn* to the caller's trace **and** metrics scope.

    The thread-pool analogue of the process-pool wire formats: submit
    ``propagate(fn)`` to a ``ThreadPoolExecutor`` and the worker thread
    records into the submitting context.
    """
    return trace.wrap(metrics.wrap(fn))
