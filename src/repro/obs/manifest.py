"""Run manifests: one JSON artifact answering "what exactly ran".

A manifest pins the identity of a top-level run — the command and its
configuration (with a stable fingerprint reusing the cache's canonical
digests), the cell-library contents, per-span time totals, a metrics
snapshot, peak RSS and host info — so any result file can be traced
back to the inputs that produced it and compared across machines and
revisions. The CLI writes one next to ``--trace``/``--metrics``
outputs; benchmarks write one next to their result JSON.
"""

import json
import os
import platform
import sys
import time

#: Bump when the manifest layout changes.
MANIFEST_SCHEMA = 1


def peak_rss_bytes():
    """Peak resident set size of this process, in bytes (None when the
    platform lacks :mod:`resource`, e.g. Windows)."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS but kilobytes on Linux.
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def build_manifest(command, config=None, library=None, stages=None,
                   metrics=None, duration_s=None, extra=None):
    """Assemble a run-manifest dict.

    Parameters
    ----------
    command:
        Name of the entry point that ran (CLI subcommand, benchmark).
    config:
        JSON-serializable configuration mapping; fingerprinted with the
        cache's canonical digest so identical configs hash identically.
    library:
        Optional cell library; recorded by name and content
        fingerprint (see :func:`repro.core.cache.library_fingerprint`).
    stages:
        Per-span-name totals, :meth:`repro.obs.trace.Tracer.totals`
        (``{name: {"calls", "seconds", "self_seconds"}}``).
    metrics:
        A :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict.
    duration_s:
        Wall-clock duration of the run.
    extra:
        Free-form additions merged in under ``"extra"``.
    """
    # Imported lazily: repro.core.cache itself imports repro.obs.
    from ..core import cache as cache_mod

    config = dict(config or {})
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "created_unix": time.time(),
        "config": config,
        "fingerprints": {"config": cache_mod.fingerprint(config)},
        "stages": dict(stages or {}),
        "metrics": metrics if metrics is not None else {},
        "duration_s": duration_s,
        "peak_rss_bytes": peak_rss_bytes(),
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "pid": os.getpid(),
        },
    }
    if library is not None:
        manifest["library"] = {
            "name": library.name,
            "fingerprint": cache_mod.library_fingerprint(library),
        }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


def write_manifest(path, manifest):
    """Write *manifest* as pretty-printed JSON; returns *path*."""
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def default_manifest_path(*candidates):
    """Derive ``<first candidate stem>.manifest.json``.

    Helper for CLIs that write a manifest alongside a trace/metrics
    file; returns None when every candidate is None.
    """
    for path in candidates:
        if path:
            stem, __ext = os.path.splitext(os.fspath(path))
            return stem + ".manifest.json"
    return None
