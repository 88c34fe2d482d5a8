"""Observability layer: span tracing, metrics, exporters, perf reports.

The paper's evaluation lives and dies by instrumentation — Table 2's
"Comm." column, the Fig. 2 rooflines and the Fig. 6/9 cache plots are
all *measured* per-gate/per-collective quantities.  This package is the
repo's equivalent layer:

* :mod:`repro.telemetry.spans` — hierarchical :class:`Tracer`/:class:`Span`
  tracing threaded through the scheduler, the distributed simulator, the
  resilient executor, the comm layer and the kernel apply path;
* :mod:`repro.telemetry.metrics` — a :class:`MetricsRegistry` of named
  counters/gauges/histograms (``comm.bytes_on_network``,
  ``kernel.apply.seconds{k=4}``, ``sanitizer.findings``, ...);
* :mod:`repro.telemetry.export` — Chrome-trace/Perfetto JSON (one driver
  lane), a JSONL event stream and a flamegraph-style text summary;
* :mod:`repro.telemetry.report` — the predicted-vs-actual join of a
  run's spans against the :mod:`repro.perfmodel` timeline predictions;
* :mod:`repro.telemetry.exposition` — Prometheus text-format 0.0.4
  rendering of a registry snapshot;
* :mod:`repro.telemetry.live` — the live plane: an asyncio HTTP
  exposition server (``/metrics``, ``/healthz``, ``/statusz``) for
  long-running processes;
* :mod:`repro.telemetry.recorder` — the :class:`FlightRecorder` ring
  buffer of recent spans/lock events/job transitions, dumped as a JSONL
  postmortem bundle when a job dies.

Everything is disabled by default: components accept ``telemetry=None``
and fall back to :data:`NULL_TELEMETRY`, whose tracer and registry are
shared no-ops.  Opt in with ``Telemetry.enabled()`` (or the CLI's
``repro trace`` / ``simulate --trace/--metrics``).  Turning it on only
observes: a traced run executes the same kernels, on the same threads,
as an untraced one.
"""

from repro.telemetry.export import (
    chrome_trace,
    format_flamegraph,
    span_records,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.exposition import prometheus_exposition
from repro.telemetry.live import ExpositionServer, http_get
from repro.telemetry.metrics import (
    NULL_METRICS,
    QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.recorder import FLIGHT_RECORDER, FlightRecorder
from repro.telemetry.report import PerfReport, StageComparison, perf_report
from repro.telemetry.runtime import NULL_TELEMETRY, Telemetry
from repro.telemetry.spans import NULL_TRACER, Span, Tracer, verify_nesting

__all__ = [
    "Counter",
    "ExpositionServer",
    "FLIGHT_RECORDER",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "PerfReport",
    "QUANTILES",
    "Span",
    "StageComparison",
    "Telemetry",
    "Tracer",
    "chrome_trace",
    "format_flamegraph",
    "http_get",
    "perf_report",
    "prometheus_exposition",
    "span_records",
    "verify_nesting",
    "write_chrome_trace",
    "write_jsonl",
]
