"""repro.obs — dependency-free observability for the matching service.

Four pieces, designed to be cheap enough to stay on by default
(``check_perf.py --gate obs`` holds the hot path to ≤5% p50 overhead):

* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket
  histograms with labels, Prometheus text exposition, and
  :class:`~repro.obs.metrics.CounterGroup`: the thread-safe dict-like
  that the server, catalog, query cache, and procpool counters now
  *are*, so the ``stats`` op and ``/metrics`` read identical storage.
* :mod:`repro.obs.log` — JSON-lines structured logs with thread-local
  trace-id propagation that crosses the procpool process boundary.
* :mod:`repro.obs.spans` — hierarchical timed spans on top of the
  structured log (the server's own phase spans are derived from its one
  ``query`` line per request), reconstructable into one causal tree per
  trace id and exportable as Chrome trace-event JSON (``repro trace``).
* :mod:`repro.obs.explain` — EXPLAIN/ANALYZE report builders: matching
  order + scores + guard inventory (plan) and exact per-stage /
  per-guard / per-worker work attribution (analyze), returned in the
  query reply.  ANALYZE is the one way to inspect a served search: its
  ``search`` block carries the exact recursion, backjump, embedding and
  per-guard pruning counts.  The per-descend event stream (depths,
  every conflict) needs an observer, which forces a sequential run, so
  it stays offline (:class:`~repro.analysis.trace.TraceRecorder`).

:class:`Observability` bundles a registry + an optional log + an
enabled flag; the server owns one and threads it everywhere.  Without a
log nothing is retained: a record is kept only where it has a reader.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.explain import FilterStageLog
from repro.obs.log import (
    StructuredLog,
    current_fields,
    current_log,
    current_trace,
    new_trace_id,
    set_trace_context,
    trace_context,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    CounterGroup,
    MetricsRegistry,
    parse_exposition,
)
from repro.obs.spans import (
    build_chrome_trace,
    current_span,
    new_span_id,
    set_base_span,
    span,
    span_scope,
    spans_for_trace,
    validate_span_tree,
)

__all__ = [
    "CounterGroup",
    "DEFAULT_BUCKETS",
    "FilterStageLog",
    "MetricsRegistry",
    "Observability",
    "StructuredLog",
    "build_chrome_trace",
    "current_fields",
    "current_log",
    "current_span",
    "current_trace",
    "new_span_id",
    "new_trace_id",
    "parse_exposition",
    "set_base_span",
    "set_trace_context",
    "span",
    "span_scope",
    "spans_for_trace",
    "trace_context",
    "validate_span_tree",
]


class Observability:
    """Registry + optional structured log + master switch, as one handle.

    ``log=None`` (the default) is no sink: :meth:`emit` writes nothing
    and the server binds no log to its request threads.  ``enabled=False``
    turns off the log lines and the phase histograms, while the counters
    keep counting (the ``stats`` op depends on them).
    """

    def __init__(
        self,
        enabled: bool = True,
        log: Optional[StructuredLog] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.log = log

    def emit(self, event: str, **fields) -> None:
        """Log a structured line iff enabled and there is a sink."""
        if self.enabled and self.log is not None:
            self.log.emit(event, **fields)

    def write(self, event: str, record: dict) -> None:
        """:meth:`StructuredLog.write` iff enabled and there is a sink."""
        if self.enabled and self.log is not None:
            self.log.write(event, record)
