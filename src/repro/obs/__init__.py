"""`repro.obs` — tracing, metrics, and leakage auditing for the stack.

The paper's evaluation is a per-query cost decomposition (search vs.
crack vs. scan time, comparisons, bytes moved); its security story is
an access-pattern leakage argument.  This package makes both
first-class and permanent:

* :class:`~repro.obs.tracing.Tracer` — nested, timed spans with a
  true no-op fast path when disabled (``with obs.span("crack"):``).
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters,
  gauges, and exact-percentile histograms; always on (it is the one
  ledger: each query's :class:`~repro.cracking.index.QueryStats` is
  flushed to it once, when the query ends).
* :class:`~repro.obs.audit.AuditLog` — the server-side record of
  exactly what an honest-but-curious server observes, feeding
  :mod:`repro.analysis.leakage` with real traces.

An :class:`Observability` bundle carries one of each and is threaded
through the stack: ``OutsourcedDatabase`` creates one per session and
hands it to its server, which hands it to its engine and column, so a
whole deployment reports into one registry.  Components constructed
standalone create their own private bundle; engines adopt their
column's bundle so product accounting and engine accounting always
share a registry.

Span names, the metric catalogue, and the audit-event schema are
documented in ``docs/observability.md``.
"""

from __future__ import annotations

from repro.obs.audit import AuditEvent, AuditLog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_snapshot,
)
from repro.obs.telemetry import SlowQueryLog
from repro.obs.tracing import (
    NULL_SPAN,
    Span,
    Tracer,
    load_trace_jsonl,
    merge_traces,
)


class Observability:
    """One tracer + one metrics registry + one audit log.

    Args:
        tracing: start with span tracing enabled (off by default; the
            disabled tracer is a strict no-op).
        audit: start with server-side leakage auditing enabled.
    """

    __slots__ = ("tracer", "metrics", "audit")

    def __init__(self, tracing: bool = False, audit: bool = False) -> None:
        self.tracer = Tracer(enabled=tracing)
        self.metrics = MetricsRegistry()
        self.audit = AuditLog(enabled=audit)

    def span(self, name: str, remote=None, **attrs):
        """Shorthand for ``self.tracer.span(...)``."""
        if not self.tracer.enabled:
            return NULL_SPAN
        return self.tracer.span(name, remote=remote, **attrs)

    def snapshot(self) -> dict:
        """The metrics snapshot dict (see ``MetricsRegistry.snapshot``)."""
        return self.metrics.snapshot()


__all__ = [
    "AuditEvent",
    "AuditLog",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Observability",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "load_trace_jsonl",
    "merge_traces",
    "render_snapshot",
]
