"""Named counters, gauges, and histograms (zero-dependency).

The registry is the system's one ledger: engines, the server, the
transports, the protocol session, and the scalar-product kernel each
record a count once, here, where the event happens — a query's
:class:`~repro.cracking.index.QueryStats` is flushed to it when the
query ends — and CLI output, telemetry and benchmark reports read the
same counters, so no two views can disagree.

Three instrument kinds cover everything the evaluation needs:

* :class:`Counter` — monotonically accumulated totals (scalar
  products, bytes sent/received, cracks, phase seconds).  Values may
  be ints or floats; fractional "counters" are how phase *durations*
  accumulate.
* :class:`Gauge` — a last-written value (current piece count,
  pending-buffer size).
* :class:`Histogram` — a distribution with nearest-rank percentiles
  (cracked-piece sizes, response bytes, cracks per query).  Up to
  :data:`Histogram.DEFAULT_MAX_SAMPLES` observations are kept verbatim
  — percentiles are exact at that scale — and beyond the cap the
  histogram switches to a fixed-size reservoir sample (Vitter's
  algorithm R with a deterministic seed), so memory stays bounded
  under sustained traffic while ``count`` / ``sum`` / ``min`` /
  ``max`` / ``mean`` remain exact and percentiles become unbiased
  estimates over the reservoir.

Everything is plain Python — no third-party dependencies — and cheap
enough to stay enabled permanently (the expensive subsystem, tracing,
lives in :mod:`repro.obs.tracing` behind a no-op guard).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Union

Number = Union[int, float]


class Counter:
    """A named running total (int or float)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def add(self, amount: Number = 1) -> None:
        """Accumulate ``amount`` (may be fractional, e.g. seconds)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Counter(%r, %r)" % (self.name, self.value)


class Gauge:
    """A named last-written value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Gauge(%r, %r)" % (self.name, self.value)


class Histogram:
    """A named distribution with nearest-rank percentiles.

    Memory is bounded: the first ``max_samples`` observations are kept
    verbatim (percentiles are *exact* at that scale — every histogram
    the benchmarks read stays well under the cap), and beyond the cap
    the kept values become a uniform reservoir sample (Vitter's
    algorithm R, deterministic seed) of everything observed so far.
    ``count``, ``sum``, ``min``, ``max``, and ``mean`` are tracked
    exactly regardless of the cap; only the percentiles degrade — to
    unbiased estimates over ``max_samples`` kept values — once the
    observation count exceeds it.
    """

    __slots__ = (
        "name", "max_samples", "_values", "_sorted",
        "_count", "_sum", "_min", "_max", "_rng",
    )

    #: Reservoir capacity: large enough that p99 over the reservoir is
    #: within a fraction of a percentile rank of the true p99, small
    #: enough that a histogram can never grow past a few tens of KB.
    DEFAULT_MAX_SAMPLES = 4096

    def __init__(self, name: str, max_samples: int = None) -> None:
        self.name = name
        self.max_samples = (
            self.DEFAULT_MAX_SAMPLES if max_samples is None
            else max(1, int(max_samples))
        )
        self._values: List[Number] = []
        self._sorted = True
        self._count = 0
        self._sum: Number = 0
        self._min: Optional[Number] = None
        self._max: Optional[Number] = None
        # Deterministic reservoir randomness: two runs of the same
        # workload report identical summaries.
        self._rng = random.Random(0x5EED)

    def observe(self, value: Number) -> None:
        """Record one observation (O(1), bounded memory)."""
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if len(self._values) < self.max_samples:
            if self._values and value < self._values[-1]:
                self._sorted = False
            self._values.append(value)
            return
        # Algorithm R: keep each of the _count values seen so far with
        # probability max_samples / _count.
        slot = self._rng.randrange(self._count)
        if slot < self.max_samples:
            self._values[slot] = value
            self._sorted = False

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> Number:
        return self._sum

    @property
    def min(self) -> Optional[Number]:
        return self._min

    @property
    def max(self) -> Optional[Number]:
        return self._max

    @property
    def mean(self) -> Optional[float]:
        if not self._count:
            return None
        return self._sum / self._count

    @property
    def samples_kept(self) -> int:
        """Observations currently held in memory (<= ``max_samples``)."""
        return len(self._values)

    def percentile(self, q: float) -> Optional[Number]:
        """Nearest-rank percentile: the smallest kept value with at
        least ``q`` percent of kept observations at or below it.

        Exact while the histogram has seen at most ``max_samples``
        observations (``percentile(50)`` of ``[1, 2, 3, 4]`` is 2 —
        rank ``ceil(0.5 * 4) = 2`` — and ``percentile(100)`` is the
        maximum); an unbiased reservoir estimate beyond the cap.
        Returns None on an empty histogram.
        """
        if not self._values:
            return None
        if not 0 < q <= 100:
            raise ValueError("percentile must be in (0, 100], got %r" % q)
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = -(-q * len(self._values) // 100)  # ceil without floats
        return self._values[int(rank) - 1]

    def summary(self) -> Dict[str, Optional[Number]]:
        """Count, sum, extremes, mean, and the standard percentiles."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50) if self._values else None,
            "p90": self.percentile(90) if self._values else None,
            "p99": self.percentile(99) if self._values else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Histogram(%r, n=%d)" % (self.name, self.count)


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Names are dotted strings (``kernel.exact_products``); the catalogue
    actually emitted by the system is documented in
    ``docs/observability.md``.  A name identifies exactly one
    instrument — asking for a counter and a gauge under the same name
    raises.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access ---------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            self._check_unclaimed(name, self._counters)
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        gauge = self._gauges.get(name)
        if gauge is None:
            self._check_unclaimed(name, self._gauges)
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        histogram = self._histograms.get(name)
        if histogram is None:
            self._check_unclaimed(name, self._histograms)
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def _check_unclaimed(self, name: str, own: Mapping) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(
                    "metric name %r already used by another instrument kind"
                    % name
                )

    # -- shorthand emitters --------------------------------------------

    def add(self, name: str, amount: Number = 1) -> None:
        """Increment the counter called ``name``."""
        self.counter(name).add(amount)

    def set(self, name: str, value: Number) -> None:
        """Write the gauge called ``name``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: Number) -> None:
        """Record one observation on the histogram called ``name``."""
        self.histogram(name).observe(value)

    # -- reading -------------------------------------------------------

    def counter_value(self, name: str) -> Number:
        """Current value of a counter (0 if it was never touched)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def counter_values(self, names: Iterable[str]) -> Dict[str, Number]:
        """Snapshot of several counters at once (for per-query deltas)."""
        return {name: self.counter_value(name) for name in names}

    def snapshot(self) -> Dict[str, Dict]:
        """Full point-in-time view, JSON-compatible.

        ``{"counters": {name: value}, "gauges": {name: value},
        "histograms": {name: summary_dict}}`` — the exporter behind
        ``repro stats`` and the benchmark metric dumps.
        """
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """Human-readable fixed-width rendering of :meth:`snapshot`."""
        return render_snapshot(self.snapshot())


def render_snapshot(snap: Dict[str, Dict]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict.

    Module-level so a snapshot fetched over the wire (``repro stats
    --connect``) renders byte-identically to what the serving process
    would print locally.
    """
    lines: List[str] = []
    if snap["counters"]:
        lines.append("counters:")
        width = max(len(name) for name in snap["counters"])
        for name, value in snap["counters"].items():
            lines.append("  %-*s  %s" % (width, name, _fmt(value)))
    if snap["gauges"]:
        lines.append("gauges:")
        width = max(len(name) for name in snap["gauges"])
        for name, value in snap["gauges"].items():
            lines.append("  %-*s  %s" % (width, name, _fmt(value)))
    if snap["histograms"]:
        lines.append("histograms:")
        width = max(len(name) for name in snap["histograms"])
        for name, summary in snap["histograms"].items():
            lines.append(
                "  %-*s  count=%d sum=%s min=%s p50=%s p90=%s p99=%s max=%s"
                % (
                    width,
                    name,
                    summary["count"],
                    _fmt(summary["sum"]),
                    _fmt(summary["min"]),
                    _fmt(summary["p50"]),
                    _fmt(summary["p90"]),
                    _fmt(summary["p99"]),
                    _fmt(summary["max"]),
                )
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"


def _fmt(value: Optional[Number]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)
