"""The process-wide metrics registry.

Three instrument kinds, all thread-safe:

* :class:`Counter` — a monotonically increasing integer.
* :class:`Gauge` — a point-in-time value, either set directly or backed
  by a callback (how existing subsystem counters — planner, plan cache,
  transaction manager, WAL, server — register without
  rewriting their own bookkeeping).
* :class:`Histogram` — bounded: a *fixed* log-spaced bucket layout, so
  merging two histograms is exact (bucket counts add) and memory is
  O(buckets) no matter how many observations arrive.  Quantiles
  (p50/p95/p99) are read from the cumulative bucket counts with linear
  interpolation inside the winning bucket, clamped to the observed
  min/max.

A :class:`MetricsRegistry` names and owns instruments;
``register(name)`` calls are idempotent (get-or-create) so independent
subsystems can share an instrument by name.  ``collect()`` returns one
plain dict for the ``stats`` wire op / ``system.metrics``;
``render_prometheus()`` emits Prometheus text exposition format for the
optional HTTP endpoint.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Sequence

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Default histogram bucket upper bounds, log-spaced — wide enough for
#: microsecond spans and multi-second queries alike (unit-agnostic; the
#: conventional unit here is milliseconds).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """Monotonic counter.  ``inc`` takes the instrument lock — a single
    uncontended lock acquisition, cheap enough for per-query use (the
    overhead benchmark gates the total)."""

    kind = "counter"
    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """Point-in-time value.  Either ``set()`` it, or construct with
    ``fn=callback`` and reads delegate to the callback — the bridge that
    lets existing subsystem counters surface here without double
    bookkeeping."""

    kind = "gauge"
    __slots__ = ("name", "help", "_value", "_fn", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: "Callable[[], float] | None" = None,
    ):
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:
                return float("nan")
        return self._value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Bounded histogram with exact merge.

    All histograms created with the same ``buckets`` layout merge
    exactly: counts, sums, and per-bucket tallies add; min/max take the
    extrema, so per-thread histograms can be folded into one without
    losing an observation.
    """

    kind = "histogram"
    __slots__ = (
        "name", "help", "buckets", "_counts", "_count", "_sum",
        "_min", "_max", "_lock",
    )

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: "Sequence[float] | None" = None,
    ):
        self.name = name
        self.help = help
        self.buckets: tuple[float, ...] = tuple(
            sorted(buckets if buckets is not None else DEFAULT_BUCKETS)
        )
        # one slot per bound plus the +Inf overflow slot
        self._counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: "float | None" = None
        self._max: "float | None" = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in.  Exact — requires an identical bucket
        layout."""
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge incompatible "
                f"bucket layouts"
            )
        with other._lock:
            counts = list(other._counts)
            count, total = other._count, other._sum
            low, high = other._min, other._max
        with self._lock:
            for i, c in enumerate(counts):
                self._counts[i] += c
            self._count += count
            self._sum += total
            if low is not None and (self._min is None or low < self._min):
                self._min = low
            if high is not None and (self._max is None or high > self._max):
                self._max = high

    def quantile(self, q: float) -> "float | None":
        """Approximate quantile from the cumulative bucket counts,
        linearly interpolated within the winning bucket and clamped to
        the observed min/max."""
        with self._lock:
            return self._quantile_locked(q)

    def _quantile_locked(self, q: float) -> "float | None":
        if self._count == 0:
            return None
        target = q * self._count
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target and bucket_count > 0:
                lower = self.buckets[index - 1] if index > 0 else 0.0
                upper = (
                    self.buckets[index]
                    if index < len(self.buckets)
                    else (self._max if self._max is not None else lower)
                )
                fraction = (target - previous) / bucket_count
                value = lower + (upper - lower) * min(1.0, max(0.0, fraction))
                if self._min is not None:
                    value = max(value, self._min)
                if self._max is not None:
                    value = min(value, self._max)
                return value
        return self._max

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "count": self._count,
                "sum": round(self._sum, 6),
                "min": self._min,
                "max": self._max,
                "p50": self._quantile_locked(0.50),
                "p95": self._quantile_locked(0.95),
                "p99": self._quantile_locked(0.99),
            }

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style,
        ending with the +Inf bucket."""
        with self._lock:
            counts = list(self._counts)
        pairs: list[tuple[float, int]] = []
        cumulative = 0
        for bound, c in zip(self.buckets, counts):
            cumulative += c
            pairs.append((bound, cumulative))
        pairs.append((float("inf"), cumulative + counts[-1]))
        return pairs


_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    return _PROM_SANITIZE.sub("_", name)


def _prom_value(value: Any) -> str:
    if value is None:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    return repr(float(value))


class MetricsRegistry:
    """Named instruments for one process.  Registration is idempotent:
    asking for an existing name returns the existing instrument (and
    raises if the kind differs — two subsystems disagreeing on what a
    name measures is a bug worth surfacing)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: "dict[str, Counter | Gauge | Histogram]" = {}

    def _register(self, metric_cls: type, name: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, metric_cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {metric_cls.kind}"
                    )
                return existing
            metric = metric_cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help=help)

    def gauge(
        self,
        name: str,
        help: str = "",
        fn: "Callable[[], float] | None" = None,
    ) -> Gauge:
        return self._register(Gauge, name, help=help, fn=fn)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: "Sequence[float] | None" = None,
    ) -> Histogram:
        return self._register(Histogram, name, help=help, buckets=buckets)

    def get(self, name: str) -> "Counter | Gauge | Histogram | None":
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def collect(self) -> dict[str, Any]:
        """One flat dict: counters/gauges map to their value, histograms
        to their snapshot dict."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {
            metric.name: metric.snapshot()
            for metric in sorted(metrics, key=lambda m: m.name)
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        for metric in sorted(metrics, key=lambda m: m.name):
            name = _prom_name(metric.name)
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for bound, cumulative in metric.bucket_counts():
                    lines.append(
                        f'{name}_bucket{{le="{_prom_value(bound)}"}} '
                        f"{cumulative}"
                    )
                lines.append(f"{name}_sum {_prom_value(metric.sum)}")
                lines.append(f"{name}_count {metric.count}")
            else:
                lines.append(f"{name} {_prom_value(metric.snapshot())}")
        return "\n".join(lines) + "\n"
