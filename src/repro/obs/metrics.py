"""Dependency-free metrics: counters, gauges, fixed-bucket histograms.

The registry is the one place runtime counts live: server, pool,
balancer and engine counters are registry instruments, read by the
``metrics`` wire op, the ``status`` op and the ``repro metrics`` CLI
alike, so every count has one thread-safe home.

Design points:

* **Locked instruments.**  ``+= 1`` on a plain attribute is not atomic
  once increments cross the server's executor boundary, so every
  instrument takes a tiny per-instrument lock.  The cost is ~0.3us per
  update — bounded end-to-end by ``benchmarks/bench_a14_obs.py``.
* **Fixed-bucket histograms.**  Latency observations land in a fixed
  ladder of upper bounds (binary-search insert, O(log #buckets));
  percentiles report the *upper bound* of the bucket holding the
  rank-th sample, so p50/p95/p99 are conservative and never invent
  values between samples.  Observations past the last bound fall into
  an overflow bucket whose percentile reports the observed maximum.
* **Injectable clock.**  ``MetricsRegistry(clock=...)`` threads one
  time source through everything built on the registry (slow-commit
  gating, WAL fsync probes), so tests and the fault harness drive
  metrics deterministically with a fake clock.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from math import ceil
from typing import Callable, Iterable

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "WalProbe",
]

# Upper bounds (seconds) for latency histograms: 20us .. 5s in roughly
# half-decade steps.  The low end resolves the in-memory commit gate
# (tens of microseconds); the high end covers fsync stalls and chaos
# delays.
DEFAULT_BUCKETS: tuple[float, ...] = (
    20e-6, 50e-6, 100e-6, 200e-6, 500e-6,
    1e-3, 2e-3, 5e-3, 10e-3, 20e-3, 50e-3, 100e-3,
    200e-3, 500e-3, 1.0, 2.0, 5.0,
)


class Counter:
    """A monotonically increasing count.

    ``inc`` is locked so concurrent increments (server event loop vs.
    executor threads) never drop an update; reading ``value`` is a bare
    attribute load.
    """

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self._value})"


class Gauge:
    """A point-in-time level: set it, nudge it, read it."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, n: float = 1.0) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1.0) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self._value})"


class Histogram:
    """Fixed-bucket latency histogram with conservative percentiles.

    Buckets are *upper bounds*; an observation lands in the first bucket
    whose bound is >= the value (found by binary search).  ``percentile``
    returns the bound of the bucket holding the rank-th sample — for the
    overflow bucket (past the last bound) it returns the observed
    maximum, so a pathological outlier is reported exactly rather than
    clamped.  An empty histogram has ``None`` percentiles.
    """

    __slots__ = ("name", "buckets", "_counts", "_overflow", "_lock",
                 "_count", "_sum", "_min", "_max")

    def __init__(self, name: str,
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * len(self.buckets)
        self._overflow = 0
        self._lock = threading.Lock()
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        i = bisect_left(self.buckets, value)
        with self._lock:
            if i < len(self._counts):
                self._counts[i] += 1
            else:
                self._overflow += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        return self._count

    def _percentile_locked(self, q: float) -> float | None:
        if self._count == 0:
            return None
        rank = max(1, ceil(q * self._count / 100.0))
        seen = 0
        for bound, n in zip(self.buckets, self._counts):
            seen += n
            if seen >= rank:
                return bound
        return self._max

    def percentile(self, q: float) -> float | None:
        """Upper bound of the bucket holding the ``q``-th percentile
        sample (observed max past the last bound; ``None`` when empty)."""
        with self._lock:
            return self._percentile_locked(q)

    def summary(self) -> dict:
        """count/sum/min/max plus p50/p95/p99, one consistent snapshot."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "p50": self._percentile_locked(50),
                "p95": self._percentile_locked(95),
                "p99": self._percentile_locked(99),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self._count})"


class MetricsRegistry:
    """Thread-safe get-or-create registry of named instruments.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    under a name or create it — callers hold the returned object and
    update it lock-free of the registry (each instrument locks itself).
    ``snapshot()`` renders everything as one JSON-codable dict, the
    payload of the ``metrics`` wire op.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter(name)
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge(name)
            return inst

    def histogram(self, name: str,
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram(name, buckets)
            return inst

    def snapshot(self) -> dict:
        """Every instrument's current reading, sorted by name."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": {n: c.value for n, c in sorted(counters)},
            "gauges": {n: g.value for n, g in sorted(gauges)},
            "histograms": {n: h.summary() for n, h in sorted(histograms)},
        }

    def to_dict(self) -> dict:
        """Alias of :meth:`snapshot` for serialization call sites."""
        return self.snapshot()


class WalProbe:
    """Duck-typed hook a :class:`~repro.store.wal.WriteAheadLog` consults
    on ``append``: counts records and bytes, times the fsync so the
    commit pipeline attributes the fsync phase separately from the
    buffered write, and remembers the last fsync cost for the
    slow-commit log.
    """

    __slots__ = ("clock", "appends", "bytes", "fsyncs", "last_fsync")

    def __init__(self, registry: MetricsRegistry,
                 prefix: str = "store.wal"):
        self.clock = registry.clock
        self.appends = registry.counter(f"{prefix}.appends")
        self.bytes = registry.counter(f"{prefix}.appended_bytes")
        self.fsyncs = registry.histogram("store.commit.fsync_seconds")
        self.last_fsync = 0.0

    def observe_append(self, nbytes: int, fsync_s: float) -> None:
        self.appends.inc()
        self.bytes.inc(nbytes)
        if fsync_s > 0.0:
            self.fsyncs.observe(fsync_s)
        self.last_fsync = fsync_s
