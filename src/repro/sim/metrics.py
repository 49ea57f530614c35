"""Lightweight metrics for simulation experiments and the live cluster.

Experiments read these to produce the figure series: cache hit ratios,
bytes moved, tasks per slot, per-phase times.  The cluster plane writes
the same registry from many threads while the observability endpoint
(:mod:`repro.observe`) reads it, so every primitive here is safe to
*read at any time* and safe to *write concurrently*:

* :class:`Counter` increments are a single attribute update (atomic
  enough under the GIL for monotonic accumulation);
* :class:`Gauge` updates take a per-gauge lock so ``add`` and the
  set-then-extremes sequence are never a lost-update race;
* :class:`Histogram` holds a *bounded* reservoir -- a long-running
  coordinator records millions of RPC latencies without growing memory,
  while ``count``/``total``/``min``/``max`` stay exact forever;
* :class:`MetricsRegistry` read paths (``peak``, ``ratio``,
  ``snapshot``, ``export``) never materialize entries, so a scrape
  observes the registry without changing it.

Every cluster worker imports this module, and a scrape or a straggler
check asks for percentiles in the middle of a job, so the summaries are
plain Python: NumPy is imported only by :meth:`TimeSeries.as_arrays`
(experiments), never at module level and never on a percentile.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import numpy as np

__all__ = ["Counter", "Gauge", "TimeSeries", "Histogram", "MetricsRegistry",
           "ServiceTimeTracker"]


@dataclass
class Counter:
    """A monotonically increasing count."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """A value that moves both ways, with its historical extremes.

    A gauge that was never set reports ``0.0`` extremes (not ``±inf``),
    so report tables stay readable for metrics that never fired.

    Updates are serialized by a per-gauge lock: ``add`` is a
    read-modify-write and ``set`` must update the value and both
    extremes together, so concurrent writers (the scheduler thread, RPC
    reader threads, the heartbeat sweep) would otherwise lose deltas or
    record a ``max_seen`` no single writer ever set.  Reads are plain
    attribute loads -- lock-free on purpose, since a torn read cannot
    occur for a single reference under CPython.
    """

    def __init__(self, value: float = 0.0) -> None:
        self.value = value
        self._max: float | None = None
        self._min: float | None = None
        self._lock = threading.Lock()

    @property
    def max_seen(self) -> float:
        return 0.0 if self._max is None else self._max

    @property
    def min_seen(self) -> float:
        return 0.0 if self._min is None else self._min

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value
            self._max = value if self._max is None else max(self._max, value)
            self._min = value if self._min is None else min(self._min, value)

    def add(self, delta: float) -> None:
        with self._lock:
            value = self.value + delta
            self.value = value
            self._max = value if self._max is None else max(self._max, value)
            self._min = value if self._min is None else min(self._min, value)

    def __repr__(self) -> str:
        return f"Gauge(value={self.value!r})"


@dataclass
class TimeSeries:
    """(time, value) samples, e.g. queue lengths over time."""

    times: list[float] = field(default_factory=list)
    values: list[float] = field(default_factory=list)

    def record(self, t: float, v: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError("time series samples must be appended in time order")
        self.times.append(t)
        self.values.append(v)

    def __len__(self) -> int:
        return len(self.times)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        return np.asarray(self.times), np.asarray(self.values)

    def time_average(self, until: float | None = None) -> float:
        """Time-weighted mean of a piecewise-constant series."""
        if not self.times:
            raise ValueError("empty time series")
        import numpy as np

        t, v = self.as_arrays()
        end = until if until is not None else t[-1]
        if end <= t[0]:
            return float(v[0])
        t = np.append(t, end)
        widths = np.diff(t)
        return float(np.sum(widths * v) / (end - self.times[0]))


def _percentile(ordered: list[float], q: float) -> float:
    """``np.percentile(ordered, q)`` (default ``linear`` method), bit for bit.

    The same arithmetic in the same order as NumPy's: a virtual index
    into the sorted sample, then a lerp between its two neighbours that
    switches form at ``t >= 0.5`` so both end points are hit exactly.
    ``ordered`` must be sorted, non-empty and NaN-free, ``q`` within
    [0, 100].
    """
    n = len(ordered)
    virtual = (n - 1) * (q / 100)
    lower = min(math.floor(virtual), n - 1)
    a, b = ordered[lower], ordered[min(lower + 1, n - 1)]
    t = virtual - lower
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


class Histogram:
    """Unordered value samples with percentile summaries (RPC latencies).

    Unlike :class:`TimeSeries` there is no time axis -- concurrent RPC
    completions land in any order.  Recording takes a per-histogram lock
    (append plus occasional compaction must be atomic against readers).

    **Bounded memory.**  The histogram keeps at most ``max_samples``
    retained values; ``count``/``total``/``min``/``max`` (and therefore
    ``mean``) stay *exact* no matter how many values were recorded.
    Past the cap, retention degrades deterministically: the reservoir
    keeps every ``stride``-th recorded value and, whenever it fills,
    drops every other retained value and doubles the stride.  No RNG is
    involved, so two runs recording the same sequence retain the same
    reservoir -- percentiles beyond the cap are approximate (a uniform
    systematic sample of the record stream) but reproducible.  The
    default cap is high enough that every in-repo test and bench records
    fewer values than the cap and sees exact percentiles.
    """

    DEFAULT_MAX_SAMPLES = 65536

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.max_samples = int(max_samples)
        self._samples: list[float] = []
        self._stride = 1
        self._count = 0
        self._total = 0.0
        self._min: float | None = None
        self._max: float | None = None
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        value = float(value)
        with self._lock:
            position = self._count
            self._count += 1
            self._total += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if position % self._stride:
                return
            self._samples.append(value)
            if len(self._samples) >= self.max_samples:
                # Keep positions 0, 2*stride, 4*stride, ... -- exactly the
                # multiples of the doubled stride -- so the invariant
                # "retained = every stride-th recorded value" survives.
                del self._samples[1::2]
                self._stride *= 2

    @property
    def count(self) -> int:
        """Exact number of recorded values (not the retained subset size)."""
        return self._count

    @property
    def samples(self) -> list[float]:
        """The retained reservoir (a copy; at most ``max_samples`` long)."""
        with self._lock:
            return list(self._samples)

    @property
    def retained(self) -> int:
        """How many values the reservoir currently holds (<= ``max_samples``)."""
        return len(self._samples)

    def mean(self) -> float:
        """Exact mean of everything recorded (total/count, not reservoir)."""
        return self._total / self._count if self._count else 0.0

    def total(self) -> float:
        """Exact sum of every recorded sample (e.g. bytes across
        re-replication batches -- must equal the matching byte counter)."""
        return self._total

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of everything recorded; 0 when empty.

        ``q=0`` and ``q=100`` are exact (tracked min/max); interior
        percentiles are exact below the reservoir cap and a deterministic
        approximation past it.
        """
        return self._percentiles((q,))[0]

    def _percentiles(self, qs: tuple[float, ...]) -> list[float]:
        """Several percentiles of one snapshot, sorting it at most once."""
        with self._lock:
            if not self._count:
                return [0.0] * len(qs)
            low, high = float(self._min), float(self._max)  # type: ignore[arg-type]
            retained = list(self._samples)
        ordered = sorted(retained) if any(0 < q < 100 for q in qs) else retained
        return [low if q <= 0 else high if q >= 100 else _percentile(ordered, q)
                for q in qs]

    def summary(self) -> dict[str, float]:
        p50, p90, p99, top = self._percentiles((50.0, 90.0, 99.0, 100.0))
        return {
            "count": float(self.count),
            "mean": self.mean(),
            "p50": p50,
            "p90": p90,
            "p99": p99,
            "max": top,
        }


class ServiceTimeTracker:
    """EWMA plus running percentiles over one phase's task service times.

    The straggler detector needs two views of "how long do this job's
    map attempts take": a smoothed recent average (the EWMA, for health
    scoring) and a robust population mid-point (the p50, which a single
    straggler cannot drag the way it drags a mean).  Both ride one
    bounded :class:`Histogram` reservoir, so a job with millions of
    tasks tracks service times in constant memory.

    Only settled (successfully completed) attempts are observed -- a
    straggler that never finishes must not raise the bar that would have
    flagged it.
    """

    def __init__(self, alpha: float = 0.2,
                 max_samples: int = Histogram.DEFAULT_MAX_SAMPLES) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._hist = Histogram(max_samples=max_samples)
        self._ewma: float | None = None

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        if seconds < 0:
            raise ValueError(f"service time must be non-negative, got {seconds}")
        self._hist.record(seconds)
        if self._ewma is None:
            self._ewma = seconds
        else:
            self._ewma += self.alpha * (seconds - self._ewma)

    @property
    def count(self) -> int:
        return self._hist.count

    @property
    def ewma(self) -> float:
        return 0.0 if self._ewma is None else self._ewma

    def percentile(self, q: float) -> float:
        return self._hist.percentile(q)

    @property
    def p50(self) -> float:
        return self._hist.percentile(50.0)


class MetricsRegistry:
    """Name-addressed counters/gauges/series shared by a simulation run.

    The cluster data plane exports two load-bearing gauges here:
    ``rpc.in_flight`` (per-connection window occupancy; its peak must
    never exceed ``net.max_in_flight``) and ``rpc.stream_pages`` (pages
    buffered toward streamed responses under reassembly).  ``peak(name)``
    reads a gauge's historical maximum -- the number the backpressure
    and bounded-memory assertions check.

    Writer accessors (:meth:`counter`, :meth:`gauge`, ...) get-or-create
    under a registry lock, so two threads first-touching the same name
    always share one object.  Read paths (:meth:`peak`, :meth:`ratio`,
    :meth:`snapshot`, :meth:`export`) are strictly non-creating: a
    scrape or report never changes the registry's key set, and iterating
    over a point-in-time copy of the key lists keeps a snapshot safe
    while writers register new metrics concurrently.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.series: dict[str, TimeSeries] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            with self._lock:
                c = self.counters.setdefault(name, Counter())
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            with self._lock:
                g = self.gauges.setdefault(name, Gauge())
        return g

    def peak(self, name: str) -> float:
        """Highest value the named gauge ever held (0.0 if never set)."""
        g = self.gauges.get(name)
        return 0.0 if g is None else g.max_seen

    def timeseries(self, name: str) -> TimeSeries:
        ts = self.series.get(name)
        if ts is None:
            with self._lock:
                ts = self.series.setdefault(name, TimeSeries())
        return ts

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            with self._lock:
                h = self.histograms.setdefault(name, Histogram())
        return h

    def ratio(self, hits: str, total: str) -> float:
        """``counters[hits] / counters[total]`` (0 when the denominator is 0,
        without creating either entry)."""
        denom_c = self.counters.get(total)
        denom = denom_c.value if denom_c is not None else 0.0
        if not denom:
            return 0.0
        hits_c = self.counters.get(hits)
        return (hits_c.value if hits_c is not None else 0.0) / denom

    def snapshot(self) -> dict[str, float]:
        """Flat dict of all counter/gauge values and histogram summaries.

        Purely observational: reading it never creates entries, and
        histograms export their full ``summary()`` (count/mean/p50/p90/
        p99/max), not just a median.
        """
        out: dict[str, float] = {}
        for name, c in list(self.counters.items()):
            out[name] = c.value
        for name, g in list(self.gauges.items()):
            out[f"{name} (gauge)"] = g.value
        for name, h in list(self.histograms.items()):
            for stat, value in h.summary().items():
                out[f"{name} ({stat})"] = value
        return out

    def export(self) -> dict[str, dict]:
        """Structured, non-creating snapshot for the observability plane.

        ``{"counters": {name: value}, "gauges": {name: {value,max,min}},
        "histograms": {name: summary}}`` -- everything JSON-encodable, no
        live objects leak out.
        """
        return {
            "counters": {name: c.value for name, c in list(self.counters.items())},
            "gauges": {
                name: {"value": g.value, "max": g.max_seen, "min": g.min_seen}
                for name, g in list(self.gauges.items())
            },
            "histograms": {
                name: h.summary() for name, h in list(self.histograms.items())
            },
        }

    @staticmethod
    def stddev(samples: Iterable[float]) -> float:
        """Population standard deviation (``ndarray.std()``); 0 when empty."""
        values = [float(v) for v in samples]
        if not values:
            return 0.0
        mean = math.fsum(values) / len(values)
        return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))
