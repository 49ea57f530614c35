"""Tests for the metrics primitives and the NameNode model."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SimulationError
from repro.baselines.hdfs import NameNodeModel
from repro.sim.engine import AllOf, Simulation
from repro.sim.metrics import Counter, Gauge, Histogram, MetricsRegistry, TimeSeries


class TestCounter:
    def test_increments(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_decrease(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_tracks_extremes(self):
        g = Gauge()
        g.set(5)
        g.set(-2)
        g.set(3)
        assert g.value == 3
        assert g.max_seen == 5
        assert g.min_seen == -2

    def test_add(self):
        g = Gauge()
        g.add(4)
        g.add(-1)
        assert g.value == 3

    def test_never_set_extremes_are_zero(self):
        # Regression: these used to report -inf/+inf before any set().
        g = Gauge()
        assert g.max_seen == 0.0
        assert g.min_seen == 0.0

    def test_initial_value_does_not_count_as_observation(self):
        g = Gauge(7.0)
        assert g.max_seen == 0.0
        g.set(3.0)
        assert g.max_seen == 3.0
        assert g.min_seen == 3.0

    def test_concurrent_add_loses_no_updates(self):
        # Regression: add() was an unlocked read-modify-write, so two
        # writer threads (scheduler + RPC readers) could both read the
        # same old value and one increment would vanish.
        g = Gauge()
        threads_n, per_thread = 8, 5000

        def hammer():
            for _ in range(per_thread):
                g.add(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert g.value == threads_n * per_thread
        assert g.max_seen == threads_n * per_thread

    def test_concurrent_set_extremes_stay_possible(self):
        # max_seen/min_seen must only ever hold values some writer set.
        g = Gauge()
        values = list(range(-50, 51))

        def hammer(offset):
            for v in values:
                g.set(float(v + offset))

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert g.max_seen == max(values) + 3
        assert g.min_seen == min(values)


class TestHistogram:
    def test_exact_below_cap(self):
        h = Histogram()
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            h.record(v)
        assert h.count == 5
        assert h.total() == 15.0
        assert h.mean() == 3.0
        assert h.percentile(0) == 1.0
        assert h.percentile(50) == 3.0
        assert h.percentile(100) == 5.0

    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.total() == 0.0
        assert h.percentile(50) == 0.0
        assert h.summary()["max"] == 0.0

    def test_memory_bounded_over_a_million_records(self):
        # Regression: every sample used to be kept forever -- unbounded
        # memory in a long-running coordinator.  A small cap keeps the
        # test fast; the invariant is cap-independent.
        cap = 1024
        h = Histogram(max_samples=cap)
        n = 1_000_000
        for i in range(n):
            h.record(float(i % 1000))
        assert h.retained <= cap
        assert len(h.samples) <= cap
        # Exactness survives the bounded reservoir.
        assert h.count == n
        assert h.total() == float(sum(i % 1000 for i in range(n)))
        assert h.percentile(0) == 0.0
        assert h.percentile(100) == 999.0
        # Percentiles are approximate past the cap but must stay sane.
        assert 400.0 <= h.percentile(50) <= 600.0

    def test_eviction_is_deterministic(self):
        seq = [float((i * 37) % 101) for i in range(10_000)]
        a, b = Histogram(max_samples=64), Histogram(max_samples=64)
        for v in seq:
            a.record(v)
            b.record(v)
        assert a.samples == b.samples
        assert a.summary() == b.summary()

    def test_default_cap_high_enough_for_exact_bench_values(self):
        # Everything in-repo records far fewer samples than the default
        # cap, so existing tests/benches keep seeing exact percentiles.
        h = Histogram()
        for i in range(10_000):
            h.record(float(i))
        assert h.retained == 10_000
        assert h.percentile(50) == pytest.approx(4999.5)

    def test_rejects_tiny_cap(self):
        with pytest.raises(ValueError):
            Histogram(max_samples=1)

    @given(
        values=st.lists(st.floats(allow_nan=False), min_size=1, max_size=40),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_percentile_is_numpys_bit_for_bit(self, values, q):
        """Percentiles are computed without NumPy (no worker imports it to
        answer a scrape) and must not differ from it in any bit -- the
        infinities included, where both sides interpolate to NaN."""
        h = Histogram()
        for v in values:
            h.record(v)
        with np.errstate(invalid="ignore", over="ignore"):
            want = float(np.percentile(np.asarray(values, dtype=float), q))
        if q <= 0 or q >= 100:  # the exact tracked extremes, never NaN
            want = min(values) if q <= 0 else max(values)
        got = h.percentile(q)
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_concurrent_record_keeps_exact_totals(self):
        h = Histogram(max_samples=128)
        threads_n, per_thread = 8, 2000

        def hammer():
            for _ in range(per_thread):
                h.record(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == threads_n * per_thread
        assert h.total() == float(threads_n * per_thread)
        assert h.retained <= 128


class TestTimeSeries:
    def test_record_and_len(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        ts.record(1.0, 2.0)
        assert len(ts) == 2

    def test_rejects_out_of_order(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)

    def test_time_average_piecewise_constant(self):
        ts = TimeSeries()
        ts.record(0.0, 10.0)  # 10 for [0, 2)
        ts.record(2.0, 0.0)   # 0 for [2, 4)
        assert ts.time_average(until=4.0) == pytest.approx(5.0)

    def test_time_average_empty_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries().time_average()

    def test_as_arrays(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        t, v = ts.as_arrays()
        assert t.shape == v.shape == (1,)


class TestMetricsRegistry:
    def test_name_addressed(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(3)
        reg.counter("total").inc(4)
        assert reg.ratio("hits", "total") == pytest.approx(0.75)

    def test_ratio_zero_denominator(self):
        reg = MetricsRegistry()
        assert reg.ratio("a", "b") == 0.0

    def test_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(7)
        snap = reg.snapshot()
        assert snap["c"] == 1.0
        assert snap["g (gauge)"] == 7.0

    def test_stddev_helper(self):
        assert MetricsRegistry.stddev([1, 1, 1]) == 0.0
        assert MetricsRegistry.stddev([]) == 0.0

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_stddev_is_the_population_std(self, values):
        want = float(np.asarray(values, dtype=float).std()) if values else 0.0
        assert MetricsRegistry.stddev(values) == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_read_paths_do_not_create_entries(self):
        # Regression: peak/ratio/snapshot went through defaultdict
        # lookups, so a scrape materialized empty entries and changed the
        # key set the next snapshot reported.
        reg = MetricsRegistry()
        reg.counter("real").inc()
        assert reg.peak("never.set") == 0.0
        assert reg.ratio("no.hits", "no.total") == 0.0
        assert reg.ratio("no.hits", "real") == 0.0
        snap = reg.snapshot()
        reg.export()
        assert "never.set" not in reg.gauges
        assert "no.hits" not in reg.counters
        assert "no.total" not in reg.counters
        assert set(reg.counters) == {"real"}
        assert reg.snapshot() == snap

    def test_snapshot_exports_full_histogram_summary(self):
        reg = MetricsRegistry()
        for v in [1.0, 2.0, 3.0, 10.0]:
            reg.histogram("lat").record(v)
        snap = reg.snapshot()
        assert snap["lat (count)"] == 4.0
        assert snap["lat (mean)"] == 4.0
        assert snap["lat (p50)"] == 2.5
        assert snap["lat (max)"] == 10.0
        assert "lat (p90)" in snap and "lat (p99)" in snap

    def test_export_is_structured_and_json_safe(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(-1.5)
        reg.histogram("h").record(4.0)
        out = reg.export()
        assert out["counters"] == {"c": 2.0}
        assert out["gauges"]["g"] == {"value": -1.5, "max": -1.5, "min": -1.5}
        assert out["histograms"]["h"]["count"] == 1.0
        json.dumps(out)  # nothing live leaks out

    def test_accessors_share_one_object_across_threads(self):
        reg = MetricsRegistry()
        seen = []

        def touch():
            seen.append(reg.counter("shared"))

        threads = [threading.Thread(target=touch) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is seen[0] for c in seen)


class TestNameNodeModel:
    def test_serializes_concurrent_lookups(self):
        sim = Simulation()
        nn = NameNodeModel(sim, lookup_time=1.0)

        def client(sim, nn):
            yield from nn.lookup()

        def body(sim, nn):
            yield AllOf([sim.process(client(sim, nn)) for _ in range(5)])

        sim.run(sim.process(body(sim, nn)))
        # Five serialized 1 s operations: the last finishes at t = 5.
        assert sim.now == pytest.approx(5.0)
        assert nn.operations == 5

    def test_mean_wait_grows_with_contention(self):
        sim = Simulation()
        nn = NameNodeModel(sim, lookup_time=0.5)

        def client(sim, nn):
            yield from nn.lookup()

        def body(sim, nn):
            yield AllOf([sim.process(client(sim, nn)) for _ in range(10)])

        sim.run(sim.process(body(sim, nn)))
        # Waits are 0, .5, 1.0, ... 4.5 -> mean 2.25.
        assert nn.mean_wait == pytest.approx(2.25)

    def test_mean_wait_zero_when_uncontended(self):
        sim = Simulation()
        nn = NameNodeModel(sim, lookup_time=0.1)

        def body(sim, nn):
            yield from nn.lookup()
            yield from nn.lookup()

        sim.run(sim.process(body(sim, nn)))
        assert nn.mean_wait == 0.0

    def test_invalid_lookup_time(self):
        with pytest.raises(SimulationError):
            NameNodeModel(Simulation(), lookup_time=0)
