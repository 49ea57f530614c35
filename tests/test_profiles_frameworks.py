"""Unit tests for application profiles and framework models."""

import pytest

from repro.common.errors import SchedulingError
from repro.common.hashing import HashSpace
from repro.common.units import GB, KB, MB
from repro.dht.ring import ConsistentHashRing
from repro.perfmodel.framework import (
    eclipse_framework,
    hadoop_framework,
    spark_framework,
)
from repro.perfmodel.profiles import APP_PROFILES, AppProfile
from repro.scheduler.delay import DelayScheduler
from repro.scheduler.fair import FairScheduler
from repro.scheduler.laf import LAFScheduler


class TestAppProfiles:
    def test_all_seven_apps_present(self):
        assert set(APP_PROFILES) == {
            "grep", "sort", "wordcount", "invertedindex",
            "kmeans", "logreg", "pagerank",
        }

    def test_cpu_seconds(self):
        p = APP_PROFILES["wordcount"]
        assert p.map_cpu_seconds(35 * MB) == pytest.approx(1.0)
        assert p.reduce_cpu_seconds(80 * MB) == pytest.approx(1.0)

    def test_sort_shuffles_everything(self):
        assert APP_PROFILES["sort"].shuffle_ratio == 1.0

    def test_kmeans_iteration_output_is_tiny(self):
        p = APP_PROFILES["kmeans"]
        assert p.iteration_output_bytes(250 * GB) == p.iteration_output_floor
        assert p.iteration_output_floor <= 4 * KB

    def test_pagerank_iteration_output_matches_input(self):
        p = APP_PROFILES["pagerank"]
        assert p.iteration_output_bytes(15 * GB) == 15 * GB

    def test_iterative_apps_compute_heavier_than_grep(self):
        for app in ("kmeans", "logreg", "pagerank"):
            assert APP_PROFILES[app].map_rate < APP_PROFILES["grep"].map_rate

    def test_jvm_sensitivity_bounds(self):
        for p in APP_PROFILES.values():
            assert 0.0 <= p.jvm_sensitivity <= 1.0
        # The paper credits C++ speed specifically for kmeans/logreg.
        assert APP_PROFILES["kmeans"].jvm_sensitivity == 1.0
        assert APP_PROFILES["pagerank"].jvm_sensitivity == 0.0


class TestFrameworkModels:
    def _ring(self, n=4):
        space = HashSpace(1 << 32)
        ring = ConsistentHashRing(space)
        servers = list(range(n))
        for i in servers:
            ring.add_node(i, space.key_of(f"node-{i}"))
        return space, servers, ring

    def test_eclipse_laf_scheduler(self):
        space, servers, ring = self._ring()
        fw = eclipse_framework("laf")
        sched = fw.make_scheduler(space, servers, ring)
        assert isinstance(sched, LAFScheduler)
        assert fw.shuffle_mode == "proactive"
        assert not fw.metadata_central
        assert fw.task_overhead < 1.0

    def test_eclipse_delay_scheduler(self):
        space, servers, ring = self._ring()
        fw = eclipse_framework("delay")
        sched = fw.make_scheduler(space, servers, ring)
        assert isinstance(sched, DelayScheduler)
        assert sched.ring is ring

    def test_eclipse_unknown_scheduler_rejected(self):
        with pytest.raises(SchedulingError, match="unknown scheduler 'fifo'"):
            eclipse_framework("fifo")

    def test_hadoop_model(self):
        space, servers, ring = self._ring()
        fw = hadoop_framework()
        assert isinstance(fw.make_scheduler(space, servers, ring), FairScheduler)
        assert fw.task_overhead == 7.0  # the paper's YARN container cost
        assert fw.metadata_central
        assert fw.shuffle_mode == "pull"
        assert not fw.cache_input_blocks
        assert fw.replication == 3

    def test_spark_model(self):
        space, servers, ring = self._ring()
        fw = spark_framework()
        sched = fw.make_scheduler(space, servers, ring)
        assert isinstance(sched, DelayScheduler)
        assert sched.config.delay_wait == 5.0
        assert fw.shuffle_mode == "memory"
        assert not fw.persist_iteration_outputs
        assert fw.rdd_build_rate > 0
        assert fw.cache_input_blocks

    def test_jvm_frameworks_slower_compute(self):
        assert eclipse_framework().compute_efficiency == 1.0
        assert hadoop_framework().compute_efficiency < 1.0
        assert spark_framework().compute_efficiency < 1.0

    def test_laf_ring_alignment(self):
        """The initial LAF hash key table matches the ring's arcs exactly
        (rotated partition), so first-touch reads are node-local."""
        space, servers, ring = self._ring(8)
        sched = LAFScheduler(space, servers, ring=ring)
        for i in range(400):
            key = space.key_of(f"probe{i}")
            assert sched.partition.owner_of(key) == ring.owner_of(key)

    def test_laf_ring_mismatch_rejected(self):
        from repro.common.errors import SchedulingError

        space, servers, ring = self._ring(4)
        with pytest.raises(SchedulingError):
            LAFScheduler(space, ["not-on-ring"], ring=ring)
