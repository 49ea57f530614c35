"""Cross-plane validation: the functional engine and the performance
model must agree on timing-independent quantities, and all three
execution planes (sequential, thread-parallel, multi-process cluster)
must produce identical results even when reduce outputs are large
enough to stream on the cluster's wire."""

import pytest

from repro.cluster import ClusterRuntime
from repro.common.config import CacheConfig, ClusterConfig, DFSConfig, NetConfig
from repro.common.errors import SchedulingError
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.parallel import ParallelEclipseMRRuntime
from repro.mapreduce.runtime import EclipseMRRuntime, FailureInjector
from repro.perfmodel.validation import compare_planes


class TestCrossPlane:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_planes(num_workers=8, blocks=24, repeats=3)

    def test_hit_ratios_agree(self, comparison):
        """Repeated scans of a fully cache-resident dataset: after the cold
        first scan, everything hits.  Both planes should land near
        (repeats-1)/repeats = 2/3."""
        assert comparison.functional_hit_ratio == pytest.approx(2 / 3, abs=0.05)
        assert comparison.simulated_hit_ratio == pytest.approx(2 / 3, abs=0.05)
        assert comparison.hit_ratio_gap < 0.05

    def test_assignment_spread_agrees(self, comparison):
        """With identical ring positions, block keys and scheduler config,
        the two planes make the *same* assignment sequence: the spread
        matches exactly."""
        assert comparison.cv_gap < 1e-9

    def test_repartition_counts_agree(self, comparison):
        """Same window size, same task count -> same number of re-cuts."""
        assert comparison.functional_repartitions == comparison.simulated_repartitions

    def test_delay_scheduler_plane_agreement(self):
        cmp = compare_planes(num_workers=6, blocks=18, repeats=2, scheduler="delay")
        assert cmp.functional_hit_ratio == pytest.approx(0.5, abs=0.06)
        assert cmp.simulated_hit_ratio == pytest.approx(0.5, abs=0.06)


class TestThreePlaneStreaming:
    """The same big-output wordcount on every execution plane.

    The cluster plane's frame limit is shrunk so each worker's reduce
    output *must* take the paged streaming path; the sequential and
    thread-parallel planes have no wire at all.  All three answers must
    be identical -- the transport is invisible to results.
    """

    CFG = ClusterConfig(
        dfs=DFSConfig(block_size=2048),
        net=NetConfig(max_frame_bytes=16 * 1024, stream_page_bytes=1024),
    )

    @staticmethod
    def corpus() -> bytes:
        words = [f"planeword-{i:05d}-{'y' * 12}" for i in range(3000)]
        return " ".join(words[i % len(words)] for i in range(6000)).encode()

    @staticmethod
    def job(app_id: str) -> MapReduceJob:
        def wc_map(block):
            for token in bytes(block).decode().split():
                yield token, 1

        def wc_reduce(key, values):
            return sum(values)

        return MapReduceJob(app_id=app_id, input_file="planes.txt",
                            map_fn=wc_map, reduce_fn=wc_reduce)

    def test_all_planes_agree_on_streamed_output(self):
        data = self.corpus()

        seq = EclipseMRRuntime(3, config=self.CFG)
        seq.upload("planes.txt", data)
        ref = seq.run(self.job("planes-seq"))

        par = ParallelEclipseMRRuntime(3, config=self.CFG, max_workers=4)
        par.upload("planes.txt", data)
        threaded = par.run(self.job("planes-par"))

        with ClusterRuntime(3, self.CFG) as rt:
            rt.upload("planes.txt", data)
            clustered = rt.run(self.job("planes-cluster"))
            streamed = rt.metrics.counter("rpc.streams_completed").value

        assert threaded.output == ref.output
        assert clustered.output == ref.output
        assert threaded.stats.tasks_per_server == ref.stats.tasks_per_server
        assert clustered.stats.tasks_per_server == ref.stats.tasks_per_server
        assert streamed >= 1  # the cluster plane really streamed


class TestShuffleAccountingIsPinned:
    """``spills`` and ``bytes_shuffled`` of the stock jobs on a fixed input,
    pinned to the numbers the per-pair emit path produced before
    destinations and sizes were memoised (PR 12): a low-cardinality word
    count, where the memo serves nearly every pair, with and without
    cross-spill combining, and a sort whose ~600 distinct records per
    task make it switch itself off half way through each map."""

    CFG = ClusterConfig(dfs=DFSConfig(block_size=16384))
    # job -> (map tasks, spills, bytes_shuffled, spill_recombines, keys)
    PINNED = {
        "wc": (6, 305, 306805, 0, 60),
        "wc-xspill": (6, 18, 13895, 1891, 60),
        "sort": (6, 146, 144805, 0, 2999),
    }

    @staticmethod
    def job(name: str, plane: str) -> MapReduceJob:
        from repro.apps.sort_app import sort_job
        from repro.apps.wordcount import wordcount_job

        make = sort_job if name == "sort" else wordcount_job
        return make("pin.txt", app_id=f"pin-{name}-{plane}", spill_buffer_bytes=1024,
                    cross_spill_combine=name == "wc-xspill")

    def test_every_plane_reports_the_pinned_numbers(self):
        from repro.apps.workloads import pack_records, text_corpus

        data = pack_records(
            text_corpus(12, num_words=12000, vocab_size=60, words_per_line=4), 16384)
        seq = EclipseMRRuntime(3, config=self.CFG)
        par = ParallelEclipseMRRuntime(3, config=self.CFG, max_workers=2)
        with ClusterRuntime(3, self.CFG) as rt:
            planes = {"seq": seq, "par": par, "cluster": rt}
            for plane in planes.values():
                plane.upload("pin.txt", data)
            for name, pinned in self.PINNED.items():
                for label, plane in planes.items():
                    res = plane.run(self.job(name, label))
                    got = (res.stats.map_tasks, res.stats.spills, res.stats.bytes_shuffled,
                           res.stats.spill_recombines, len(res.output))
                    assert got == pinned, (name, label)

    def test_a_retried_map_counts_only_its_winning_attempt(self):
        """One word, one spill per pair, and block 0's first attempt
        failed after pushing its first spill: the shuffle is that of the
        one attempt that won, on both in-process planes."""
        def wc_map(block):
            for word in block.decode().split():
                yield word, 1

        for plane in (EclipseMRRuntime, ParallelEclipseMRRuntime):
            rt = plane(3, config=ClusterConfig(dfs=DFSConfig(block_size=16)),
                       failure_injector=FailureInjector({("pin-retry", 0): 1}))
            rt.upload("w0.txt", b"w0 ")
            res = rt.run(MapReduceJob("pin-retry", "w0.txt", wc_map,
                                      lambda key, values: sum(values),
                                      spill_buffer_bytes=1))
            got = (res.stats.map_tasks, res.stats.spills, res.stats.bytes_shuffled,
                   res.stats.spill_recombines, len(res.output), res.stats.task_retries)
            assert got == (1, 1, 21, 0, 1, 1), plane.__name__


class TestAFailedJobLeavesNothingBehind:
    """A job whose mapper raises half way must not leak its pushed pairs
    into the next run of the same app id.

    The in-process planes drop the job's intermediates however ``run``
    ends.  The cluster plane pins its own, different mechanism: its
    failed job leaves spills on the workers, and the next submission of
    the app clears them with the ``discard_job`` broadcast it sends when
    it activates."""

    CFG = ClusterConfig(dfs=DFSConfig(block_size=64))
    WORDS = " ".join(f"w{i}" for i in range(200)).encode() + b" "

    @staticmethod
    def wc_map(block):
        for word in bytes(block).decode().split():
            yield word, 1

    @staticmethod
    def wc_reduce(key, values):
        return sum(values)

    def jobs(self):
        emitted = [0]

        def failing_map(block):
            for pair in self.wc_map(block):
                emitted[0] += 1
                if emitted[0] >= 60:
                    raise RuntimeError("mapper failed on its 60th pair")
                yield pair

        failing = MapReduceJob("app", "words.txt", failing_map, self.wc_reduce,
                               spill_buffer_bytes=1)
        follow_up = MapReduceJob("app", "xyz.txt", self.wc_map, self.wc_reduce,
                                 spill_buffer_bytes=1)
        return failing, follow_up

    def test_the_next_run_of_the_app_sees_only_its_own_pairs(self):
        seq = EclipseMRRuntime(3, config=self.CFG)
        par = ParallelEclipseMRRuntime(3, config=self.CFG, max_workers=2)
        with ClusterRuntime(3, self.CFG) as cluster:
            for plane in (seq, par, cluster):
                plane.upload("words.txt", self.WORDS)
                plane.upload("xyz.txt", b"x y z ")
                failing, follow_up = self.jobs()
                with pytest.raises(Exception, match="60th pair"):
                    plane.run(failing)
                if plane is not cluster:
                    assert all(not w.intermediates.job_ids()
                               for w in plane.workers.values())
                assert plane.run(follow_up).output == {"x": 1, "y": 1, "z": 1}


class TestUnknownSchedulerName:
    @pytest.mark.parametrize("plane", [EclipseMRRuntime, ParallelEclipseMRRuntime,
                                       ClusterRuntime])
    def test_is_rejected_before_anything_starts(self, plane):
        with pytest.raises(SchedulingError, match="unknown scheduler 'fifo'"):
            plane(2, scheduler="fifo")


class TestThreePlaneIntermediateReuse:
    """The same cached-then-replayed wordcount on every execution plane.

    Each plane runs the job twice with ``cache_intermediates`` and
    ``reuse_intermediates`` on: the first run maps normally and tags its
    spills; the second must skip *every* map, replay the shuffle from
    oCache / persisted spill objects, and agree with the others on both
    the output and the replayed shuffle accounting.
    """

    CFG = ClusterConfig(dfs=DFSConfig(block_size=2048))

    @staticmethod
    def corpus() -> bytes:
        from repro.apps.workloads import pack_records, text_corpus

        return pack_records(text_corpus(11, num_words=2400, vocab_size=40), 2048)

    @staticmethod
    def job(app_id: str) -> MapReduceJob:
        def wc_map(block):
            for token in bytes(block).decode().split():
                yield token, 1

        def wc_reduce(key, values):
            return sum(values)

        return MapReduceJob(app_id=app_id, input_file="reuse.txt",
                            map_fn=wc_map, reduce_fn=wc_reduce,
                            cache_intermediates=True,
                            reuse_intermediates=True)

    def test_all_planes_agree_on_replayed_run(self):
        data = self.corpus()

        seq = EclipseMRRuntime(3, config=self.CFG)
        seq.upload("reuse.txt", data)
        seq_first = seq.run(self.job("planes-reuse"))
        seq_second = seq.run(self.job("planes-reuse"))

        par = ParallelEclipseMRRuntime(3, config=self.CFG, max_workers=4)
        par.upload("reuse.txt", data)
        par.run(self.job("planes-reuse"))
        par_second = par.run(self.job("planes-reuse"))

        with ClusterRuntime(3, self.CFG) as rt:
            rt.upload("reuse.txt", data)
            cl_first = rt.run(self.job("planes-reuse"))
            cl_second = rt.run(self.job("planes-reuse"))

        blocks = seq_first.stats.map_tasks
        assert blocks > 1
        assert cl_first.output == seq_first.output
        for second in (seq_second, par_second, cl_second):
            assert second.output == seq_first.output
            assert second.stats.maps_skipped_by_reuse == blocks
            assert second.stats.map_tasks == 0
        # The replayed shuffle's accounting matches the original run's
        # (and therefore each other's) on every plane.
        assert seq_second.stats.spills == seq_first.stats.spills > 0
        assert cl_second.stats.spills == seq_second.stats.spills
        assert par_second.stats.spills == seq_second.stats.spills
        assert cl_second.stats.bytes_shuffled == seq_second.stats.bytes_shuffled > 0
        assert par_second.stats.bytes_shuffled == seq_second.stats.bytes_shuffled
        assert par_second.stats.tasks_per_server == seq_second.stats.tasks_per_server
        assert cl_second.stats.tasks_per_server == seq_second.stats.tasks_per_server


class TestThreePlaneElasticMembership:
    """Elastic membership must be invisible to results on every plane.

    A job, a live join, then the identical job again: the second run has
    to be bit-equal across the sequential, thread-parallel, and
    multi-process planes.  And an *idle* join or drain followed by a job
    must be bit-equal to a fresh cluster of the resulting size -- the
    pristine hash key table re-seeds from the post-change ring exactly as
    a fresh construction would.
    """

    CFG = ClusterConfig(dfs=DFSConfig(block_size=2048))

    @staticmethod
    def corpus() -> bytes:
        from repro.apps.workloads import pack_records, text_corpus

        return pack_records(text_corpus(23, num_words=2400, vocab_size=50), 2048)

    @staticmethod
    def job(app_id: str) -> MapReduceJob:
        def wc_map(block):
            for token in bytes(block).decode().split():
                yield token, 1

        def wc_reduce(key, values):
            return sum(values)

        return MapReduceJob(app_id=app_id, input_file="elastic.txt",
                            map_fn=wc_map, reduce_fn=wc_reduce)

    def test_join_then_rerun_agrees_across_planes(self):
        data = self.corpus()

        seq = EclipseMRRuntime(3, config=self.CFG)
        seq.upload("elastic.txt", data)
        seq_first = seq.run(self.job("elastic-seq"))
        assert seq.join_worker() == "worker-3"
        seq_second = seq.run(self.job("elastic-seq-2"))

        par = ParallelEclipseMRRuntime(3, config=self.CFG, max_workers=4)
        par.upload("elastic.txt", data)
        par_first = par.run(self.job("elastic-par"))
        assert par.join_worker() == "worker-3"
        par_second = par.run(self.job("elastic-par-2"))

        with ClusterRuntime(3, self.CFG) as rt:
            rt.upload("elastic.txt", data)
            cl_first = rt.run(self.job("elastic-cl"))
            assert rt.join_worker() == "worker-3"
            handed = rt.metrics.counter("membership.blocks_handed_off").value
            cl_second = rt.run(self.job("elastic-cl-2"))

        assert handed > 0  # the cluster join really streamed blocks
        for first in (par_first, cl_first):
            assert first.output == seq_first.output
            assert first.stats.tasks_per_server == seq_first.stats.tasks_per_server
        # The post-join re-run is bit-equal plane to plane: same outputs,
        # same placement over the *grown* worker set, same shuffle volume.
        assert seq_second.output == seq_first.output
        for second in (par_second, cl_second):
            assert second.output == seq_second.output
            assert second.stats.tasks_per_server == \
                seq_second.stats.tasks_per_server
            assert second.stats.spills == seq_second.stats.spills
            assert second.stats.bytes_shuffled == seq_second.stats.bytes_shuffled
        assert "worker-3" in seq_second.stats.tasks_per_server

    def test_idle_join_matches_a_fresh_cluster(self):
        """Join before any data exists: placement, hash key table, and
        therefore the whole job must be byte-identical to a fresh
        4-worker cluster."""
        data = self.corpus()

        fresh = EclipseMRRuntime(4, config=self.CFG)
        fresh.upload("elastic.txt", data)
        ref = fresh.run(self.job("elastic-fresh4"))

        grown = EclipseMRRuntime(3, config=self.CFG)
        assert grown.join_worker() == "worker-3"
        grown.upload("elastic.txt", data)
        res = grown.run(self.job("elastic-grown4"))
        assert res.output == ref.output
        assert res.stats == ref.stats

        with ClusterRuntime(3, self.CFG) as rt:
            assert rt.join_worker() == "worker-3"
            rt.upload("elastic.txt", data)
            cl = rt.run(self.job("elastic-cl-grown4"))
        assert cl.output == ref.output
        assert cl.stats == ref.stats

    def test_idle_drain_matches_a_fresh_cluster(self):
        """Drain on an idle (but loaded) cluster, then run: bit-equal to a
        fresh cluster built from the surviving ids.  The drain handoff
        restored full replication first, so even block reads match."""
        data = self.corpus()

        fresh = EclipseMRRuntime(["worker-0", "worker-2"], config=self.CFG)
        fresh.upload("elastic.txt", data)
        ref = fresh.run(self.job("elastic-fresh2"))

        shrunk = EclipseMRRuntime(3, config=self.CFG)
        shrunk.upload("elastic.txt", data)
        shrunk.drain_worker("worker-1")
        res = shrunk.run(self.job("elastic-shrunk2"))
        assert res.output == ref.output
        assert res.stats == ref.stats

        with ClusterRuntime(3, self.CFG) as rt:
            rt.upload("elastic.txt", data)
            rt.drain_worker("worker-1")
            assert rt.metrics.counter("cluster.failovers").value == 0
            cl = rt.run(self.job("elastic-cl-shrunk2"))
        assert cl.output == ref.output
        assert cl.stats == ref.stats


class TestThreePlaneCompressedShuffle:
    """Wordcount with every new knob on: wire compression, cross-spill
    combining, and cost-aware eviction.

    Compression and eviction policy are transport/cache concerns and must
    be invisible to results; cross-spill combining changes the shuffle
    volume but must change it *identically* on every plane -- same
    outputs, same spill counts, same ``bytes_shuffled``.
    """

    CFG = ClusterConfig(
        dfs=DFSConfig(block_size=2048),
        net=NetConfig(compression="zlib", compression_min_bytes=64),
        cache=CacheConfig(eviction="cost"),
    )

    @staticmethod
    def corpus() -> bytes:
        # A small vocabulary repeated many times: highly compressible on
        # the wire, and rich in duplicate keys for the combiner.
        words = [f"combword-{i:03d}" for i in range(50)]
        return " ".join(words[i % len(words)] for i in range(8000)).encode()

    @staticmethod
    def job(app_id: str) -> MapReduceJob:
        def wc_map(block):
            for token in bytes(block).decode().split():
                yield token, 1

        def wc_reduce(key, values):
            return sum(values)

        def wc_combine(key, values):
            return [sum(values)]

        return MapReduceJob(app_id=app_id, input_file="comb.txt",
                            map_fn=wc_map, reduce_fn=wc_reduce,
                            combiner=wc_combine,
                            cross_spill_combine=True,
                            spill_buffer_bytes=1024)

    def test_all_planes_agree_with_every_knob_on(self):
        data = self.corpus()

        seq = EclipseMRRuntime(3, config=self.CFG)
        seq.upload("comb.txt", data)
        ref = seq.run(self.job("planes-comb-seq"))

        par = ParallelEclipseMRRuntime(3, config=self.CFG, max_workers=4)
        par.upload("comb.txt", data)
        threaded = par.run(self.job("planes-comb-par"))

        with ClusterRuntime(3, self.CFG) as rt:
            rt.upload("comb.txt", data)
            clustered = rt.run(self.job("planes-comb-cluster"))
            worker_stats = rt.worker_stats()
            compressed = sum(s.get("net.pages_compressed", 0)
                             for s in worker_stats.values())
            compressed += rt.metrics.counter("net.pages_compressed").value

        assert threaded.output == ref.output
        assert clustered.output == ref.output
        # Identical post-combining shuffle accounting on every plane.
        assert ref.stats.spill_recombines > 0
        assert threaded.stats.spill_recombines == ref.stats.spill_recombines
        assert clustered.stats.spill_recombines == ref.stats.spill_recombines
        assert threaded.stats.spills == ref.stats.spills
        assert clustered.stats.spills == ref.stats.spills
        assert threaded.stats.bytes_shuffled == ref.stats.bytes_shuffled > 0
        assert clustered.stats.bytes_shuffled == ref.stats.bytes_shuffled
        assert threaded.stats.tasks_per_server == ref.stats.tasks_per_server
        assert clustered.stats.tasks_per_server == ref.stats.tasks_per_server
        # The cluster plane really compressed pages somewhere on the path.
        assert compressed >= 1

    def test_cross_spill_combining_shrinks_the_shuffle(self):
        data = self.corpus()
        base_cfg = ClusterConfig(dfs=DFSConfig(block_size=2048))

        def run(cross_spill):
            rt = EclipseMRRuntime(3, config=base_cfg)
            rt.upload("comb.txt", data)
            job = self.job("planes-comb-off")
            job.cross_spill_combine = cross_spill
            return rt.run(job)

        off = run(False)
        on = run(True)
        assert on.output == off.output
        assert on.stats.bytes_shuffled < off.stats.bytes_shuffled
