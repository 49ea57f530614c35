"""Integration tests for the multi-process cluster plane.

These stand up real worker processes talking TCP on localhost, so they
are the slowest tests in the suite; the datasets are kept small.  The
core claims:

* ``ClusterRuntime.run(job)`` equals ``EclipseMRRuntime.run(job)`` --
  outputs bit-equal, and the LAF scheduler makes the *same* assignment
  sequence (``tasks_per_server`` equal) because assignments are drawn
  sequentially at zero load in both planes;
* killing a worker mid-job is detected and the job completes on the
  survivors via replica failover plus task re-execution.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.apps.kmeans import kmeans_job
from repro.apps.wordcount import wordcount_job
from repro.apps.workloads import pack_records, points, text_corpus
from repro.cluster import ClusterRuntime, LivenessTracker
from repro.cluster.coordinator import Coordinator
from repro.cluster.messages import WorkerAddress
from repro.common.config import ClusterConfig, DFSConfig, NetConfig
from repro.common.errors import ClusterError, RpcConnectionError, RpcRemoteError
from repro.net.retry import RetryPolicy
from repro.net.rpc import RpcServer
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import EclipseMRRuntime

CFG = ClusterConfig(dfs=DFSConfig(block_size=2048))


def corpus():
    return pack_records(text_corpus(99, num_words=3000, vocab_size=60),
                        CFG.dfs.block_size)


@pytest.fixture(scope="module")
def cluster():
    """One 4-worker cluster shared by the happy-path tests (startup is
    the expensive part; jobs use distinct app ids and input files)."""
    with ClusterRuntime(4, CFG) as rt:
        yield rt


class TestSequentialEquivalence:
    def test_wordcount_matches_sequential_runtime(self, cluster):
        data = corpus()
        seq = EclipseMRRuntime(4, config=CFG)
        seq.upload("wc.txt", data)
        ref = seq.run(wordcount_job("wc.txt", app_id="wc-eq"))

        cluster.upload("wc.txt", data)
        res = cluster.run(wordcount_job("wc.txt", app_id="wc-eq"))

        assert res.output == ref.output
        assert res.stats.map_tasks == ref.stats.map_tasks
        assert res.stats.reduce_tasks == ref.stats.reduce_tasks
        assert res.stats.tasks_per_server == ref.stats.tasks_per_server

    def test_kmeans_matches_sequential_runtime(self, cluster):
        recs, _ = points(77, num_points=400, dim=2, num_clusters=3)
        data = pack_records(recs, CFG.dfs.block_size)
        seq = EclipseMRRuntime(4, config=CFG)
        seq.upload("pts", data)
        init = np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]])
        ref = seq.run(kmeans_job("pts", init, 0, app_id="km-eq"))

        cluster.upload("pts", data)
        res = cluster.run(kmeans_job("pts", init, 0, app_id="km-eq"))

        assert set(res.output) == set(ref.output)
        for k in ref.output:
            # Same pairs, but float summation order may differ per spill.
            assert np.allclose(res.output[k], ref.output[k])
        assert res.stats.tasks_per_server == ref.stats.tasks_per_server

    def test_map_tasks_run_on_distinct_processes(self, cluster):
        cluster.upload("spread.txt", corpus())
        cluster.run(wordcount_job("spread.txt", app_id="wc-spread"))
        stats = cluster.worker_stats()
        ran = [w for w, s in stats.items() if s.get("worker.maps_run", 0) > 0]
        assert len(ran) >= 2  # true process parallelism, not one busy worker

class TestTeardown:
    def test_shutdown_is_prompt_and_workers_exit_on_their_own(self):
        """Workers told to shut down leave with exit code 0 -- nobody waits
        out a join timeout and nobody gets SIGTERMed by the reaper."""
        rt = ClusterRuntime(2, CFG)
        processes = list(rt._processes.values())
        start = time.monotonic()
        rt.shutdown()
        assert time.monotonic() - start < 1.0
        assert [p.exitcode for p in processes] == [0, 0]

    @pytest.mark.parametrize("method", ["spawn", "fork"])
    def test_clean_exit_leaves_no_process_behind(self, method):
        cfg = ClusterConfig(dfs=CFG.dfs, net=NetConfig(mp_start_method=method))
        rt = ClusterRuntime(2, cfg)
        processes = list(rt._processes.values())
        rt.shutdown()
        assert [p.exitcode for p in processes] == [0, 0]
        assert not set(processes) & set(multiprocessing.active_children())

    def test_every_live_worker_answers_the_shutdown_rpc(self):
        """The worker replies "bye" before it closes its connections, so a
        normal shutdown never lands in the dead-worker swallow."""
        for _ in range(20):
            rt = ClusterRuntime(3, CFG)
            answered = []
            tell_all = rt.coordinator.shutdown
            rt.coordinator.shutdown = lambda: answered.extend(tell_all())
            rt.shutdown()
            assert sorted(answered) == ["worker-0", "worker-1", "worker-2"]

    def test_every_worker_exits_cleanly_over_many_lifecycles(
            self, capfd, monkeypatch):
        """A worker's ``register`` call gets its reply before the cluster
        counts the worker as up, so a shutdown right after start-up never
        closes the connection under that reply (the worker would raise
        ``RpcConnectionError`` and exit 1).  The coordinator holds each
        ``register`` reply back by 50 ms, which makes the race certain
        whenever the registration is announced before its reply."""
        handle = RpcServer._handle

        def slow_register_reply(server, request):
            out = handle(server, request)
            if request.get("method") == "register":
                time.sleep(0.05)
            return out

        monkeypatch.setattr(RpcServer, "_handle", slow_register_reply)
        for _ in range(12):
            rt = ClusterRuntime(2, CFG)
            processes = list(rt._processes.values())
            rt.shutdown()
            assert [p.exitcode for p in processes] == [0, 0]
        assert capfd.readouterr().err == ""

    def test_shutdown_does_not_wait_out_a_partitioned_workers_connect(
            self, unanswered_address):
        """``shutdown`` tells each worker with a 2 s timeout; dialling a
        worker that never answers must not take ``connect_timeout``."""
        coord = Coordinator(["w1"], CFG)
        coord.addresses["w1"] = WorkerAddress("w1", *unanswered_address)
        start = time.monotonic()
        assert coord.shutdown() == []
        assert time.monotonic() - start < coord.config.net.connect_timeout

    def test_output_of_the_last_job_survives_the_exit(self, capfd, monkeypatch):
        """A worker leaves through ``os._exit``; what a map function
        printed into the (block-buffered) stdout is flushed first."""
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)  # workers inherit it

        def loud_map(block):
            print("printed-by-a-map-task")
            yield "blocks", 1

        with ClusterRuntime(2, CFG) as rt:
            rt.upload("loud.txt", corpus())
            res = rt.run(MapReduceJob("loud", "loud.txt", loud_map,
                                      lambda k, vs: sum(vs)))
        blocks = res.output["blocks"]
        assert blocks >= 2
        assert capfd.readouterr().out.count("printed-by-a-map-task") == blocks

    def test_worker_that_fails_to_start_exits_nonzero_and_is_reaped(
            self, monkeypatch, capfd):
        spawned = []
        start_workers = ClusterRuntime._start_workers

        def start_with_the_coordinator_gone(rt):
            rt.coordinator.server.stop()  # ``register`` finds a closed port
            start_workers(rt)
            spawned.extend(rt._processes.values())
            for proc in spawned:
                proc.join(timeout=30.0)

        monkeypatch.setattr(ClusterRuntime, "_start_workers",
                            start_with_the_coordinator_gone)
        cfg = ClusterConfig(net=NetConfig(start_timeout=0.2))
        with pytest.raises(ClusterError, match="did not register"):
            ClusterRuntime(2, cfg)
        assert [p.exitcode for p in spawned] == [1, 1]
        assert not set(spawned) & set(multiprocessing.active_children())
        err = capfd.readouterr().err
        assert err.count("Traceback") >= 2
        assert "RpcConnectionError: cannot connect" in err
        # The failure that is reported is the one that happened, not a
        # second one raised while cleaning up after it.
        assert "cannot join thread" not in err

    def test_numpy_arrives_with_the_first_job_that_needs_it(self):
        """A worker starts without NumPy; a k-means map imports it on
        first use and the job is none the worse for it."""

        def numpy_loaded(block):
            import sys

            yield "numpy", "numpy" in sys.modules

        def probe(rt, app_id):
            job = MapReduceJob(app_id, "pts", numpy_loaded, lambda k, vs: any(vs))
            return rt.run(job).output["numpy"]

        recs, _ = points(77, num_points=400, dim=2, num_clusters=3)
        data = pack_records(recs, CFG.dfs.block_size)
        init = np.array([[0.2, 0.2], [0.5, 0.5], [0.8, 0.8]])
        seq = EclipseMRRuntime(2, config=CFG)
        seq.upload("pts", data)
        ref = seq.run(kmeans_job("pts", init, 0, app_id="km-cold"))
        with ClusterRuntime(2, CFG) as rt:
            rt.upload("pts", data)
            assert probe(rt, "probe-cold") is False
            res = rt.run(kmeans_job("pts", init, 0, app_id="km-cold"))
            assert probe(rt, "probe-warm") is True
        assert set(res.output) == set(ref.output)
        for k in ref.output:
            assert np.allclose(res.output[k], ref.output[k])


class TestIntermediateReplay:
    """Cluster-plane oCache replay: a second ``reuse_intermediates`` job
    repopulates the reduce side from cached/persisted spills, skipping
    every map, with the *original* run's byte accounting."""

    def test_second_identical_run_replays_every_map(self, cluster):
        cluster.upload("reuse.txt", corpus())

        def job():
            return wordcount_job("reuse.txt", app_id="wc-replay",
                                 cache_intermediates=True,
                                 reuse_intermediates=True)

        first = cluster.run(job())
        blocks = first.stats.map_tasks
        assert blocks > 1
        assert first.stats.maps_skipped_by_reuse == 0

        second = cluster.run(job())
        assert second.output == first.output
        assert second.stats.maps_skipped_by_reuse == blocks
        assert second.stats.map_tasks == 0
        # Replay reports the original shuffle, not zeros (regression:
        # replayed jobs used to come back with spills=0/bytes_shuffled=0).
        assert second.stats.spills == first.stats.spills > 0
        assert second.stats.bytes_shuffled == first.stats.bytes_shuffled > 0
        # Everything was still warm in the destination workers' oCaches.
        assert second.stats.ocache_hits == second.stats.spills
        assert second.stats.ocache_misses == 0
        assert second.stats.tasks_per_server == first.stats.tasks_per_server
        assert cluster.metrics.counter("cluster.maps_replayed").value >= blocks

    def test_cleanup_broadcast_failure_never_restarts_the_job(self, cluster):
        """A worker dying under the end-of-job ``discard_job`` broadcast
        must not re-execute a *completed* job (regression: the cleanup
        call sat inside the failover retry loop)."""
        from repro.common.errors import WorkerLost

        cluster.upload("clean.txt", corpus())
        real = cluster._broadcast
        discards = []

        def flaky(method, args):
            if method == "discard_job":
                discards.append(args["app_id"])
                if len(discards) == 2:  # 1st: attempt start; 2nd: cleanup
                    raise WorkerLost("worker-1", "injected: died under cleanup")
            return real(method, args)

        failovers = cluster.metrics.counter("cluster.failovers").value
        cluster._broadcast = flaky
        try:
            res = cluster.run(wordcount_job("clean.txt", app_id="wc-clean"))
        finally:
            cluster._broadcast = real

        assert len(discards) == 2, "cleanup broadcast never happened"
        assert sum(res.output.values()) == 3000  # result still delivered
        assert res.stats.task_retries == 0  # and nothing re-executed
        assert cluster.metrics.counter("cluster.failovers").value == failovers
        assert cluster.metrics.counter("cluster.cleanup_failures").value >= 1

    def test_empty_post_combiner_spills_never_ship_or_persist(self, cluster):
        """A combiner that drops every pair must leave nothing on the wire,
        in oCache, or in the persisted spill store (regression: empty
        spills were delivered and persisted under hash key 0)."""
        cluster.upload("dropall.txt", corpus())

        def drop_map(block):
            for w in bytes(block).decode().split():
                yield w, 1

        def drop_all(key, values):
            return []

        def drop_reduce(key, values):
            return sum(values)

        def job(app_id, reuse=False):
            return MapReduceJob(app_id=app_id, input_file="dropall.txt",
                                map_fn=drop_map, reduce_fn=drop_reduce,
                                combiner=drop_all, cache_intermediates=True,
                                reuse_intermediates=reuse)

        before = cluster.worker_stats()
        res = cluster.run(job("wc-dropall"))
        after = cluster.worker_stats()

        assert res.output == {}
        assert res.stats.spills == 0
        assert res.stats.bytes_shuffled == 0
        assert res.stats.map_tasks > 1

        def total(stats, name):
            return sum(s.get(name, 0) for s in stats.values())

        skipped = (total(after, "worker.spills_skipped_empty")
                   - total(before, "worker.spills_skipped_empty"))
        assert skipped >= res.stats.map_tasks
        assert total(after, "worker.spill_objects_stored") == \
            total(before, "worker.spill_objects_stored")  # nothing persisted

        # The (empty) completion markers still replay: the rerun skips
        # every map and delivers the same empty output.
        second = cluster.run(job("wc-dropall", reuse=True))
        assert second.output == {}
        assert second.stats.maps_skipped_by_reuse == res.stats.map_tasks
        assert second.stats.map_tasks == 0


class TestFailover:
    def test_worker_killed_mid_job_completes_via_failover(self):
        data = corpus()
        seq = EclipseMRRuntime(4, config=CFG)
        seq.upload("ft.txt", data)
        ref = seq.run(wordcount_job("ft.txt", app_id="wc-ft"))

        with ClusterRuntime(4, CFG) as rt:
            rt.upload("ft.txt", data)
            killed = []

            def chaos(done_maps):
                if done_maps == 2 and not killed:
                    victim = rt.worker_ids[1]
                    rt.kill_worker(victim)
                    killed.append(victim)

            rt.on_map_complete = chaos
            res = rt.run(wordcount_job("ft.txt", app_id="wc-ft"))

            assert killed, "chaos hook never fired"
            assert res.output == ref.output  # correct despite the kill
            assert killed[0] not in rt.worker_ids
            assert len(rt.worker_ids) == 3
            assert rt.metrics.counter("cluster.failovers").value == 1
            assert rt.metrics.counter("cluster.tasks_reexecuted").value >= 1
            assert res.stats.task_retries >= 1
            # The dead worker's blocks were re-replicated from survivors.
            assert rt.metrics.counter("failover.blocks_rereplicated").value >= 1

    def test_worker_killed_mid_replay_fails_over(self):
        """SIGKILL a worker after the first oCache replay: the attempt is
        aborted, the cluster fails over, and the retried attempt still
        produces the correct result (replaying what it can from the
        survivors, re-mapping the rest)."""
        data = corpus()
        seq = EclipseMRRuntime(4, config=CFG)
        seq.upload("rp.txt", data)
        ref = seq.run(wordcount_job("rp.txt", app_id="wc-rp",
                                    cache_intermediates=True))

        with ClusterRuntime(4, CFG) as rt:
            rt.upload("rp.txt", data)
            first = rt.run(wordcount_job("rp.txt", app_id="wc-rp",
                                         cache_intermediates=True))
            assert first.output == ref.output
            blocks = first.stats.map_tasks
            killed = []

            def chaos(replays_done):
                if replays_done == 1 and not killed:
                    victim = rt.worker_ids[-1]
                    rt.kill_worker(victim)
                    killed.append(victim)

            rt.on_replay_complete = chaos
            second = rt.run(wordcount_job("rp.txt", app_id="wc-rp",
                                          cache_intermediates=True,
                                          reuse_intermediates=True))

            assert killed, "chaos hook never fired"
            assert second.output == ref.output  # correct despite the kill
            assert killed[0] not in rt.worker_ids
            # On the successful attempt every block either replayed from
            # the survivors or fell back to an honest re-map -- no block
            # was lost and none ran twice.
            assert (second.stats.maps_skipped_by_reuse
                    + second.stats.map_tasks) == blocks
            assert rt.metrics.counter("cluster.failovers").value == 1

    def test_death_detected_by_heartbeats_between_jobs(self):
        net = NetConfig(heartbeat_interval=0.1, heartbeat_miss_threshold=3)
        cfg = ClusterConfig(dfs=DFSConfig(block_size=2048), net=net)
        with ClusterRuntime(3, cfg) as rt:
            rt.upload("hb.txt", corpus())
            victim = rt.worker_ids[-1]
            rt.kill_worker(victim)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if victim in rt.check_liveness():
                    break
                time.sleep(0.05)
            else:
                pytest.fail("heartbeat silence was never detected")
            # The next job notices at dispatch time and fails over.
            res = rt.run(wordcount_job("hb.txt", app_id="wc-hb"))
            assert victim not in rt.worker_ids
            assert sum(res.output.values()) == 3000

    def test_losing_all_workers_raises(self):
        """Surgical failover absorbs one death per spare worker; killing a
        worker after every map completion exhausts the budget and the job
        must give up instead of looping."""
        with ClusterRuntime(2, CFG) as rt:
            rt.upload("die.txt", corpus())

            def chaos(done_maps):
                if rt.worker_ids:
                    rt.kill_worker(rt.worker_ids[0])

            rt.on_map_complete = chaos
            with pytest.raises(ClusterError):
                rt.run(wordcount_job("die.txt", app_id="wc-die"))


class TestLivenessTracker:
    def test_dead_after_missed_threshold(self):
        now = [0.0]
        tracker = LivenessTracker(interval=1.0, miss_threshold=4,
                                  clock=lambda: now[0])
        tracker.register("w1")
        tracker.register("w2")
        now[0] = 3.9
        tracker.beat("w2")
        assert tracker.dead_workers() == []
        now[0] = 4.1  # w1 silent for > 4 intervals; w2 beat at 3.9
        assert tracker.dead_workers() == ["w1"]
        assert not tracker.alive("w1")
        assert tracker.alive("w2")

    def test_beat_resets_the_clock(self):
        now = [0.0]
        tracker = LivenessTracker(interval=0.5, miss_threshold=2,
                                  clock=lambda: now[0])
        tracker.register("w")
        for t in (0.9, 1.8, 2.7):
            now[0] = t
            tracker.beat("w")
            assert tracker.dead_workers() == []
        assert tracker.beats_of("w") == 3

    def test_removed_worker_is_not_tracked(self):
        now = [0.0]
        tracker = LivenessTracker(interval=1.0, miss_threshold=1,
                                  clock=lambda: now[0])
        tracker.register("w")
        tracker.remove("w")
        now[0] = 100.0
        assert tracker.dead_workers() == []
        tracker.beat("w")  # late heartbeat from a removed worker: ignored
        assert tracker.tracked() == []

    def test_age(self):
        now = [10.0]
        tracker = LivenessTracker(interval=1.0, miss_threshold=2,
                                  clock=lambda: now[0])
        tracker.register("w")
        now[0] = 12.5
        assert tracker.age("w") == pytest.approx(2.5)
        with pytest.raises(ClusterError):
            tracker.age("unknown")

    def test_validation(self):
        with pytest.raises(ClusterError):
            LivenessTracker(interval=0.0, miss_threshold=2)
        with pytest.raises(ClusterError):
            LivenessTracker(interval=1.0, miss_threshold=0)


class TestHeartbeatGauge:
    def test_max_age_gauge_reports_the_oldest_worker(self):
        """``heartbeat.max_age_s`` must be the *max* across workers, not
        whichever worker the loop visited last (the regression: the gauge
        was set per-iteration, so the freshest worker won)."""
        coord = Coordinator(["w1", "w2", "w3"], CFG)
        try:
            now = [0.0]
            coord.liveness = LivenessTracker(interval=1.0, miss_threshold=10,
                                             clock=lambda: now[0])
            coord.liveness.register("w1")  # silent since t=0
            now[0] = 2.0
            coord.liveness.register("w2")
            now[0] = 3.0
            coord.liveness.register("w3")  # freshest, and visited last
            assert coord.check_heartbeats() == []
            assert coord.metrics.gauge("heartbeat.max_age_s").value == \
                pytest.approx(3.0)
            assert coord.metrics.counter("heartbeat.missed_deadlines").value == 0

            now[0] = 30.0  # everyone blew the 10-interval deadline
            assert coord.check_heartbeats() == ["w1", "w2", "w3"]
            assert coord.metrics.counter("heartbeat.missed_deadlines").value == 3
            assert coord.metrics.gauge("heartbeat.max_age_s").value == \
                pytest.approx(30.0)
        finally:
            coord.shutdown()


class _ScriptedPool:
    """A stand-in for the coordinator's ConnectionPool: each address
    consumes a scripted list of responses (bytes to return, exceptions to
    raise), and every call is recorded in order."""

    def __init__(self, scripts, attempts=2):
        self.scripts = {addr: list(steps) for addr, steps in scripts.items()}
        self.calls = []
        self.policy = RetryPolicy(attempts=attempts, base_delay=0.01,
                                  jitter=0.0, sleep=lambda _s: None)

    def call(self, addr, method, args=None, **kwargs):
        self.calls.append(addr)
        step = self.scripts[addr].pop(0)
        if isinstance(step, Exception):
            raise step
        return step


class TestFetchFromAny:
    """``Coordinator._fetch_from_any``: recorded holders first (least
    scheduler load wins), then every other survivor, retried as whole
    sweeps under the pool's policy."""

    def _coordinator(self, scripts_by_wid, attempts=2):
        coord = Coordinator(["w1", "w2", "w3"], CFG)
        addr_of = {}
        for i, wid in enumerate(coord.worker_ids):
            address = WorkerAddress(wid, "203.0.113.9", 9000 + i)
            coord.addresses[wid] = address
            addr_of[wid] = address.addr
        pool = _ScriptedPool(
            {addr_of[wid]: steps for wid, steps in scripts_by_wid.items()},
            attempts=attempts,
        )
        real_pool, coord.pool = coord.pool, pool
        wid_of = {addr: wid for wid, addr in addr_of.items()}
        return coord, pool, wid_of, real_pool

    @staticmethod
    def _shutdown(coord, real_pool):
        # Forget the unroutable addresses first: shutdown() tells every
        # known worker to stop, and dialling 203.0.113.9 would wait out
        # the full connect timeout.
        coord.pool = real_pool
        coord.addresses.clear()
        coord.shutdown()

    def test_holders_first_ordered_by_load_then_other_survivors(self):
        coord, pool, wid_of, real = self._coordinator({
            "w1": [RpcConnectionError("down")],
            "w2": [RpcRemoteError("BlockNotFound", "no copy here")],
            "w3": [b"DATA"],
        })
        try:
            coord.scheduler.notify_start("w1")  # w1 busier than w2
            data = coord._fetch_from_any(("f", 0), ["w1", "w2"])
            assert data == b"DATA"
            # Recorded holders first, least-loaded first; the non-holder
            # w3 is only the long shot at the end.
            assert [wid_of[a] for a in pool.calls] == ["w2", "w1", "w3"]
        finally:
            self._shutdown(coord, real)

    def test_transport_failures_retry_the_whole_sweep(self):
        coord, pool, wid_of, real = self._coordinator({
            "w1": [RpcConnectionError("down"), RpcConnectionError("down")],
            "w2": [RpcConnectionError("down"), RpcConnectionError("down")],
            "w3": [RpcConnectionError("down"), b"DATA"],
        })
        try:
            data = coord._fetch_from_any(("f", 0), ["w1", "w2"])
            assert data == b"DATA"
            assert [wid_of[a] for a in pool.calls] == \
                ["w1", "w2", "w3"] * 2  # two full sweeps
        finally:
            self._shutdown(coord, real)

    def test_block_not_found_everywhere_fails_without_retry(self):
        coord, pool, wid_of, real = self._coordinator({
            "w1": [RpcRemoteError("BlockNotFound", "gone")],
            "w2": [RpcRemoteError("BlockNotFound", "gone")],
            "w3": [RpcRemoteError("BlockNotFound", "gone")],
        })
        try:
            with pytest.raises(ClusterError, match="from any survivor"):
                coord._fetch_from_any(("f", 0), ["w1", "w2"])
            assert len(pool.calls) == 3  # retrying a missing block is useless
        finally:
            self._shutdown(coord, real)

    def test_unexpected_remote_error_is_fatal_immediately(self):
        coord, pool, wid_of, real = self._coordinator({
            "w1": [RpcRemoteError("ValueError", "corrupt shard")],
            "w2": [b"NEVER"],
            "w3": [b"NEVER"],
        })
        try:
            with pytest.raises(ClusterError, match="failed serving block"):
                coord._fetch_from_any(("f", 0), ["w1", "w2"])
            assert [wid_of[a] for a in pool.calls] == ["w1"]
        finally:
            self._shutdown(coord, real)


class TestCaching:
    def test_second_job_hits_icache(self):
        cfg = ClusterConfig(dfs=DFSConfig(block_size=2048))
        with ClusterRuntime(4, cfg) as rt:
            rt.upload("cache.txt", corpus())
            first = rt.run(wordcount_job("cache.txt", app_id="wc-c1"))
            second = rt.run(wordcount_job("cache.txt", app_id="wc-c2"))
            assert first.output == second.output
            assert first.stats.icache_hits == 0
            # Same blocks, same LAF assignment, warm caches.
            assert second.stats.icache_hits == second.stats.map_tasks
