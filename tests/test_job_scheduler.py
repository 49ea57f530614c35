"""The multi-job scheduler: many clients, one cluster.

Covers the :mod:`repro.jobs` subsystem end to end against real worker
processes:

* submit/handle API -- a lone submitted job is bit-equal to the legacy
  blocking ``run()`` (same output, same LAF assignment sequence);
* N concurrent jobs (including two submissions of the *same* app id,
  exercising the worker-side job_uid namespacing) all produce correct
  output;
* admission control -- bounded queue, :class:`JobRejected` backpressure,
  queue-depth/wait metrics;
* failure isolation -- one job's mapper raising, or one job being
  cancelled, never perturbs a concurrently running job;
* ``ClusterBusyError`` on a concurrent second blocking ``run()`` and on
  a second ``JobScheduler`` attached to a live cluster;
* the inter-job policy seam (FIFO / fair share / delay), unit-tested on
  synthetic job views;
* retention -- a finished job leaves nothing behind in the scheduler:
  no timer, no metric name, no reference to its handle or result.
"""

import gc
import threading
import time
import weakref
from types import SimpleNamespace

import pytest

from repro.apps.grep import grep_job
from repro.apps.wordcount import wordcount_job, wordcount_reduce
from repro.apps.workloads import pack_records, text_corpus
from repro.cluster import ClusterRuntime
from repro.common.config import ClusterConfig, DFSConfig, JobsConfig, NetConfig
from repro.common.errors import (
    ClusterBusyError,
    ClusterError,
    ConfigError,
    JobCancelled,
    JobRejected,
    RpcConnectionError,
)
from repro.jobs import (
    ClusterSession,
    DispatchContext,
    FairSharePolicy,
    FifoPolicy,
    JobScheduler,
    JobState,
    make_policy,
)
from repro.mapreduce.job import MapReduceJob
from repro.mapreduce.runtime import EclipseMRRuntime

CFG = ClusterConfig(dfs=DFSConfig(block_size=2048))


def corpus(seed: int = 99):
    return pack_records(text_corpus(seed, num_words=3000, vocab_size=60),
                        CFG.dfs.block_size)


def slow_map_fn(delay: float):
    """A wordcount map that sleeps first -- keeps jobs in flight long
    enough for admission/cancellation races to be deterministic."""

    def slow_map(block: bytes):
        time.sleep(delay)
        for word in block.decode("utf-8", errors="replace").split():
            yield word, 1

    return slow_map


def slow_job(input_file: str, app_id: str, delay: float = 0.4) -> MapReduceJob:
    return MapReduceJob(app_id=app_id, input_file=input_file,
                        map_fn=slow_map_fn(delay), reduce_fn=wordcount_reduce)


def boom_map(block: bytes):
    raise ValueError("mapper exploded")
    yield  # pragma: no cover - makes this a generator like its peers


@pytest.fixture(scope="module")
def cluster():
    """One 4-worker FIFO cluster shared by the happy-path tests."""
    with ClusterRuntime(4, CFG) as rt:
        rt.upload("shared.txt", corpus())
        yield rt


@pytest.fixture(scope="module")
def tight_cluster():
    """Two workers, one active-job slot, one queue slot: the admission
    control corner cases."""
    cfg = ClusterConfig(
        dfs=DFSConfig(block_size=2048),
        jobs=JobsConfig(max_active_jobs=1, max_queued_jobs=1),
    )
    with ClusterRuntime(2, cfg) as rt:
        rt.upload("tight.txt", corpus(7))
        yield rt


def wait_for(predicate, timeout: float = 30.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {what}")


class TestSubmitApi:
    def test_submitted_job_matches_blocking_run(self, cluster):
        """submit().result() is the legacy run(): bit-equal output AND the
        identical LAF assignment sequence (tasks_per_server)."""
        seq = EclipseMRRuntime(4, config=CFG)
        seq.upload("shared.txt", corpus())
        ref = seq.run(wordcount_job("shared.txt", app_id="wc-submit"))

        handle = cluster.submit(wordcount_job("shared.txt", app_id="wc-submit"))
        assert handle.app_id == "wc-submit"
        assert handle.job_uid.startswith("wc-submit@")
        res = handle.result(timeout=120)

        assert res.output == ref.output
        assert res.stats.tasks_per_server == ref.stats.tasks_per_server
        assert handle.done()
        assert handle.state is JobState.SUCCEEDED
        assert handle.state.terminal
        timing = handle.metrics()
        assert timing["state"] == "succeeded"
        assert timing["makespan_s"] >= timing["run_s"] >= 0.0
        assert cluster.metrics.histogram("sched.queue_wait_s").count >= 1
        assert cluster.metrics.counter("sched.jobs_completed").value >= 1

    def test_submit_many_concurrent_jobs_all_correct(self, cluster):
        """N=4 jobs in flight at once, every output correct."""
        seq = EclipseMRRuntime(4, config=CFG)
        seq.upload("shared.txt", corpus())
        jobs = [
            wordcount_job("shared.txt", app_id="many-wc-0"),
            grep_job("shared.txt", r"word1\b", app_id="many-grep-1"),
            wordcount_job("shared.txt", app_id="many-wc-2"),
            grep_job("shared.txt", r"word2\d", app_id="many-grep-3"),
        ]
        refs = [seq.run(j).output for j in [
            wordcount_job("shared.txt", app_id="many-wc-0"),
            grep_job("shared.txt", r"word1\b", app_id="many-grep-1"),
            wordcount_job("shared.txt", app_id="many-wc-2"),
            grep_job("shared.txt", r"word2\d", app_id="many-grep-3"),
        ]]
        handles = cluster.jobs.submit_many(jobs)
        results = [h.result(timeout=180) for h in handles]
        for res, ref in zip(results, refs):
            assert res.output == ref

    def test_concurrent_same_app_id_jobs_do_not_collide(self, cluster):
        """Two in-flight submissions of the *same* app id: worker-side
        intermediates are namespaced by job_uid, so neither sees the
        other's spills."""
        seq = EclipseMRRuntime(4, config=CFG)
        seq.upload("shared.txt", corpus())
        ref = seq.run(wordcount_job("shared.txt", app_id="same-app")).output

        a = cluster.submit(slow_job("shared.txt", "same-app", delay=0.05))
        b = cluster.submit(slow_job("shared.txt", "same-app", delay=0.05))
        assert a.job_uid != b.job_uid
        assert a.result(timeout=120).output == ref
        assert b.result(timeout=120).output == ref

    def test_cluster_session_context_manager(self):
        cfg = ClusterConfig(dfs=DFSConfig(block_size=2048))
        seq = EclipseMRRuntime(2, config=cfg)
        seq.upload("sess.txt", corpus(5))
        ref = seq.run(wordcount_job("sess.txt", app_id="sess-wc")).output
        grep_ref = seq.run(grep_job("sess.txt", r"word1", app_id="sess-grep")).output
        with ClusterSession(workers=2, config=cfg) as session:
            session.upload("sess.txt", corpus(5))
            handles = session.submit_many([
                wordcount_job("sess.txt", app_id="sess-wc"),
                grep_job("sess.txt", r"word1", app_id="sess-grep"),
            ])
            assert handles[0].result(timeout=120).output == ref
            assert handles[1].result(timeout=120).output == grep_ref


class TestBusyGuards:
    def test_concurrent_blocking_run_raises_cluster_busy(self, cluster):
        first_done = threading.Event()
        results = {}

        def blocking_run():
            results["res"] = cluster.run(slow_job("shared.txt", "busy-a",
                                                  delay=0.3))
            first_done.set()

        t = threading.Thread(target=blocking_run)
        t.start()
        try:
            wait_for(lambda: cluster._run_gate.locked(), what="run() in flight")
            with pytest.raises(ClusterBusyError):
                cluster.run(wordcount_job("shared.txt", app_id="busy-b"))
        finally:
            t.join(timeout=120)
        assert first_done.is_set()
        assert results["res"].stats.map_tasks > 0

    def test_second_scheduler_on_live_cluster_raises(self, cluster):
        assert cluster.jobs is not None  # the cluster's own scheduler runs
        with pytest.raises(ClusterBusyError):
            JobScheduler(cluster)

    def test_submit_still_works_while_run_gate_is_free(self, cluster):
        # The busy gate protects run() only; submit() always multiplexes.
        h = cluster.submit(wordcount_job("shared.txt", app_id="gate-free"))
        assert h.result(timeout=120).stats.map_tasks > 0


class TestAdmissionControl:
    def test_bounded_queue_rejects_and_recovers(self, tight_cluster):
        rt = tight_cluster
        h1 = rt.submit(slow_job("tight.txt", "adm-1", delay=0.5))
        h2 = rt.submit(slow_job("tight.txt", "adm-2", delay=0.5))
        # 1 active slot + 1 queue slot are taken: the third client is
        # pushed back with an explicit error, not an unbounded queue.
        with pytest.raises(JobRejected):
            rt.submit(slow_job("tight.txt", "adm-3", delay=0.5))
        assert rt.metrics.counter("sched.jobs_rejected").value >= 1
        assert rt.metrics.gauge("sched.queue_depth").max_seen >= 1
        # Backpressure clears as jobs drain.
        r1 = h1.result(timeout=120)
        r2 = h2.result(timeout=120)
        assert r1.output == r2.output
        h4 = rt.submit(wordcount_job("tight.txt", app_id="adm-4"))
        assert h4.result(timeout=120).stats.map_tasks > 0
        # The second job waited in the queue and the wait was measured.
        assert rt.metrics.histogram("sched.queue_wait_s").count >= 3

    def test_cancel_queued_job(self, tight_cluster):
        rt = tight_cluster
        h1 = rt.submit(slow_job("tight.txt", "cq-1", delay=0.5))
        h2 = rt.submit(wordcount_job("tight.txt", app_id="cq-2"))
        assert h2.cancel() is True
        with pytest.raises(JobCancelled):
            h2.result(timeout=30)
        assert h2.state is JobState.CANCELLED
        assert h1.result(timeout=120).stats.map_tasks > 0
        assert h2.cancel() is False  # already terminal
        assert rt.metrics.counter("sched.jobs_cancelled").value >= 1

    def test_submit_after_shutdown_raises_then_scheduler_revives(self, tight_cluster):
        rt = tight_cluster
        sched = rt.jobs
        sched.shutdown()
        with pytest.raises(ClusterError):
            sched.submit(wordcount_job("tight.txt", app_id="post-stop"))
        # The runtime transparently attaches a fresh scheduler.
        h = rt.submit(wordcount_job("tight.txt", app_id="revived"))
        assert h.result(timeout=120).stats.map_tasks > 0
        assert rt.jobs is not sched


class TestFailureIsolation:
    def test_one_jobs_mapper_error_does_not_perturb_another(self, cluster):
        seq = EclipseMRRuntime(4, config=CFG)
        seq.upload("shared.txt", corpus())
        ref = seq.run(wordcount_job("shared.txt", app_id="iso-good")).output

        bad = cluster.submit(MapReduceJob(
            app_id="iso-bad", input_file="shared.txt",
            map_fn=boom_map, reduce_fn=wordcount_reduce,
        ))
        good = cluster.submit(slow_job("shared.txt", "iso-good", delay=0.05))
        with pytest.raises(ClusterError, match="run_map"):
            bad.result(timeout=120)
        assert bad.state is JobState.FAILED
        # The survivor is bit-equal to its solo sequential run.
        assert good.result(timeout=120).output == ref
        assert cluster.metrics.counter("sched.jobs_failed").value >= 1

    def test_cancel_mid_flight_leaves_other_job_intact(self, cluster):
        seq = EclipseMRRuntime(4, config=CFG)
        seq.upload("shared.txt", corpus())
        ref = seq.run(wordcount_job("shared.txt", app_id="cx-keep")).output

        doomed = cluster.submit(slow_job("shared.txt", "cx-doomed", delay=0.4))
        keeper = cluster.submit(slow_job("shared.txt", "cx-keep", delay=0.05))
        wait_for(lambda: doomed.state is JobState.RUNNING,
                 what="doomed job to start")
        assert doomed.cancel() is True
        with pytest.raises(JobCancelled):
            doomed.result(timeout=60)
        assert keeper.result(timeout=120).output == ref
        # The cluster is still healthy for the next client.
        again = cluster.submit(wordcount_job("shared.txt", app_id="cx-after"))
        assert again.result(timeout=120).output == ref


class TestPolicySeam:
    """Pure-logic tests of the inter-job policies on synthetic job views."""

    @staticmethod
    def _job(idx, outstanding=0, weight=1.0, tasks=()):
        return SimpleNamespace(submit_index=idx, outstanding=outstanding,
                               weight=weight, ready=list(tasks))

    @staticmethod
    def _task(wid="w0", kind="map", ready_since=0.0, wait_limit=None):
        return SimpleNamespace(kind=kind, wid=wid, ready_since=ready_since,
                               wait_limit=wait_limit, reassign=False)

    @staticmethod
    def _ctx(now=100.0, inflight=None, delay_wait=5.0, slots=2):
        table = inflight or {}
        return DispatchContext(now=lambda: now,
                               inflight_on=lambda w: table.get(w, 0),
                               delay_wait=delay_wait, worker_slots=slots)

    def test_fifo_picks_earliest_submitted(self):
        a = self._job(0, tasks=[self._task()])
        b = self._job(1, tasks=[self._task()])
        assert FifoPolicy().next_task([a, b], self._ctx()) is a.ready[0]

    def test_fair_share_picks_fewest_outstanding_per_weight(self):
        a = self._job(0, outstanding=4, tasks=[self._task()])
        b = self._job(1, outstanding=1, tasks=[self._task()])
        assert FairSharePolicy().next_task([a, b], self._ctx()) is b.ready[0]
        # Weight scales the share: 4 outstanding at weight 8 is a smaller
        # normalized share than 1 outstanding at weight 1.
        a.weight = 8.0
        assert FairSharePolicy().next_task([a, b], self._ctx()) is a.ready[0]
        # Ties go to the earlier submission (lone job degenerates to FIFO).
        a.weight = 4.0
        assert FairSharePolicy().next_task([a, b], self._ctx()) is a.ready[0]

    def test_delay_policy_waits_then_reassigns(self):
        task = self._task(wid="w1", ready_since=99.0)
        job = self._job(0, tasks=[task])
        policy = make_policy("delay")
        # Preferred worker saturated, wait not yet expired: hold the slot.
        busy = self._ctx(now=100.0, inflight={"w1": 2}, slots=2)
        assert policy.next_task([job], busy) is None
        assert task.reassign is False
        # Free slot on the preferred worker: dispatch in place.
        free = self._ctx(now=100.0, inflight={"w1": 1}, slots=2)
        assert policy.next_task([job], free) is task
        # Wait expired while saturated: dispatch with the reassign flag.
        late = self._ctx(now=105.0, inflight={"w1": 2}, slots=2)
        assert policy.next_task([job], late) is task
        assert task.reassign is True

    def test_delay_policy_never_delays_reduce(self):
        task = self._task(wid="w1", kind="reduce", ready_since=100.0)
        job = self._job(0, tasks=[task])
        busy = self._ctx(now=100.0, inflight={"w1": 99})
        assert make_policy("delay").next_task([job], busy) is task

    def test_make_policy_rejects_unknown_name(self):
        with pytest.raises(ConfigError):
            make_policy("lottery")

    def test_fair_share_cluster_jobs_all_correct(self):
        """End-to-end under the fair-share policy: N concurrent jobs on
        one small cluster, every output correct."""
        cfg = ClusterConfig(
            dfs=DFSConfig(block_size=2048),
            jobs=JobsConfig(policy="fair", max_active_jobs=4),
        )
        seq = EclipseMRRuntime(2, config=cfg)
        seq.upload("fair.txt", corpus(13))
        ref = seq.run(wordcount_job("fair.txt", app_id="fair-0")).output
        with ClusterRuntime(2, cfg) as rt:
            rt.upload("fair.txt", corpus(13))
            assert isinstance(rt.jobs.policy, FairSharePolicy)
            handles = rt.jobs.submit_many([
                slow_job("fair.txt", f"fair-{i}", delay=0.05) for i in range(3)
            ])
            for h in handles:
                assert h.result(timeout=120).output == ref


def scheduler_idle(sched) -> bool:
    return not (sched._active or sched._queued or sched._inflight_total)


class TestFinishedJobRetention:
    """A finished job's state dies with the client's last reference to it.

    Runs with the cyclic collector off, so a reference cycle counts as a
    leak: a long-lived driver must not need a generation-2 collection to
    let go of a job's output."""

    def test_fifty_jobs_leave_nothing_behind(self):
        seq = EclipseMRRuntime(2, config=CFG)
        seq.upload("keep.txt", corpus(21))
        ref = seq.run(wordcount_job("keep.txt", app_id="keep")).output
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            with ClusterRuntime(2, CFG) as rt:
                rt.upload("keep.txt", corpus(21))
                sched = rt.jobs
                # Heartbeats mint their metric names on a clock, not per
                # job; let the first one land before names are compared.
                wait_for(lambda: "heartbeat.received" in rt.metrics.counters,
                         what="first heartbeat")

                def run_one(k: int) -> list:
                    """Run job ``k`` to the end; keep only weak references."""
                    if k == 1:  # cancelled while its maps are in flight
                        h = rt.submit(slow_job("keep.txt", f"keep-{k}", delay=0.1))
                        wait_for(lambda: h.state is JobState.RUNNING,
                                 what="job to start")
                        assert h.cancel() is True
                        assert isinstance(h.exception(timeout=60), JobCancelled)
                        return [weakref.ref(h)]
                    if k == 2:  # its mapper raises
                        h = rt.submit(MapReduceJob(
                            app_id=f"keep-{k}", input_file="keep.txt",
                            map_fn=boom_map, reduce_fn=wordcount_reduce,
                        ))
                        assert isinstance(h.exception(timeout=60), ClusterError)
                        return [weakref.ref(h)]
                    h = rt.submit(wordcount_job("keep.txt", app_id=f"keep-{k}"))
                    res = h.result(timeout=60)
                    assert res.output == ref
                    return [weakref.ref(h), weakref.ref(res)]

                previous = None
                names_after_5 = None
                for k in range(50):
                    refs = run_one(k)
                    wait_for(lambda: scheduler_idle(sched), what="idle scheduler")
                    if previous is not None:
                        assert [r() for r in previous] == [None] * len(previous), (
                            f"job {k - 1} is still referenced after job {k}"
                        )
                    assert len(sched._timers) == 0
                    if k == 5:
                        names_after_5 = set(rt.metrics.snapshot())
                    previous = refs
                assert set(rt.metrics.snapshot()) == names_after_5
        finally:
            if gc_was_enabled:
                gc.enable()

    def test_a_pending_connection_retry_survives_another_jobs_finish(self):
        """A dispatch that failed to connect waits on a "retry" timer;
        another job finishing meanwhile must not drop that timer."""
        cfg = ClusterConfig(
            dfs=DFSConfig(block_size=2048),
            net=NetConfig(retry_base_delay=0.5, retry_max_delay=0.5),
        )
        seq = EclipseMRRuntime(2, config=cfg)
        seq.upload("retry.txt", corpus(23))
        ref = seq.run(wordcount_job("retry.txt", app_id="retry")).output
        with ClusterRuntime(2, cfg) as rt:
            rt.upload("retry.txt", corpus(23))
            sched = rt.jobs
            pool = rt.coordinator.pool
            call_async = pool.call_async
            retried_at: list[float] = []

            def flaky_call_async(addr, method, args=None, **kw):
                if (method == "run_map" and args["job"]["app_id"] == "retried"
                        and args["index"] == 0):
                    if not retried_at:
                        retried_at.append(0.0)
                        raise RpcConnectionError("injected: connection refused")
                    retried_at[0] = time.monotonic()
                return call_async(addr, method, args, **kw)

            pool.call_async = flaky_call_async
            retried = rt.submit(wordcount_job("retry.txt", app_id="retried"))
            quick = rt.submit(wordcount_job("retry.txt", app_id="quick"))
            assert quick.result(timeout=60).output == ref
            assert retried.result(timeout=60).output == ref
            # The other job was done and reaped before the retry fired.
            assert quick.finished_at < retried_at[0]
            assert rt.metrics.counter("rpc.retries").value == 1
            wait_for(lambda: scheduler_idle(sched), what="idle scheduler")
            assert len(sched._timers) == 0
