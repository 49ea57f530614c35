"""Plane 3: the multi-process cluster runtime.

:class:`ClusterRuntime` exposes the same ``upload`` / ``run(job)`` API as
the sequential :class:`~repro.mapreduce.runtime.EclipseMRRuntime`, but
workers are real OS processes (no GIL sharing) serving RPCs over
localhost TCP.  Map tasks are dispatched by hash key to the worker whose
LAF range covers the block; the workers read their blocks shard-locally
(or from a replica holder over the wire), push spills worker-to-worker,
and reduce in place.

Fault tolerance is **surgical** (the paper's recovery claim, §V): a
worker killed mid-job stops heartbeating (or drops its TCP connections);
the coordinator declares it dead, merges its arc into its successor's,
re-replicates lost block copies in batches from the least-loaded
survivors, and broadcasts the new ring -- and the *attempt stays alive*.
Completed maps whose spills all landed on surviving destinations are
salvaged as-is; only the dead worker's unfinished maps, plus completed
maps that had delivered spills *to* it, are re-assigned through the
post-failover LAF table.  Re-execution is safe because spill delivery is
keyed by deterministic spill ids and ring removal only grows surviving
arcs: a re-executed map delivers to each surviving destination a
superset of the spill ids it delivered before, so every stale spill is
overwritten, never duplicated.  The salvage/re-run split is counted in
``failover.tasks_salvaged`` / ``cluster.tasks_reexecuted``.

Outputs are equal to the sequential runtime's: the scheduler sees the
same assignment sequence (all assignments are drawn before any dispatch,
when every worker's load is zero -- exactly the state the sequential
runtime assigns in), and reduce grouping is made deterministic by
consuming spills in spill-id order.

Job execution itself lives in :mod:`repro.jobs`: ``run(job)`` is a thin
wrapper over ``submit(job).result()`` on the cluster's one event-driven
:class:`~repro.jobs.scheduler.JobScheduler`, which multiplexes any
number of concurrently submitted jobs over the same workers (see the
``jobs`` property / :meth:`ClusterRuntime.submit`).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from typing import Any, Callable, Optional, Sequence

import repro as _repro_pkg
from repro.common.config import ClusterConfig
from repro.common.errors import (
    ClusterBusyError,
    ClusterError,
    NetworkError,
    RpcRemoteError,
    WorkerLost,
)
from repro.common.hashing import DEFAULT_SPACE, HashSpace
from repro.common.serialization import config_to_dict
from repro.cluster.coordinator import Coordinator
from repro.cluster.worker import worker_main
from repro.mapreduce.job import JobResult, MapReduceJob
from repro.net.rpc import fan_out
from repro.sim.metrics import MetricsRegistry

__all__ = ["ClusterRuntime"]


class ClusterRuntime:
    """An EclipseMR cluster of real worker processes on localhost."""

    def __init__(
        self,
        worker_ids: Sequence[str] | int,
        config: ClusterConfig | None = None,
        scheduler: str = "laf",
        space: HashSpace = DEFAULT_SPACE,
    ) -> None:
        if isinstance(worker_ids, int):
            worker_ids = [f"worker-{i}" for i in range(worker_ids)]
        self.config = config or ClusterConfig()
        self.space = space
        self.metrics = MetricsRegistry()
        self.coordinator = Coordinator(
            worker_ids, self.config, scheduler, space, metrics=self.metrics
        )
        #: The coordinator-side fault injector of the chaos plane.  Script
        #: faults by passing ``ClusterConfig(chaos=ChaosConfig(seed=...,
        #: rules=(...)))``; inspect the injected schedule afterwards via
        #: ``runtime.chaos.schedule()`` / ``runtime.chaos.fault_counts()``.
        self.chaos = self.coordinator.fault
        self._processes: dict[str, multiprocessing.process.BaseProcess] = {}
        self._closed = False
        self._job_scheduler = None
        self._sched_lock = threading.Lock()
        self._run_gate = threading.Lock()
        #: Test/chaos hook: called with the number of completed map tasks
        #: after each one finishes (killing a worker here exercises failover).
        self.on_map_complete: Optional[Callable[[int], None]] = None
        #: Test/chaos hook: called with the number of maps skipped by
        #: oCache replay so far (killing a worker here exercises the
        #: mid-replay failover / fallback-to-re-map path).
        self.on_replay_complete: Optional[Callable[[int], None]] = None
        #: Test/chaos hook: called with ``(worker_addr, pages_so_far)`` as
        #: each streamed-response page reaches the coordinator (killing the
        #: sender here exercises mid-stream failover).
        self.on_stream_page: Optional[Callable[[tuple[str, int], int], None]] = None
        self.coordinator.set_stream_page_hook(self._stream_page)
        #: The live observability endpoint (``None`` unless
        #: ``config.observe.enabled``): Prometheus text at ``/metrics``,
        #: JSON at ``/metrics.json``, HTML dashboard at ``/``.
        self.observer = None
        try:
            self._start_workers()
            self.coordinator.wait_for_workers(self.config.net.start_timeout)
            self._with_failover(self.coordinator.broadcast_ring)
            if self.config.observe.enabled:
                from repro.observe import ObserveServer

                self.observer = ObserveServer(
                    self.metrics, self._observe_poll, self.config.observe
                ).start()
        except BaseException:
            self.shutdown()
            raise

    def _stream_page(self, addr: tuple[str, int], pages: int) -> None:
        hook = self.on_stream_page
        if hook is not None:
            hook(addr, pages)

    # -- process management ---------------------------------------------------------

    def _start_workers(self) -> None:
        for wid in self.coordinator.worker_ids:
            self._spawn(wid)

    def _spawn(self, wid: str) -> None:
        """Start one worker process (initial fleet and elastic joiners)."""
        ctx = multiprocessing.get_context(self.config.net.mp_start_method)
        manifest = config_to_dict(self.config)
        # Spawned children re-import ``repro``; make sure they can even when
        # the parent runs from a source tree that is not installed.  The
        # parent's ``sys.path`` travels to spawn/forkserver children via
        # multiprocessing's preparation data, and the explicit worker arg
        # re-asserts it at worker startup -- no mutation of the parent's
        # environment (the old PYTHONPATH save/restore raced concurrent
        # cluster startups and anything else reading the environment).
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(_repro_pkg.__file__)))
        if src_root not in sys.path:
            sys.path.insert(0, src_root)
        proc = ctx.Process(
            target=worker_main,
            args=(
                wid,
                self.coordinator.server.host,
                self.coordinator.server.port,
                manifest,
                self.space.size,
                (src_root,),
            ),
            name=f"eclipsemr-{wid}",
            daemon=True,
        )
        proc.start()
        self._processes[wid] = proc

    def kill_worker(self, worker_id: str) -> None:
        """SIGKILL a worker process *without* telling the coordinator.

        Detection must come the honest way: missed heartbeats or dead TCP
        connections.  This is the chaos hook the failover tests use.
        """
        proc = self._processes.get(worker_id)
        if proc is None:
            raise ClusterError(f"no process for worker {worker_id!r}")
        proc.kill()
        proc.join(timeout=10.0)
        self.metrics.counter("cluster.workers_killed").inc()

    def _reap(self, worker_id: str) -> None:
        proc = self._processes.pop(worker_id, None)
        if proc is None:
            return
        proc.join(timeout=1.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)

    # -- membership views -----------------------------------------------------------

    @property
    def worker_ids(self) -> list[str]:
        return self.coordinator.alive_ids()

    def check_liveness(self) -> list[str]:
        """Heartbeat-dead workers (detected, not yet failed over)."""
        return self.coordinator.check_heartbeats()

    # -- elastic membership -----------------------------------------------------------

    def join_worker(self, worker_id: str | None = None, wait: bool = True):
        """Admit a new worker process into the running cluster.

        The request queues on the job scheduler and is applied at its
        quiesce barrier (no tasks in flight, no live jobs): in-flight
        jobs finish under the old membership, then the joiner spawns,
        registers, takes over its hash arc, and receives its block
        handoff.  With ``wait=False`` the join :class:`Future` is
        returned instead of blocked on -- required when calling from a
        chaos hook that runs on the scheduler thread itself.
        """
        if worker_id is None:
            n = 0
            while f"worker-{n}" in self.coordinator.worker_ids:
                n += 1
            worker_id = f"worker-{n}"
        future = self.jobs.request_join(str(worker_id))
        if not wait:
            return future
        timeout = (self.config.membership.barrier_timeout
                   + self.config.membership.join_register_timeout)
        return future.result(timeout=timeout)

    def drain_worker(self, worker_id: str, wait: bool = True):
        """Gracefully retire a live worker from the running cluster.

        Queued like :meth:`join_worker` and applied at the same quiesce
        barrier; the drainee participates in in-flight jobs to completion,
        then hands its state to its ring successor and leaves cleanly --
        no failover budget is spent.  ``wait=False`` returns the Future.
        """
        future = self.jobs.request_drain(str(worker_id))
        if not wait:
            return future
        timeout = (self.config.membership.barrier_timeout
                   + self.config.membership.drain_timeout)
        return future.result(timeout=timeout)

    def _do_join(self, wid: str) -> str:
        """Perform a join at the scheduler's quiesce barrier (its thread)."""
        coord = self.coordinator
        coord.expect_worker(wid)
        try:
            self._spawn(wid)
            coord.wait_for_worker(
                wid, self.config.membership.join_register_timeout
            )
            while True:
                try:
                    coord.admit_worker(wid)
                    break
                except WorkerLost as lost:
                    if lost.worker_id == wid:
                        raise
                    # A *different* worker died mid-join: fail it over and
                    # finish admitting the (still healthy) joiner.
                    self._failover(lost.worker_id)
        except WorkerLost as lost:
            if lost.worker_id != wid:
                raise
            coord.abort_join(wid)
            self._reap(wid)
            raise ClusterError(f"join of {wid!r} aborted: {lost}") from lost
        except BaseException:
            coord.abort_join(wid)
            self._reap(wid)
            raise
        self.metrics.counter("cluster.workers_joined").inc()
        return wid

    def _do_drain(self, wid: str) -> str:
        """Perform a drain at the scheduler's quiesce barrier (its thread)."""
        while True:
            try:
                self.coordinator.drain_worker(wid)
                break
            except WorkerLost as lost:
                if lost.worker_id == wid:
                    # The drainee died mid-handoff: this is a failover now.
                    self._failover(wid)
                    raise ClusterError(
                        f"drain of {wid!r} became a failover: {lost}"
                    ) from lost
                self._failover(lost.worker_id)
        self._reap(wid)
        self.metrics.counter("cluster.workers_drained").inc()
        return wid

    # -- data -----------------------------------------------------------------------

    def upload(self, name: str, data: bytes, **kwargs: Any) -> None:
        """Put an input file into the workers' DHT FS shards.

        A worker dying (or partitioned away) mid-upload fails over and
        the upload retries against the survivors: placement is recomputed
        on the post-failover ring and block puts are idempotent
        overwrites, so a partial first attempt leaves at worst stale
        extra copies on survivor shards.
        """
        self._with_failover(lambda: self.coordinator.upload(name, data, **kwargs))

    def _with_failover(self, op: Callable[[], Any]) -> Any:
        """Run a pre-job control-plane operation, failing over any death.

        Unlike the in-job loop there is no attempt to keep alive: a
        :class:`WorkerLost` simply removes the victim and the operation
        retries on the survivors.  Bounded because every retry follows a
        death and failing the last worker raises :class:`ClusterError`.
        """
        while True:
            try:
                return op()
            except WorkerLost as lost:
                self._failover(lost.worker_id)

    # -- job execution ---------------------------------------------------------------

    @property
    def jobs(self):
        """The cluster's one :class:`~repro.jobs.scheduler.JobScheduler`.

        Created lazily on first use with the configured inter-job policy
        (``config.jobs.policy``).  Exactly one scheduler may own a
        runtime; constructing a second raises :class:`ClusterBusyError`.
        """
        sched = self._job_scheduler
        if sched is None or not sched._thread.is_alive():
            from repro.jobs.scheduler import JobScheduler

            JobScheduler(self)  # registers itself via _attach_job_scheduler
        return self._job_scheduler

    def _attach_job_scheduler(self, sched) -> None:
        with self._sched_lock:
            current = self._job_scheduler
            if current is not None and current._thread.is_alive():
                raise ClusterBusyError(
                    "this cluster already has a running job scheduler;"
                    " submit through runtime.jobs instead of creating"
                    " another JobScheduler"
                )
            self._job_scheduler = sched

    def submit(self, job: MapReduceJob, weight: float = 1.0):
        """Queue ``job`` on the cluster's scheduler; returns its handle."""
        return self.jobs.submit(job, weight=weight)

    def run(self, job: MapReduceJob) -> JobResult:
        """Execute one MapReduce job and block for its result.

        A thin wrapper over ``submit(job).result()``: the job rides the
        multi-job scheduler exactly like any other submission, and a lone
        job sees the very assignment sequence the old blocking loop drew
        (bit-equal output and ``tasks_per_server``).  Only one blocking
        ``run`` may be in flight at a time -- a concurrent second call
        raises :class:`ClusterBusyError` (use :meth:`submit` to overlap
        jobs on purpose).

        Fault tolerance is unchanged: a worker death anywhere in the job
        salvages every completed map whose spills live entirely on
        survivors and re-executes only the rest; the job fails with
        :class:`ClusterError` once it has spent one failover per
        initially-available spare worker.
        """
        if not self._run_gate.acquire(blocking=False):
            raise ClusterBusyError(
                "another run() is already blocking on this cluster;"
                " use submit() for concurrent jobs"
            )
        try:
            return self.jobs.submit(job).result()
        finally:
            self._run_gate.release()

    # -- RPC plumbing -----------------------------------------------------------------

    def _call_worker(self, wid: str, method: str, args: dict,
                     timeout: float | None = None) -> Any:
        addr = self.coordinator.address_of(wid).addr
        try:
            return self.coordinator.pool.call(addr, method, args, timeout=timeout)
        except RpcRemoteError as exc:
            if exc.etype == "SpillDeliveryLost" and exc.data:
                # The mapper is fine; its reduce-side *target* is gone.
                raise WorkerLost(exc.data["target"], "spill push failed") from exc
            raise ClusterError(f"worker {wid!r} failed {method}: {exc}") from exc
        except NetworkError as exc:
            raise WorkerLost(wid, str(exc)) from exc

    def _broadcast(self, method: str, args: dict) -> None:
        """Issue one control call to every live worker concurrently."""
        fan_out(lambda wid: self._call_worker(wid, method, args),
                self.coordinator.alive_ids())

    def _failover(self, worker_id: str) -> None:
        wid = worker_id
        for _ in range(len(self.coordinator.worker_ids)):
            self._reap(wid)
            try:
                self.coordinator.mark_dead(wid)
                # A cascaded death can interrupt ``mark_dead`` mid-restore,
                # leaving copies of *earlier* corpses' blocks unplaced; the
                # sweep re-checks every file and is a no-op when nothing is
                # missing.
                self.coordinator.ensure_replication()
                return
            except WorkerLost as exc:  # another worker died during failover
                wid = exc.worker_id
        raise ClusterError("failover could not stabilize the cluster")

    # -- stats & teardown --------------------------------------------------------------

    def worker_stats(self) -> dict[str, dict]:
        """Live per-worker statistics (tasks run, bytes moved, cache hits),
        gathered from all workers concurrently."""
        alive = self.coordinator.alive_ids()
        return dict(zip(alive, fan_out(
            lambda wid: self._call_worker(wid, "get_stats", {}), alive
        )))

    def _observe_poll(self) -> dict[str, dict]:
        """One sampling round for the observe endpoint: full per-worker
        registry exports plus heartbeat ages, best-effort.

        Rides the same ``get_stats`` RPC as :meth:`worker_stats` (with
        ``full=True``) over the shared multiplexed pool, so a scrape
        coexists with a running job.  Unlike :meth:`worker_stats` it
        must never raise: a worker that dies or partitions mid-sample is
        simply absent from this round (the heartbeat/failover machinery
        owns declaring it dead, not the scraper).
        """
        alive = self.coordinator.alive_ids()
        ages = self.coordinator.heartbeat_ages()
        rtts = self.coordinator.heartbeat_rtts()
        health = self.coordinator.health.snapshot()

        def poll_one(wid: str) -> Optional[dict]:
            try:
                stats = self._call_worker(wid, "get_stats", {"full": True})
            except Exception:
                return None
            if wid in ages:
                stats["heartbeat_age_s"] = ages[wid]
            if wid in rtts:
                stats["heartbeat_rtt_s"] = rtts[wid]
            if wid in health:
                stats["health_score"] = health[wid]["score"]
                stats["quarantined"] = health[wid]["quarantined"]
                # Bools are skipped by the /metrics exposition; ship the
                # quarantine state as a 0/1 gauge alongside.
                stats["health_quarantined"] = int(health[wid]["quarantined"])
            return stats

        polled = zip(alive, fan_out(poll_one, alive))
        return {wid: stats for wid, stats in polled if stats is not None}

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        observer = getattr(self, "observer", None)
        if observer is not None:
            try:
                observer.close()
            except Exception:
                pass
        sched = getattr(self, "_job_scheduler", None)
        if sched is not None:
            try:
                sched.shutdown()
            except Exception:
                pass
        try:
            self.coordinator.shutdown()
        finally:
            for wid in list(self._processes):
                self._reap(wid)

    def __enter__(self) -> "ClusterRuntime":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def __del__(self) -> None:  # best-effort safety net
        try:
            self.shutdown()
        except Exception:
            pass
