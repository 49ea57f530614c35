"""The EclipseMR cluster runtime (functional plane).

Wires together the DHT file system, the distributed in-memory cache, a
scheduler, and per-worker intermediate stores, then executes MapReduce
jobs the way Fig. 2 describes:

1. hash the input file name to find the metadata owner and the block keys;
2. assign each map task by the hash key of its block (LAF or delay);
3. the map task reuses iCache, else reads the block from the DHT file
   system (remote if needed) and caches it;
4. intermediate pairs are proactively pushed to the reduce-side server
   owning their hash key, in spill-buffer chunks, optionally persisted to
   the DHT file system and tagged in oCache;
5. reduce tasks run exactly where their data already sits.

Tasks execute sequentially and deterministically -- this plane verifies
*what* the system computes and *where* data moves; the discrete-event
plane measures how long it takes.
"""

from __future__ import annotations

import pickle
from collections import defaultdict
from typing import Any, Hashable, Optional, Sequence

from repro.cache.distributed import DistributedCache
from repro.common.config import ClusterConfig
from repro.common.errors import FileSystemError, SchedulingError
from repro.common.hashing import DEFAULT_SPACE, HashSpace
from repro.dfs.filesystem import DHTFileSystem
from repro.dfs.metadata import BlockDescriptor
from repro.mapreduce.job import JobResult, JobStats, MapReduceJob
# ``combine_pairs`` is re-exported: profilers look the in-node combine up
# here by name.
from repro.mapreduce.shuffle import IntermediateStore, SpillBuffer, combine_pairs  # noqa: F401
from repro.mapreduce.task import reduce_pairs, run_map_task
from repro.scheduler.base import Scheduler
from repro.scheduler.factory import scheduler_class
from repro.scheduler.laf import LAFScheduler

__all__ = ["Worker", "FailureInjector", "EclipseMRRuntime"]


class Worker:
    """One worker server's execution-side state."""

    def __init__(self, worker_id: Hashable) -> None:
        self.worker_id = worker_id
        self.intermediates = IntermediateStore(worker_id)
        self.map_tasks_run = 0
        self.reduce_tasks_run = 0


class FailureInjector:
    """Deterministic task-failure injection for fault-tolerance tests.

    ``plan`` maps ``(app_id, block_index)`` to how many attempts of that
    map task should fail before one succeeds.
    """

    def __init__(self, plan: Optional[dict[tuple[str, int], int]] = None) -> None:
        self.plan = dict(plan or {})
        self._failed: dict[tuple[str, int], int] = defaultdict(int)
        self.injected = 0

    def should_fail(self, app_id: str, block_index: int) -> bool:
        key = (app_id, block_index)
        if self._failed[key] < self.plan.get(key, 0):
            self._failed[key] += 1
            self.injected += 1
            return True
        return False


class EclipseMRRuntime:
    """An in-process EclipseMR cluster."""

    MAX_TASK_ATTEMPTS = 4

    def __init__(
        self,
        worker_ids: Sequence[Hashable] | int,
        config: ClusterConfig | None = None,
        scheduler: str | Scheduler = "laf",
        space: HashSpace = DEFAULT_SPACE,
        failure_injector: Optional[FailureInjector] = None,
    ) -> None:
        if isinstance(worker_ids, int):
            worker_ids = [f"worker-{i}" for i in range(worker_ids)]
        self.worker_ids = list(worker_ids)
        if not self.worker_ids:
            raise SchedulingError("runtime needs at least one worker")
        self.config = config or ClusterConfig()
        self.space = space
        self.dfs = DHTFileSystem(self.worker_ids, self.config.dfs, space)
        self.dcache = DistributedCache(self.worker_ids, self.config.cache, space)
        self.workers = {wid: Worker(wid) for wid in self.worker_ids}
        self.failure_injector = failure_injector or FailureInjector()
        if isinstance(scheduler, Scheduler):
            self.scheduler = scheduler
        else:
            self.scheduler = scheduler_class(scheduler)(
                space, self.worker_ids, self.config.scheduler, ring=self.dfs.ring
            )

    # -- membership --------------------------------------------------------------

    def fail_worker(self, worker_id: Hashable):
        """Crash a worker between jobs: its disk, caches and queues are gone.

        The DHT file system recovers from neighbor replicas (paper §II-A),
        the schedulers re-cut their hash key tables over the survivors, and
        subsequent jobs run normally.  Returns the DFS recovery report.
        """
        from repro.dfs.fault import recover_from_failure

        if worker_id not in self.workers:
            raise SchedulingError(f"unknown worker {worker_id!r}")
        if len(self.worker_ids) == 1:
            raise SchedulingError("cannot fail the last worker")
        report = recover_from_failure(self.dfs, worker_id)
        self.worker_ids.remove(worker_id)
        del self.workers[worker_id]
        self.dcache.remove_server(worker_id)
        self.scheduler.remove_server(worker_id)
        return report

    def join_worker(self, worker_id: Hashable | None = None):
        """Admit a new worker between jobs (elastic join).

        The joiner takes over its hash arc in the DHT file system, block
        placement is rebalanced onto it, and the schedulers re-cut their
        tables over the enlarged set.  On a cluster that has not yet run a
        job, the post-join state is bit-equal to a fresh cluster of the
        resulting size.  Returns the joiner's worker id.
        """
        from repro.dfs.fault import rebalance

        if worker_id is None:
            n = 0
            while f"worker-{n}" in self.workers:
                n += 1
            worker_id = f"worker-{n}"
        if worker_id in self.workers:
            raise SchedulingError(f"worker {worker_id!r} already present")
        self.dfs.add_server(worker_id)
        rebalance(self.dfs)
        self.worker_ids.append(worker_id)
        self.workers[worker_id] = Worker(worker_id)
        self.dcache.add_server(worker_id)
        self.scheduler.add_server(worker_id, ring=self.dfs.ring)
        return worker_id

    def drain_worker(self, worker_id: Hashable):
        """Gracefully retire a worker between jobs (elastic drain).

        The inverse of :meth:`join_worker`: the drainee's arc merges into
        its ring successor, its blocks are restored from the surviving
        replicas, and the schedulers re-cut over the shrunken set.  Unlike
        :meth:`fail_worker`, nothing is lost -- every block still has live
        replicas when the drainee leaves.  Returns the DFS repair report.
        """
        from repro.dfs.fault import recover_from_failure

        if worker_id not in self.workers:
            raise SchedulingError(f"unknown worker {worker_id!r}")
        if len(self.worker_ids) == 1:
            raise SchedulingError("cannot drain the last worker")
        report = recover_from_failure(self.dfs, worker_id)
        self.worker_ids.remove(worker_id)
        del self.workers[worker_id]
        self.dcache.remove_server(worker_id)
        self.scheduler.drain_server(worker_id, ring=self.dfs.ring)
        return report

    # -- data -----------------------------------------------------------------

    def upload(self, name: str, data: bytes, **kwargs: Any) -> None:
        """Put an input file into the DHT file system."""
        self.dfs.upload(name, data, **kwargs)

    # -- job execution -----------------------------------------------------------

    def run(self, job: MapReduceJob) -> JobResult:
        """Execute one MapReduce job and return its outputs and statistics.

        The one in-process job lifecycle: a map phase, then a reduce
        phase, then the job's cache-stat deltas.  The planes differ only
        in how they run the two phases (:meth:`_map_phase`,
        :meth:`_reduce_phase`).  The job's in-flight intermediates are
        dropped however it ends, so a job that failed half way leaves no
        pairs behind for the next run of its app id.
        """
        stats = JobStats(tasks_per_server={wid: 0 for wid in self.worker_ids})
        cache_before = self.dcache.stats()
        try:
            meta = self.dfs.stat(job.input_file, user=job.user)
            self._map_phase(job, meta.blocks, stats)
            output = self._reduce_phase(job, stats)
        finally:
            for worker in self.workers.values():
                worker.intermediates.discard_job(job.app_id)
        cache_after = self.dcache.stats()
        stats.icache_hits = cache_after.icache_hits - cache_before.icache_hits
        stats.icache_misses = cache_after.icache_misses - cache_before.icache_misses
        stats.ocache_hits = cache_after.ocache_hits - cache_before.ocache_hits
        stats.ocache_misses = cache_after.ocache_misses - cache_before.ocache_misses
        return JobResult(app_id=job.app_id, output=output, stats=stats)

    # -- map phase ------------------------------------------------------------------

    def _map_phase(self, job: MapReduceJob, blocks: Sequence[BlockDescriptor],
                   stats: JobStats) -> None:
        """One map task at a time, each fed lazily by its map function."""
        for desc in blocks:
            server = self._schedule_map(job, desc, stats)
            if server is None:
                continue
            self.scheduler.notify_start(server)
            try:
                data = self._read_block_with_cache(job, desc, server, stats)
                self._run_map_attempts(job, desc, server, job.map_fn(data), stats)
            finally:
                self.scheduler.notify_finish(server)

    def _schedule_map(self, job: MapReduceJob, desc: BlockDescriptor,
                      stats: JobStats) -> Hashable | None:
        """Assign one map task to a server; None when a previous run's
        intermediates were replayed in its place."""
        server = self.scheduler.assign(hash_key=desc.key).server
        self._sync_cache_ranges()
        stats.tasks_per_server[server] += 1
        if job.reuse_intermediates and self._replay_intermediates(job, desc, stats):
            stats.maps_skipped_by_reuse += 1
            return None
        return server

    def _run_map_attempts(self, job: MapReduceJob, desc: BlockDescriptor,
                          server: Hashable, pairs, stats: JobStats) -> None:
        """Run one map task over ``pairs``, retrying on a re-read block
        while the failure injector fails its attempts, and account the
        winning attempt's flushed spill buffer."""
        for attempt in range(1, self.MAX_TASK_ATTEMPTS + 1):
            if self.failure_injector.should_fail(job.app_id, desc.index):
                # Fail mid-stream: some spills may already be pushed; the
                # retry must overwrite them, not duplicate them.
                pairs = _fail_after_first(pairs)
            try:
                spill = run_map_task(
                    job, pairs, space=self.space, route=self.dfs.ring.owner_of,
                    deliver=lambda dest, sid, spilled, nbytes: self._deliver_spill(
                        job, dest, sid, spilled, nbytes),
                    index=desc.index,
                )
                break
            except _InjectedTaskFailure:
                stats.task_retries += 1
            if attempt < self.MAX_TASK_ATTEMPTS:
                pairs = job.map_fn(self._read_block_with_cache(job, desc, server, stats))
        else:
            raise SchedulingError(
                f"map task {desc.index} of {job.app_id!r} failed "
                f"{self.MAX_TASK_ATTEMPTS} times"
            )
        self.workers[server].map_tasks_run += 1
        stats.map_tasks += 1
        stats.spills += spill.spills
        stats.bytes_shuffled += spill.bytes_pushed
        stats.spill_recombines += spill.recombines
        if job.cache_intermediates:
            self._write_completion_marker(job, desc, spill)

    def _read_block_with_cache(
        self, job: MapReduceJob, desc: BlockDescriptor, server: Hashable, stats: JobStats
    ) -> bytes:
        from repro.dfs.blocks import BlockId

        bid = BlockId(job.input_file, desc.index)
        cache = self.dcache.worker(server)
        hit, data = cache.get_input(bid)
        if hit:
            return data
        block = self.dfs.read_block(job.input_file, desc.index, user=job.user)
        if block.data is None:
            raise FileSystemError(
                f"{job.input_file!r} is size-only; the functional engine needs payloads"
            )
        holders = [
            sid for sid, srv in self.dfs.servers.items() if srv.blocks.has(bid)
        ]
        if server in holders:
            stats.local_block_reads += 1
        else:
            stats.remote_block_reads += 1
        cache.put_input(bid, block.data, size=block.size, hash_key=desc.key)
        return block.data

    # -- shuffle ------------------------------------------------------------------

    def _deliver_spill(
        self,
        job: MapReduceJob,
        dest: Hashable,
        spill_id: str,
        pairs: list[tuple[Any, Any]],
        nbytes: int,
    ) -> None:
        """Land one (combined, non-empty) spill on its reduce-side worker,
        and tag it in oCache and the DHT file system when the job caches
        intermediates."""
        self.workers[dest].intermediates.receive(job.app_id, spill_id, pairs, nbytes)
        if job.cache_intermediates:
            payload = pickle.dumps(pairs, protocol=pickle.HIGHEST_PROTOCOL)
            hash_key = self.space.key_of(repr(pairs[0][0]))
            self.dcache.worker(dest).put_output(
                job.app_id, spill_id, pairs, size=len(payload),
                ttl=job.intermediate_ttl, hash_key=hash_key,
            )
            obj_name = self._spill_object_name(job, spill_id)
            if not self.dfs.exists(obj_name):
                self.dfs.put_object(obj_name, payload, hash_key, owner=job.user)

    @staticmethod
    def _spill_object_name(job: MapReduceJob, spill_id: str) -> str:
        return f"_imr/{spill_id}"

    @staticmethod
    def _marker_name(job: MapReduceJob, block_index: int) -> str:
        return f"_imr-done/{job.app_id}/{job.intermediate_tag(block_index)}"

    def _write_completion_marker(self, job: MapReduceJob, desc: BlockDescriptor, spill: SpillBuffer) -> None:
        """Record which spills a finished map task produced, so a later job
        (or a restarted one) can reuse them without re-running the map."""
        manifest = spill.manifest()
        name = self._marker_name(job, desc.index)
        if self.dfs.exists(name):
            self.dfs.delete(name, user=job.user)
        self.dfs.put_object(
            name,
            pickle.dumps(manifest, protocol=pickle.HIGHEST_PROTOCOL),
            self.space.key_of(name),
            owner=job.user,
        )

    def _replay_intermediates(self, job: MapReduceJob, desc: BlockDescriptor, stats: JobStats) -> bool:
        """Reuse a previous run's intermediates for this map task if present.

        Looks for the completion marker; for each recorded spill, takes the
        pairs from the destination's oCache (hit) or re-reads them from the
        DHT file system (miss), then feeds the reduce side as if the map had
        run.  Gathering is validate-then-apply: if any destination is gone
        or any spill object is unreadable, *nothing* is delivered and the
        map runs normally -- replay degrades to re-execution, never to a
        partial shuffle.  Returns True when the map computation was skipped.
        """
        name = self._marker_name(job, desc.index)
        if not self.dfs.exists(name):
            return False
        manifest = pickle.loads(self.dfs.get_object(name, user=job.user))
        staged: list[tuple[Hashable, str, list, int]] = []
        for dest, spill_id, nbytes in manifest:
            if dest not in self.workers:
                return False  # destination died since the marker was cut
            cache = self.dcache.worker(dest)
            hit, pairs = cache.get_output(job.app_id, spill_id)
            if not hit:
                obj_name = self._spill_object_name(job, spill_id)
                if not self.dfs.exists(obj_name):
                    return False  # persisted copy lost: re-run the map
                payload = self.dfs.get_object(obj_name, user=job.user)
                pairs = pickle.loads(payload)
                cache.put_output(job.app_id, spill_id, pairs, size=len(payload), ttl=job.intermediate_ttl)
            staged.append((dest, spill_id, pairs, nbytes))
        for dest, spill_id, pairs, nbytes in staged:
            # The marker's recorded nbytes, not a re-pickle: replayed
            # byte accounting matches the original push exactly.
            self.workers[dest].intermediates.receive(job.app_id, spill_id, pairs, nbytes)
            stats.spills += 1
            stats.bytes_shuffled += nbytes
        return True

    # -- reduce phase ------------------------------------------------------------------

    def _reduce_phase(self, job: MapReduceJob, stats: JobStats) -> dict[Any, Any]:
        """One reduce task per worker holding intermediates, run in place."""
        output: dict[Any, Any] = {}
        for wid in self.worker_ids:
            pairs = self.workers[wid].intermediates.pairs_for(job.app_id)
            if not pairs:
                continue
            self.scheduler.notify_start(wid)
            try:
                self._merge_reduce(output, wid, reduce_pairs(job.reduce_fn, pairs), stats)
            finally:
                self.scheduler.notify_finish(wid)
        return output

    def _merge_reduce(self, output: dict[Any, Any], wid: Hashable,
                      part: dict[Any, Any], stats: JobStats) -> None:
        """Add one worker's reduce output to the job's and count its task."""
        twice = output.keys() & part.keys()
        if twice:
            raise SchedulingError(
                f"intermediate key {next(iter(twice))!r} reduced on two servers"
            )
        output.update(part)
        self.workers[wid].reduce_tasks_run += 1
        stats.reduce_tasks += 1
        stats.tasks_per_server[wid] += 1

    # -- plumbing -----------------------------------------------------------------------

    def _sync_cache_ranges(self) -> None:
        """Keep the distributed cache's ranges aligned with the scheduler's."""
        if isinstance(self.scheduler, LAFScheduler):
            if self.dcache.partition is not self.scheduler.partition:
                self.dcache.set_partition(self.scheduler.partition)

    def cache_hit_ratio(self) -> float:
        return self.dcache.stats().hit_ratio


class _InjectedTaskFailure(Exception):
    """Raised inside a map task by the failure injector."""


def _fail_after_first(pairs):
    """A failing attempt's map output: its first pair, then the failure."""
    for pair in pairs:
        yield pair
        break
    raise _InjectedTaskFailure()
