"""Parallel execution for the functional engine.

:class:`ParallelEclipseMRRuntime` runs the user's map and reduce
*functions* on a thread pool while keeping every shared structure --
scheduler, caches, DHT file system, intermediate stores -- on the driving
thread.  The split mirrors the real system's separation between worker
compute and coordinator state, avoids locks entirely, and still yields
real speedups for NumPy-heavy applications (k-means, logistic
regression) whose kernels release the GIL.

Execution stays *semantically identical* to the sequential runtime: the
scheduler sees the same assignment sequence, spills carry the same ids,
and results are bit-equal (MapReduce outputs are order-independent by
construction).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Hashable

from repro.common.errors import SchedulingError
from repro.dfs.metadata import BlockDescriptor
from repro.mapreduce.job import JobResult, JobStats, MapReduceJob
from repro.mapreduce.runtime import EclipseMRRuntime
from repro.mapreduce.shuffle import SpillBuffer

__all__ = ["ParallelEclipseMRRuntime"]


class ParallelEclipseMRRuntime(EclipseMRRuntime):
    """EclipseMR runtime with thread-pool map/reduce compute."""

    def __init__(self, *args: Any, max_workers: int = 4, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if max_workers < 1:
            raise SchedulingError("max_workers must be >= 1")
        self.max_workers = max_workers

    def run(self, job: MapReduceJob) -> JobResult:
        stats = JobStats(tasks_per_server={wid: 0 for wid in self.worker_ids})
        cache_before = self.dcache.stats()
        meta = self.dfs.stat(job.input_file, user=job.user)

        # Phase 1 (driver): schedule + read every block through the caches.
        # The scheduler and LRU mutations stay single-threaded.
        staged: list[tuple[BlockDescriptor, Hashable, bytes | None]] = []
        for desc in meta.blocks:
            assignment = self.scheduler.assign(hash_key=desc.key)
            self._sync_cache_ranges()
            server = assignment.server
            stats.tasks_per_server[server] += 1
            if job.reuse_intermediates and self._replay_intermediates(job, desc, stats):
                stats.maps_skipped_by_reuse += 1
                continue
            data = self._read_block_with_cache(job, desc, server, stats)
            staged.append((desc, server, data))

        # Phase 2 (pool): run the map function -- pure compute.
        def compute(desc: BlockDescriptor, data: bytes) -> list[tuple[Any, Any]]:
            return list(job.map_fn(data))

        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            futures = [
                (desc, server, pool.submit(compute, desc, data))
                for desc, server, data in staged
            ]
            # Phase 3 (driver): retries, spills, markers -- shared state.
            for desc, server, future in futures:
                pairs = future.result()
                attempts = 0
                while self.failure_injector.should_fail(job.app_id, desc.index):
                    stats.task_retries += 1
                    attempts += 1
                    if attempts >= self.MAX_TASK_ATTEMPTS:
                        raise SchedulingError(
                            f"map task {desc.index} of {job.app_id!r} failed "
                            f"{self.MAX_TASK_ATTEMPTS} times"
                        )
                    pairs = compute(desc, self._read_block_with_cache(job, desc, server, stats))
                self._emit_pairs(job, desc, pairs, stats)
                self.workers[server].map_tasks_run += 1
                stats.map_tasks += 1

            # Phase 4: reduce -- grouping on the driver, reduce_fn on the pool.
            output = self._parallel_reduce(job, stats, pool)

        cache_after = self.dcache.stats()
        stats.icache_hits = cache_after.icache_hits - cache_before.icache_hits
        stats.icache_misses = cache_after.icache_misses - cache_before.icache_misses
        stats.ocache_hits = cache_after.ocache_hits - cache_before.ocache_hits
        stats.ocache_misses = cache_after.ocache_misses - cache_before.ocache_misses
        for worker in self.workers.values():
            worker.intermediates.discard_job(job.app_id)
        return JobResult(app_id=job.app_id, output=output, stats=stats)

    # -- internals ----------------------------------------------------------------

    def _emit_pairs(self, job: MapReduceJob, desc: BlockDescriptor, pairs, stats: JobStats) -> None:
        """Feed one map task's output through the normal spill machinery."""
        spill = SpillBuffer(
            space=self.space,
            route=self.dfs.ring.owner_of,
            deliver=lambda dest, sid, p, nbytes: self._deliver_spill(
                job, dest, sid, p, nbytes, stats
            ),
            threshold_bytes=job.spill_buffer_bytes,
            task_id=f"{job.app_id}/map{desc.index}",
            combiner=job.combiner if job.cross_spill_combine else None,
        )
        emit = spill.emit
        for key, value in pairs:
            emit(key, value)
        spill.flush()
        stats.spills += spill.spills
        stats.spill_recombines += spill.recombines
        if job.cache_intermediates:
            self._write_completion_marker(job, desc, spill)

    def _parallel_reduce(self, job: MapReduceJob, stats: JobStats, pool: ThreadPoolExecutor) -> dict:
        from collections import defaultdict

        output: dict[Any, Any] = {}
        reduce_futures = []
        for wid in self.worker_ids:
            worker = self.workers[wid]
            pairs = worker.intermediates.pairs_for(job.app_id)
            if not pairs:
                continue
            grouped: dict[Any, list[Any]] = defaultdict(list)
            for k, v in pairs:
                grouped[k].append(v)

            def reduce_group(grouped=grouped):
                return {k: job.reduce_fn(k, vs) for k, vs in grouped.items()}

            reduce_futures.append((wid, pool.submit(reduce_group)))
        for wid, future in reduce_futures:
            partial = future.result()
            for k, v in partial.items():
                if k in output:
                    raise SchedulingError(f"intermediate key {k!r} reduced on two servers")
                output[k] = v
            self.workers[wid].reduce_tasks_run += 1
            stats.reduce_tasks += 1
            stats.tasks_per_server[wid] += 1
        return output
