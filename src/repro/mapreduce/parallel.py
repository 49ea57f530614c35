"""Parallel execution for the functional engine.

:class:`ParallelEclipseMRRuntime` runs the user's map and reduce
*functions* on a thread pool while keeping every shared structure --
scheduler, caches, DHT file system, intermediate stores -- on the driving
thread.  The split mirrors the real system's separation between worker
compute and coordinator state, avoids locks entirely, and still yields
real speedups for NumPy-heavy applications (k-means, logistic
regression) whose kernels release the GIL.

Only the two phases differ from the sequential runtime; the job
lifecycle, the map and reduce task bodies and the accounting are its
own, so the scheduler sees the same assignment sequence, spills carry
the same ids, and results and statistics are equal.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Sequence

from repro.common.errors import SchedulingError
from repro.dfs.metadata import BlockDescriptor
from repro.mapreduce.job import JobStats, MapReduceJob
from repro.mapreduce.runtime import EclipseMRRuntime
from repro.mapreduce.task import reduce_pairs

__all__ = ["ParallelEclipseMRRuntime"]


class ParallelEclipseMRRuntime(EclipseMRRuntime):
    """EclipseMR runtime with thread-pool map/reduce compute."""

    def __init__(self, *args: Any, max_workers: int = 4, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if max_workers < 1:
            raise SchedulingError("max_workers must be >= 1")
        self.max_workers = max_workers

    def _map_phase(self, job: MapReduceJob, blocks: Sequence[BlockDescriptor],
                   stats: JobStats) -> None:
        # Driving thread: schedule and read every block through the
        # caches; the scheduler and LRU mutations stay single-threaded.
        staged = []
        for desc in blocks:
            server = self._schedule_map(job, desc, stats)
            if server is not None:
                staged.append((desc, server, self._read_block_with_cache(job, desc, server, stats)))
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            # Pool: the map function, pure compute.  Driving thread:
            # retries, spills and markers, in block order.
            futures = [(desc, server, pool.submit(lambda data: list(job.map_fn(data)), data))
                       for desc, server, data in staged]
            for desc, server, future in futures:
                self._run_map_attempts(job, desc, server, future.result(), stats)

    def _reduce_phase(self, job: MapReduceJob, stats: JobStats) -> dict[Any, Any]:
        output: dict[Any, Any] = {}
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            futures = [(wid, pool.submit(reduce_pairs, job.reduce_fn, pairs))
                       for wid in self.worker_ids
                       if (pairs := self.workers[wid].intermediates.pairs_for(job.app_id))]
            for wid, future in futures:
                self._merge_reduce(output, wid, future.result(), stats)
        return output
