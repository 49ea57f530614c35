"""The discrete-event MapReduce job engine.

Runs :class:`SimJobSpec` jobs over a :class:`~repro.sim.cluster.SimCluster`
under a :class:`~repro.perfmodel.framework.FrameworkModel`.  Map tasks
contend for per-node slots and the per-node disk, read through the
distributed in-memory cache (iCache) and the OS page cache, and ship
intermediate data according to the framework's shuffle mode:

* **proactive** (EclipseMR): each map task's output streams to its
  reduce-side server *while the task computes*; the push overlaps compute
  and is written to the destination's disk (and page cache) on arrival.
* **pull** (Hadoop): map output is written to the mapper's local disk;
  after the map phase, reducers read it back and pull it over the network.
* **memory** (Spark): map output stays in memory; reducers pull it over
  the network without touching disks.

Modeling note: a real map task sprays its output to every reducer in spill
chunks.  To keep the fluid-flow network tractable, the engine aggregates
each map task's shuffle output into a single flow to a round-robin
destination; across thousands of tasks the per-link load converges to the
same distribution while the event count stays linear in tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np

from repro.cache.distributed import DistributedCache
from repro.common.config import ClusterConfig
from repro.common.errors import SimulationError
from repro.common.hashing import DEFAULT_SPACE, HashSpace
from repro.dht.ring import ConsistentHashRing
from repro.perfmodel.framework import FrameworkModel
from repro.perfmodel.placement import BlockSpec
from repro.perfmodel.profiles import AppProfile
from repro.scheduler.fair import FairScheduler
from repro.scheduler.laf import LAFScheduler
from repro.sim.cluster import SimCluster
from repro.sim.engine import AllOf, AnyOf, Event, Simulation
from repro.sim.node import MEMORY_BANDWIDTH

__all__ = ["SimJobSpec", "JobTiming", "PerfEngine"]


@dataclass
class SimJobSpec:
    """One job for the performance plane."""

    app: AppProfile
    tasks: list[BlockSpec]
    """One map task per entry; entries may repeat blocks (skewed access)."""

    iterations: int = 1
    label: str = ""

    submit_at: float = 0.0
    """Arrival offset (seconds) relative to the batch start: jobs can
    arrive "as in time series" (paper §III-C) instead of all at once."""

    @property
    def input_bytes(self) -> int:
        return sum(t.size for t in self.tasks)


@dataclass
class JobTiming:
    """What the engine measured for one job."""

    label: str
    start: float = 0.0
    end: float = 0.0
    iteration_times: list[float] = field(default_factory=list)
    map_tasks: int = 0
    reduce_tasks: int = 0
    reassignments: int = 0
    task_restarts: int = 0
    """Tasks restarted because their server failed mid-execution."""
    bytes_shuffled: float = 0.0
    icache_hits: int = 0
    icache_misses: int = 0
    tasks_per_server: dict[int, int] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.end - self.start

    @property
    def cache_hit_ratio(self) -> float:
        total = self.icache_hits + self.icache_misses
        return self.icache_hits / total if total else 0.0

    def tasks_per_slot_stddev(self, slots_per_server: int) -> float:
        """The paper's §III-C balance metric (stddev of tasks per slot)."""
        per_slot = [c / slots_per_server for c in self.tasks_per_server.values()]
        return float(np.std(per_slot)) if per_slot else 0.0


class PerfEngine:
    """A configured simulation ready to run jobs."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        framework: FrameworkModel | None = None,
        space: HashSpace = DEFAULT_SPACE,
    ) -> None:
        from repro.perfmodel.framework import eclipse_framework

        self.config = config or ClusterConfig()
        self.framework = framework or eclipse_framework()
        self.space = space
        self.sim = Simulation()
        self.cluster = SimCluster(self.sim, self.config)
        n = self.config.num_nodes
        self.ring = ConsistentHashRing(space)
        for i in range(n):
            self.ring.add_node(i, space.key_of(f"node-{i}"))
        self.scheduler = self.framework.make_scheduler(space, list(range(n)), self.ring)
        self.dcache = DistributedCache(
            list(range(n)), self.config.cache, space, clock=lambda: self.sim.now
        )
        # Ring order: replica neighbors are ring successors, whose hashed
        # positions are random w.r.t. racks -- about half of all replica
        # traffic crosses the inter-rack trunk, as on the real testbed.
        order = sorted(range(n), key=self.ring.position_of)
        self._ring_pos = {node: i for i, node in enumerate(order)}
        self._ring_order = order
        self._namenode = None
        if self.framework.metadata_central:
            from repro.baselines.hdfs import NameNodeModel

            self._namenode = NameNodeModel(self.sim, self.framework.namenode_lookup_time)
        self._shuffle_rr = 0
        self._dead: set[int] = set()
        self._running_on: dict[int, set] = {}
        self._failures: list[tuple[float, int]] = []
        self.trace = None
        """Optional :class:`repro.perfmodel.trace.TaskTrace`; set before
        running jobs to record per-task lifecycles."""

    # -- public API -----------------------------------------------------------

    def run_job(self, spec: SimJobSpec) -> JobTiming:
        """Run one job to completion and return its timing."""
        return self.run_jobs([spec])[0]

    def run_jobs(self, specs: list[SimJobSpec]) -> list[JobTiming]:
        """Run jobs concurrently, honoring each spec's ``submit_at`` offset."""
        timings = [JobTiming(label=spec.label or spec.app.name) for spec in specs]

        def delayed(spec, timing):
            if spec.submit_at > 0:
                yield self.sim.timeout(spec.submit_at)
            yield from self._job_process(spec, timing)

        for at, node in self._failures:
            self.sim.process(self._killer(at, node), name=f"kill-{node}")
        self._failures = []
        done = [
            self.sim.process(delayed(spec, timing), name=f"job-{i}")
            for i, (spec, timing) in enumerate(zip(specs, timings))
        ]
        self.sim.run(AllOf(done))
        return timings

    def schedule_failure(self, node: int, at: float) -> None:
        """Crash ``node`` at simulation time ``at`` during the next run.

        Running tasks on the node are killed and restarted on survivors
        (EclipseMR restarts failed tasks, §II-C); the schedulers re-cut
        their tables, the ring drops the node, and block reads fall back
        to surviving replica holders.
        """
        if not 0 <= node < self.config.num_nodes:
            raise SimulationError(f"node {node} outside the cluster")
        if at < 0:
            raise SimulationError("failure time must be non-negative")
        self._failures.append((at, node))

    def alive(self, node: int) -> bool:
        return node not in self._dead

    def _killer(self, at: float, node: int) -> Generator[Event, None, None]:
        yield self.sim.timeout(at)
        if node in self._dead:
            return
        self._dead.add(node)
        if node in self.scheduler.servers:
            self.scheduler.remove_server(node)
        if node in self.ring:
            self.ring.remove_node(node)
        order = [n for n in self._ring_order if n != node]
        self._ring_order = order
        self._ring_pos = {n: i for i, n in enumerate(order)}
        self._sync_ranges(force=True)
        # Kill everything mid-flight on the node; each task restarts itself.
        for proc in list(self._running_on.get(node, ())):
            proc.interrupt("node failure")

    def drop_caches(self) -> None:
        """Empty page caches and the distributed in-memory caches
        (the paper does this before every cold-cache job)."""
        self.cluster.drop_all_caches()
        self.dcache.clear()

    # -- job process ---------------------------------------------------------------

    def _job_process(self, spec: SimJobSpec, timing: JobTiming) -> Generator[Event, None, None]:
        fw = self.framework
        timing.start = self.sim.now
        timing.tasks_per_server = {i: 0 for i in range(self.config.num_nodes)}
        if fw.job_overhead:
            yield self.sim.timeout(fw.job_overhead)
        if self._namenode is not None:
            yield from self._namenode_op()

        for iteration in range(spec.iterations):
            it_start = self.sim.now
            state = _JobState(shuffle_factor=spec.app.shuffle_ratio)
            map_done = [
                self.sim.process(
                    self._map_task(spec, block, iteration, timing, state),
                    name=f"map-{i}",
                )
                for i, block in enumerate(spec.tasks)
            ]
            yield AllOf(map_done)
            if fw.shuffle_mode in ("pull", "memory"):
                yield from self._pull_shuffle(spec, state)
            yield from self._reduce_phase(spec, iteration, state.reduce_bytes, timing)
            yield from self._iteration_output(spec, iteration)
            timing.iteration_times.append(self.sim.now - it_start)

        timing.end = self.sim.now
        stats = self.dcache.stats()
        timing.icache_hits = stats.icache_hits - self._icache_hits_base
        timing.icache_misses = stats.icache_misses - self._icache_misses_base

    _icache_hits_base = 0
    _icache_misses_base = 0

    def snapshot_cache_counters(self) -> None:
        """Zero the per-run cache counters (call between experiments)."""
        stats = self.dcache.stats()
        self._icache_hits_base = stats.icache_hits
        self._icache_misses_base = stats.icache_misses

    # -- map tasks ------------------------------------------------------------------

    def _map_task(
        self,
        spec: SimJobSpec,
        block: BlockSpec,
        iteration: int,
        timing: JobTiming,
        state: "_JobState",
    ) -> Generator[Event, None, None]:
        """Run (and on node failure, restart) one map task."""
        from repro.sim.engine import Interrupt

        while True:
            try:
                yield from self._map_attempt(spec, block, iteration, timing, state)
                return
            except Interrupt:
                timing.task_restarts += 1
                # Loop: the scheduler no longer knows the dead server, so
                # the retry lands on a survivor.

    def _map_attempt(
        self,
        spec: SimJobSpec,
        block: BlockSpec,
        iteration: int,
        timing: JobTiming,
        state: "_JobState",
    ) -> Generator[Event, None, None]:
        fw = self.framework
        rec = None
        if self.trace is not None:
            rec = self.trace.open(
                f"{spec.label}/it{iteration}/{block.block_id}", "map", -1, self.sim.now
            )
        server, req, reassigned = yield from self._acquire_map_slot(block)
        if reassigned:
            timing.reassignments += 1
        node = self.cluster.nodes[server]
        if rec is not None:
            rec.server = server
            rec.reassigned = reassigned
            rec.started_at = self.sim.now
        proc = self.sim.active_process
        if proc is not None:
            self._running_on.setdefault(server, set()).add(proc)
        self.scheduler.notify_start(server)
        try:
            timing.tasks_per_server[server] += 1
            timing.map_tasks += 1
            if fw.task_overhead:
                yield self.sim.timeout(fw.task_overhead)
            if self._namenode is not None:
                for _ in range(fw.namenode_ops_per_task):
                    yield from self._namenode_op()

            yield from self._read_input(server, block, iteration, spec)

            out_bytes = block.size * state.shuffle_factor
            wire_bytes = out_bytes * fw.shuffle_inefficiency
            cpu = (
                spec.app.map_cpu_seconds(block.size)
                * self._cpu_scale(spec.app)
                * spec.app.block_cpu_multiplier(block.block_id)
            )
            if fw.rdd_build_rate and iteration == 0 and fw.cache_input_blocks:
                cpu += block.size / fw.rdd_build_rate

            if fw.shuffle_mode == "proactive" and out_bytes > 0:
                dest = self._next_shuffle_dest()
                state.reduce_bytes[dest] = state.reduce_bytes.get(dest, 0.0) + out_bytes
                timing.bytes_shuffled += out_bytes
                transfer = self.cluster.network.transfer(server, dest, wire_bytes)
                compute = self.sim.timeout(cpu)
                yield AllOf([compute, transfer])
                # the push lands on the destination's disk (and page cache)
                self.sim.process(
                    self.cluster.nodes[dest].write_extent(
                        ("shuffle", spec.label, dest, self.sim.now), int(out_bytes)
                    )
                )
            else:
                yield self.sim.timeout(cpu)
                if out_bytes > 0:
                    dest = self._next_shuffle_dest()
                    state.reduce_bytes[dest] = state.reduce_bytes.get(dest, 0.0) + out_bytes
                    timing.bytes_shuffled += out_bytes
                    state.pending_pull.setdefault(dest, []).append((server, wire_bytes))
                    if fw.shuffle_mode == "pull":
                        # Hadoop materializes map output on the local disk.
                        yield from node.write_extent(
                            ("mapout", spec.label, block.block_id, iteration), int(out_bytes)
                        )
        finally:
            if rec is not None:
                rec.done_at = self.sim.now
            if proc is not None:
                self._running_on.get(server, set()).discard(proc)
            node.map_slots.release(req)
            if server in self.scheduler.servers:
                self.scheduler.notify_finish(server)

    def _acquire_map_slot(self, block: BlockSpec) -> Generator[Event, None, tuple]:
        """Schedule + wait for a slot, honoring the delay-scheduling wait."""
        if isinstance(self.scheduler, FairScheduler):
            assignment = self.scheduler.assign(locations=list(block.holders))
        else:
            assignment = self.scheduler.assign(hash_key=block.key)
        self._sync_ranges()
        server = assignment.server
        node = self.cluster.nodes[server]
        req = node.map_slots.request()
        reassigned = False
        if assignment.wait_limit is not None and not req.triggered:
            idx, _ = yield AnyOf([req, self.sim.timeout(assignment.wait_limit)])
            if not req.triggered:
                node.map_slots.cancel(req)
                self.scheduler.cancel_assignment(server)
                fallback = self.scheduler.reassign()
                server = fallback.server
                node = self.cluster.nodes[server]
                req = node.map_slots.request()
                reassigned = True
                yield req
            elif idx == 1:
                pass  # timer fired in the same instant the slot arrived
        else:
            yield req
        while server in self._dead:
            # The server died while the task queued: move on.
            node.map_slots.cancel(req)
            self.scheduler.cancel_assignment(server)
            fallback = self.scheduler.reassign()
            server = fallback.server
            node = self.cluster.nodes[server]
            req = node.map_slots.request()
            reassigned = True
            yield req
        return server, req, reassigned

    def _read_input(
        self, server: int, block: BlockSpec, iteration: int, spec: SimJobSpec
    ) -> Generator[Event, None, None]:
        icache = self.dcache.worker(server)
        hit, _ = icache.get_input(block.block_id)
        if hit:
            yield self.sim.timeout(block.size / MEMORY_BANDWIDTH)
        else:
            # Any replica holder will do (the paper reads the predecessor/
            # successor copies, §II-A/§II-E).  A local copy is preferred --
            # remote reads burn trunk bandwidth -- but a deeply queued local
            # spindle drains its tail through an idle replica holder.
            holders = [h for h in block.holders if h not in self._dead]
            if not holders:
                # All original holders are gone: recovery re-replicated the
                # block to the current ring owner (§II-A).
                holders = [self.ring.owner_of(block.key)]
            best = min(
                holders,
                key=lambda h: self.cluster.nodes[h].disk.queue_length,
            )
            if (
                server in holders
                and self.cluster.nodes[server].disk.queue_length
                <= self.cluster.nodes[best].disk.queue_length + 2
            ):
                owner = server
            else:
                owner = best
            yield from self.cluster.remote_read(server, owner, ("blk", block.block_id), block.size)
            if self.framework.cache_input_blocks:
                icache.put_input(block.block_id, None, size=block.size, hash_key=block.key)
        if iteration > 0 and spec.app.iteration_output_ratio > 0:
            # page rank also consumes the previous iteration's output;
            # each task reads its share, served from the local page cache
            # when the write is still resident.
            share = spec.app.iteration_output_bytes(spec.input_bytes) / max(1, len(spec.tasks))
            yield from self.cluster.nodes[server].read_extent(
                ("iterout", spec.label, iteration - 1, server), int(share)
            )

    # -- shuffle ------------------------------------------------------------------

    def _next_shuffle_dest(self) -> int:
        for _ in range(self.config.num_nodes):
            dest = self._shuffle_rr % self.config.num_nodes
            self._shuffle_rr += 1
            if dest not in self._dead:
                return dest
        raise SimulationError("no alive node to shuffle to")

    def _pull_shuffle(self, spec: SimJobSpec, state: "_JobState") -> Generator[Event, None, None]:
        """Post-map fetch: each reducer pulls its input from mapper nodes."""
        fw = self.framework
        pulls = []
        pending, state.pending_pull = state.pending_pull, {}

        def one_pull(src: int, dst: int, nbytes: float):
            if fw.shuffle_mode == "pull":
                # disk-backed: the mapper side re-reads the spilled output
                yield from self.cluster.nodes[src].read_extent(
                    ("mapout-read", spec.label, src, dst), int(nbytes)
                )
            yield self.cluster.network.transfer(src, dst, nbytes)

        for dst, sources in pending.items():
            # merge per source server to bound the flow count at n^2
            merged: dict[int, float] = {}
            for src, nbytes in sources:
                merged[src] = merged.get(src, 0.0) + nbytes
            for src, nbytes in merged.items():
                if src != dst and nbytes > 0:
                    pulls.append(self.sim.process(one_pull(src, dst, nbytes)))
        if pulls:
            yield AllOf(pulls)

    # -- reduce phase ------------------------------------------------------------------

    def _reduce_phase(
        self,
        spec: SimJobSpec,
        iteration: int,
        reduce_bytes: dict[int, float],
        timing: JobTiming,
    ) -> Generator[Event, None, None]:
        tasks = []
        merged: dict[int, float] = {}
        for server, nbytes in reduce_bytes.items():
            if server in self._dead:
                # The pushed data went down with the node: the reduce task
                # reruns on a survivor, which re-fetches the bytes there.
                server = self._ring_neighbor_alive(server)
            merged[server] = merged.get(server, 0.0) + nbytes
        for server, nbytes in merged.items():
            if nbytes > 0:
                tasks.append(
                    self.sim.process(
                        self._reduce_task(spec, iteration, server, nbytes, timing)
                    )
                )
        if tasks:
            yield AllOf(tasks)

    def _reduce_task(
        self,
        spec: SimJobSpec,
        iteration: int,
        server: int,
        nbytes: float,
        timing: JobTiming,
    ) -> Generator[Event, None, None]:
        fw = self.framework
        node = self.cluster.nodes[server]
        rec = None
        if self.trace is not None:
            rec = self.trace.open(f"{spec.label}/it{iteration}/r{server}", "reduce", server, self.sim.now)
        req = node.reduce_slots.request()
        yield req
        if rec is not None:
            rec.started_at = self.sim.now
        try:
            timing.reduce_tasks += 1
            timing.tasks_per_server[server] += 1
            if fw.task_overhead:
                yield self.sim.timeout(fw.task_overhead)
            if fw.shuffle_mode in ("memory", "proactive"):
                # Spark's fetched map output sits in executor memory; an
                # EclipseMR push was written through the destination's page
                # cache moments ago and is read back from it (the paper's
                # "reducers read these intermediate results from oCache").
                yield self.sim.timeout(nbytes / MEMORY_BANDWIDTH)
            else:
                yield from node.read_extent(("shuffle", spec.label, server, "rd"), int(nbytes))
            yield self.sim.timeout(spec.app.reduce_cpu_seconds(nbytes) * self._cpu_scale(spec.app))
            # Single-shot jobs write their final output here.  Iterative
            # jobs go through _iteration_output instead: a framework that
            # persists every iteration has already written the final
            # result when the last iteration ends, and one that does not
            # (Spark) pays its final save there.
            out = nbytes / max(spec.app.shuffle_ratio, 1e-9) * spec.app.output_ratio
            if spec.iterations == 1 and out > 0:
                for copy in range(fw.replication):
                    target = server if copy == 0 else self._ring_neighbor(server, copy)
                    if target != server:
                        yield self.cluster.network.transfer(server, target, out)
                    yield from self.cluster.nodes[target].write_extent(
                        ("out", spec.label, server, copy), int(out)
                    )
        finally:
            if rec is not None:
                rec.done_at = self.sim.now
            node.reduce_slots.release(req)

    # -- iteration outputs ----------------------------------------------------------------

    def _iteration_output(self, spec: SimJobSpec, iteration: int) -> Generator[Event, None, None]:
        """Persist (or memory-cache) this iteration's output.

        Persisting frameworks write every iteration (the last write *is*
        the final output).  Memory-resident frameworks copy in memory and
        pay a replicated disk save on the final iteration only -- the
        paper's "Spark writes its final outputs to disk storage".
        """
        if spec.iterations <= 1:
            return
        is_last = iteration == spec.iterations - 1
        total = spec.app.iteration_output_bytes(spec.input_bytes)
        n = self.config.num_nodes
        share = total // n
        if not self.framework.persist_iteration_outputs and is_last:
            if share > 0:
                writers = [
                    self.sim.process(
                        self._pipelined_write(spec, iteration, s, share, self.framework.replication)
                    )
                    for s in range(n)
                ]
                yield AllOf(writers)
            return
        if self.framework.persist_iteration_outputs and share > 0:
            # The DHT file system stores iteration outputs persistently:
            # each server writes its share and ships replica copies to its
            # ring neighbors, which write them too.
            writers = [
                self.sim.process(
                    self._pipelined_write(
                        spec, iteration, s, share,
                        self.framework.iteration_output_replication,
                    )
                )
                for s in range(n) if s not in self._dead
            ]
            if writers:
                yield AllOf(writers)
        else:
            # Spark keeps it in memory: also prime the page-cache-equivalent
            # extents so the next iteration's reads are memory reads.  Each
            # executor materializes its own share in parallel.
            for s in range(n):
                self.cluster.nodes[s].page_cache.insert(
                    ("iterout", spec.label, iteration, s), share
                )
            yield self.sim.timeout(share / MEMORY_BANDWIDTH)

    # -- plumbing -----------------------------------------------------------------------

    def _ring_neighbor_alive(self, server: int) -> int:
        """The nearest alive server (by index order) to a dead one."""
        for step in range(1, self.config.num_nodes + 1):
            cand = (server + step) % self.config.num_nodes
            if cand not in self._dead:
                return cand
        raise SimulationError("all nodes dead")

    def _ring_neighbor(self, server: int, k: int) -> int:
        """The k-th ring successor of a server (replica placement)."""
        order = self._ring_order
        return order[(self._ring_pos[server] + k) % len(order)]

    def _pipelined_write(self, spec: SimJobSpec, iteration: int, server: int, share: int, replication: int) -> Generator[Event, None, None]:
        """A DFS write pipeline: the primary writes its share, then the
        copy is forwarded hop by hop to the replica holders (the ring
        neighbors), each writing in turn -- the write is durable only when
        the pipeline drains, exactly like an HDFS/DHT-FS replicated put."""
        n = self.config.num_nodes
        yield from self.cluster.nodes[server].write_extent(
            ("iterout", spec.label, iteration, server), share
        )
        src = server
        for copy in range(1, replication):
            dst = self._ring_neighbor(server, copy)
            yield self.cluster.network.transfer(src, dst, share)
            yield from self.cluster.nodes[dst].write_extent(
                ("iterout-r", spec.label, iteration, server, copy), share
            )
            src = dst

    def _cpu_scale(self, app: AppProfile) -> float:
        """CPU multiplier: the JVM-sensitive fraction of the app's compute
        runs at the framework's compute_efficiency, the rest at full speed."""
        sens = app.jvm_sensitivity
        return sens / self.framework.compute_efficiency + (1.0 - sens)

    def _namenode_op(self) -> Generator[Event, None, None]:
        assert self._namenode is not None
        yield from self._namenode.lookup()

    def _sync_ranges(self, force: bool = False) -> None:
        if isinstance(self.scheduler, LAFScheduler):
            if force and set(self.dcache.servers) != set(self.scheduler.servers):
                for gone in set(self.dcache.servers) - set(self.scheduler.servers):
                    self.dcache.remove_server(gone)
            if self.dcache.partition is not self.scheduler.partition:
                if set(self.scheduler.partition.servers) == set(self.dcache.servers):
                    self.dcache.set_partition(self.scheduler.partition)


@dataclass
class _JobState:
    """Per-job, per-iteration shuffle bookkeeping (jobs run concurrently)."""

    shuffle_factor: float
    reduce_bytes: dict[int, float] = field(default_factory=dict)
    pending_pull: dict[int, list[tuple[int, float]]] = field(default_factory=dict)
