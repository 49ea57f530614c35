"""The cluster coordinator: ring, scheduler, job state, liveness.

The coordinator is the control plane only -- the paper's data paths
(block reads, spill pushes) run worker-to-worker.  It owns:

* the DHT ring and the block/metadata placement derived from it;
* the LAF (or delay) scheduler and its hash key table;
* worker addresses, the heartbeat-fed :class:`LivenessTracker`, and the
  failover procedure: a dead worker's arc merges into its successor's
  (ring removal), lost copies are re-replicated from survivors, and the
  new ring table is broadcast to every live worker.

RPC/heartbeat traffic is counted into one :class:`MetricsRegistry`
shared with the runtime, so ``eclipsemr-repro cluster`` can print it.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Optional, Sequence

from repro.chaos.plane import FaultInjector
from repro.common.config import ClusterConfig
from repro.common.errors import (
    ClusterError,
    NetworkError,
    RpcRemoteError,
    SchedulingError,
    WorkerLost,
)
from repro.common.hashing import DEFAULT_SPACE, HashSpace
from repro.dfs.metadata import BlockDescriptor, FileMetadata
from repro.dht.ring import ConsistentHashRing
from repro.cluster.health import HealthMonitor
from repro.cluster.heartbeat import LivenessTracker
from repro.cluster.messages import CompletionMarker, RingTable, WorkerAddress
from repro.net.retry import RetryPolicy
from repro.net.rpc import AfterReply, ConnectionPool, RpcServer, fan_out
from repro.scheduler.base import Scheduler
from repro.scheduler.factory import scheduler_class
from repro.sim.metrics import MetricsRegistry

__all__ = ["Coordinator"]


class Coordinator:
    """Owns cluster-wide state; never touches payload bytes on the data path
    (except when restoring replication after a failure)."""

    def __init__(
        self,
        worker_ids: Sequence[str],
        config: ClusterConfig | None = None,
        scheduler: str | Scheduler = "laf",
        space: HashSpace = DEFAULT_SPACE,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.worker_ids = [str(w) for w in worker_ids]
        if not self.worker_ids:
            raise ClusterError("cluster needs at least one worker")
        if len(set(self.worker_ids)) != len(self.worker_ids):
            raise ClusterError("duplicate worker ids")
        self.config = config or ClusterConfig()
        self.space = space
        self.metrics = metrics or MetricsRegistry()
        self.ring = ConsistentHashRing(space)
        for wid in self.worker_ids:
            self.ring.add_node(wid)
        if isinstance(scheduler, Scheduler):
            self.scheduler = scheduler
        else:
            self.scheduler = scheduler_class(scheduler)(
                space, self.worker_ids, self.config.scheduler, ring=self.ring
            )

        self.metadata: dict[str, FileMetadata] = {}
        self.holders: dict[tuple[str, int], list[str]] = {}
        self.block_keys: dict[tuple[str, int], int] = {}
        # Completion markers: per-map spill manifests for oCache replay,
        # keyed like the sequential plane's ``_imr-done/...`` objects.
        self.markers: dict[tuple[str, str, int], CompletionMarker] = {}
        self.addresses: dict[str, WorkerAddress] = {}
        self.epoch = 0
        self.liveness = LivenessTracker(
            self.config.net.heartbeat_interval,
            self.config.net.heartbeat_miss_threshold,
        )
        # Gray-failure plane: heartbeat RTTs feed it here; the scheduler
        # feeds slow-task/timeout signals and consults the quarantine
        # judgment at dispatch.  Disabled configs make it inert.
        self.health = HealthMonitor(self.config.health, metrics=self.metrics)
        self.pool = ConnectionPool(self.config.net, metrics=self.metrics)
        self._registered = threading.Event()
        # Per-worker registration events for workers expected *after*
        # startup (elastic joins): the monitored set follows live
        # membership instead of the list captured at construction.
        self._register_events: dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self.server = RpcServer(
            {"register": self._handle_register, "heartbeat": self._handle_heartbeat},
            net=self.config.net,
            metrics=self.metrics,
        )
        # The coordinator's slice of the chaos plane: faults scripted with
        # src/dst "coordinator" fire here; workers run their own injector
        # from the same (manifest-carried) config.  Inactive configs leave
        # the transport hooks unset.
        self.fault = FaultInjector("coordinator", self.config.chaos,
                                   metrics=self.metrics)
        if self.fault.active:
            self.pool.fault_hook = self.fault.on_send
            self.server.fault_hook = self.fault.on_serve
        self.server.start()
        self._update_live_gauge()

    # -- registration & heartbeats -------------------------------------------------

    def _handle_register(self, worker_id: str, host: str, port: int) -> AfterReply:
        with self._lock:
            if worker_id not in self.worker_ids:
                raise ClusterError(f"unexpected worker {worker_id!r} tried to register")
            self.addresses[worker_id] = WorkerAddress(worker_id, host, port)
            complete = len(self.addresses) == len(self.worker_ids)
            joined = self._register_events.get(worker_id)
        self.fault.bind(worker_id, (host, port))
        # Registration enters the worker into the liveness tracker, so the
        # heartbeat sweep monitors joiners exactly like startup workers --
        # a joiner that goes silent is detected, not silently untracked.
        self.liveness.register(worker_id)
        self.metrics.counter("cluster.registrations").inc()
        # Keep the live-membership gauge truthful from startup on: it was
        # only written by membership *events*, so a cluster that never
        # joined/drained/failed scraped as "0 live workers" forever.
        self._update_live_gauge()

        def announce() -> None:
            # Only once the reply is on the wire: whoever waits on these
            # events may shut the server down, and a connection closed
            # under the reply fails the worker's ``register`` call.
            if complete:
                self._registered.set()
            if joined is not None:
                joined.set()

        return AfterReply(True, announce)

    def _handle_heartbeat(
        self, worker_id: str, seq: int, rtt_s: float | None = None
    ) -> bool:
        self.liveness.beat(worker_id, rtt_s=rtt_s)
        if rtt_s is not None:
            self.health.observe_rtt(worker_id, rtt_s)
        self.metrics.counter("heartbeat.received").inc()
        return True

    def wait_for_workers(self, timeout: float) -> None:
        if not self._registered.wait(timeout):
            missing = sorted(set(self.worker_ids) - set(self.addresses))
            raise ClusterError(
                f"workers {missing} did not register within {timeout:.1f}s"
            )

    def set_stream_page_hook(self, hook) -> None:
        """Observe streamed-response pages on the coordinator's connections.

        ``hook(worker_addr, pages_so_far)`` fires as each page of a
        streamed reduce output (or any streamed RPC response) arrives.
        The fault-injection suite uses this to kill a worker between two
        of its ``stream chunk`` frames -- deterministic mid-stream death.
        """
        self.pool.stream_page_hook = hook

    # -- membership ------------------------------------------------------------------

    def alive_ids(self) -> list[str]:
        """Registered workers not yet declared dead, in creation order."""
        return [wid for wid in self.worker_ids if wid in self.addresses]

    def address_of(self, worker_id: str) -> WorkerAddress:
        try:
            return self.addresses[worker_id]
        except KeyError:
            raise WorkerLost(worker_id, "no registered address") from None

    def ring_table(self) -> RingTable:
        return RingTable.from_ring(self.ring, epoch=self.epoch)

    def broadcast_ring(self) -> None:
        """Push the current ring + peer addresses to every live worker,
        concurrently (each worker applies it independently; epoch stamps
        make stale deliveries harmless)."""
        wire = self.ring_table().to_wire()
        peers = {wid: a.addr for wid, a in self.addresses.items()}
        args = {"ring": wire, "peers": peers}

        def push(wid: str) -> None:
            try:
                self.pool.call(self.address_of(wid).addr, "update_ring", args)
            except NetworkError as exc:
                raise WorkerLost(wid, f"ring broadcast failed: {exc}") from exc

        fan_out(push, self.alive_ids())

    def check_heartbeats(self) -> list[str]:
        """Workers the heartbeat stream has declared dead (not yet removed)."""
        dead = self.liveness.dead_workers()
        if dead:
            self.metrics.counter("heartbeat.missed_deadlines").inc(len(dead))
        ages = self.heartbeat_ages()
        if ages:
            self.metrics.gauge("heartbeat.max_age_s").set(max(ages.values()))
        return dead

    def heartbeat_ages(self) -> dict[str, float]:
        """Seconds since each tracked worker's last heartbeat (observability).

        A passive read of the liveness tracker: no deadline judgment, no
        metric writes -- the observe endpoint samples this next to
        ``get_stats`` so the dashboard can show per-worker silence.
        """
        ages: dict[str, float] = {}
        for wid in self.liveness.tracked():
            try:
                ages[wid] = self.liveness.age(wid)
            except ClusterError:
                continue  # removed between tracked() and age()
        return ages

    def heartbeat_rtts(self) -> dict[str, float]:
        """Latest worker-reported heartbeat round trips (observability).

        Mirrors :meth:`heartbeat_ages`: a passive read for the observe
        endpoint.  Workers that have not yet shipped a measured beat
        (the RTT rides one beat late) are simply absent.
        """
        rtts: dict[str, float] = {}
        for wid in self.liveness.tracked():
            rtt = self.liveness.rtt_of(wid)
            if rtt is not None:
                rtts[wid] = rtt
        return rtts

    def mark_dead(self, worker_id: str) -> None:
        """Fail a worker over: merge its arc, restore replication, re-ring.

        The dead worker's key range transfers to its ring successor, which
        by the paper's placement rule already replicates that range -- so
        every block stays readable.  Blocks that dropped below the
        replication factor are re-copied from survivors.
        """
        with self._lock:
            if worker_id not in self.addresses:
                return  # already failed over
            if len(self.addresses) == 1:
                raise ClusterError("cannot fail the last worker")
            gone = self.addresses.pop(worker_id)
            self.epoch += 1
        self.liveness.remove(worker_id)
        self.health.forget(worker_id)
        self.pool.close_address(gone.addr)
        # A worker can die half-way through a membership op that already
        # took it off the ring (a drain's handoff, an aborted join), so
        # ring/scheduler removal must tolerate it being gone already.
        if worker_id in self.ring:
            self.ring.remove_node(worker_id)
        try:
            self.scheduler.remove_server(worker_id)
        except SchedulingError:
            pass
        self.metrics.counter("cluster.failovers").inc()
        self._update_live_gauge()
        lost = [bid for bid, hs in self.holders.items() if worker_id in hs]
        for bid in lost:
            self.holders[bid] = [h for h in self.holders[bid] if h != worker_id]
            if not self.holders[bid]:
                raise ClusterError(
                    f"all copies of block {bid} died with worker {worker_id!r}"
                )
        self._restore_replication(lost)
        self.broadcast_ring()

    # -- elastic membership (live join / graceful drain) ----------------------------

    def expect_worker(self, worker_id: str) -> None:
        """Announce a joiner: admit its registration before it spawns.

        Appends the id to the mutable member list (so ``_handle_register``
        accepts it and enters it into the liveness tracker) and arms a
        per-worker registration event for :meth:`wait_for_worker`.
        """
        worker_id = str(worker_id)
        with self._lock:
            if worker_id in self.addresses:
                raise ClusterError(f"worker {worker_id!r} is already a live member")
            if worker_id not in self.worker_ids:
                self.worker_ids.append(worker_id)
            self._register_events[worker_id] = threading.Event()

    def wait_for_worker(self, worker_id: str, timeout: float) -> None:
        """Block until an expected joiner registers (or declare it lost)."""
        with self._lock:
            event = self._register_events.get(worker_id)
        if event is None:
            raise ClusterError(f"worker {worker_id!r} was never expected")
        if not event.wait(timeout):
            raise WorkerLost(
                worker_id, f"joiner did not register within {timeout:.1f}s"
            )

    def admit_worker(self, worker_id: str) -> None:
        """Admit a registered joiner into the ring and hand its arc over.

        The joiner takes the arc between its ring predecessor and its own
        position; every block whose (post-join) replica set includes the
        joiner is streamed to it through the batched ``call_many``
        re-replication path, under ``membership.*`` metrics.  The
        scheduler re-cuts its hash key table over the enlarged set (a
        pristine LAF table re-seeds from the new ring, keeping an
        idle-cluster join bit-equal to a fresh cluster of the resulting
        size), and the bumped-epoch ring is broadcast to every member.
        A joiner dying mid-handoff surfaces as :class:`WorkerLost`; the
        caller rolls back with :meth:`abort_join`.
        """
        with self._lock:
            if worker_id not in self.addresses:
                raise WorkerLost(worker_id, "joiner never registered")
            self.epoch += 1
        # Guarded for retry: a concurrent death mid-admit fails over and
        # the caller re-enters with the ring/scheduler already updated.
        if worker_id not in self.ring:
            self.ring.add_node(worker_id)
        if worker_id not in self.scheduler.servers:
            self.scheduler.add_server(worker_id, ring=self.ring)
        self._update_live_gauge()
        self._restore_replication(list(self.holders),
                                  metric_names=self._MEMBERSHIP_METRICS)
        self.broadcast_ring()
        with self._lock:
            self._register_events.pop(worker_id, None)
        self.metrics.counter("membership.joins").inc()

    def abort_join(self, worker_id: str, reason: str = "") -> None:
        """Roll back a failed join: the cluster returns to its prior state.

        Safe at any point of the join -- ring/scheduler/address/liveness
        state is undone only where it was applied.  The ring (with a
        bumped epoch) is re-broadcast so any member that saw the joiner's
        arc forgets it.
        """
        with self._lock:
            gone = self.addresses.pop(worker_id, None)
            self._register_events.pop(worker_id, None)
            if worker_id in self.worker_ids:
                self.worker_ids.remove(worker_id)
            self.epoch += 1
        self.liveness.remove(worker_id)
        self.health.forget(worker_id)
        if gone is not None:
            self.pool.close_address(gone.addr)
        if worker_id in self.ring:
            self.ring.remove_node(worker_id)
        try:
            self.scheduler.remove_server(worker_id)
        except SchedulingError:
            pass  # never admitted to the scheduler
        for bid, hs in self.holders.items():
            if worker_id in hs:
                self.holders[bid] = [h for h in hs if h != worker_id]
        self._update_live_gauge()
        self.metrics.counter("membership.joins_aborted").inc()
        self.broadcast_ring()

    def drain_worker(self, worker_id: str) -> None:
        """Gracefully retire a live worker: push state out, leave clean.

        The inverse of a join, and unlike :meth:`mark_dead` it spends no
        failover budget and loses nothing: the drainee's arc merges into
        its ring successor *while the drainee still serves reads*, every
        block it held is re-replicated onto the post-drain replica set
        (the drainee itself is the preferred source), its persisted spill
        objects are pushed worker-to-worker to the successor, and
        completion markers naming it as a spill destination are rewritten
        to the successor so oCache replay keeps working.  Only then does
        the drainee leave the address book and the ring broadcast go out.
        """
        with self._lock:
            if worker_id not in self.addresses:
                raise ClusterError(f"cannot drain {worker_id!r}: not a live member")
            if len(self.addresses) == 1:
                raise ClusterError("cannot drain the last worker")
            self.epoch += 1
        # Guarded for retry: a concurrent death mid-drain fails over and
        # the caller re-enters with the drainee already off the ring; its
        # successor is then whoever owns the drainee's old position.
        if worker_id in self.ring:
            successor = self.ring.successor(worker_id)
            self.ring.remove_node(worker_id)
        else:
            successor = self.ring.owner_of(self.space.key_of(str(worker_id)))
        if worker_id in self.scheduler.servers:
            self.scheduler.drain_server(worker_id, ring=self.ring)
        # Hand off block state.  The drainee is still addressable and
        # still a recorded holder, so it ranks as a fetch source; the
        # post-drain ring never targets it.
        held = [bid for bid, hs in self.holders.items() if worker_id in hs]
        self._restore_replication(held, metric_names=self._MEMBERSHIP_METRICS)
        # Hand off spill objects worker-to-worker (the coordinator stays
        # off the data path): the drainee batches its persisted spill
        # objects to the successor over one pipelined connection.
        succ_addr = self.address_of(successor)
        try:
            report = self.pool.call(
                self.address_of(worker_id).addr, "handoff_spills",
                {"host": succ_addr.host, "port": succ_addr.port},
                timeout=self.config.membership.drain_timeout,
            )
        except NetworkError as exc:
            raise WorkerLost(worker_id, f"drain handoff failed: {exc}") from exc
        self.metrics.counter("membership.spill_objects_handed_off").inc(
            int(report.get("objects", 0))
        )
        self.metrics.counter("membership.spill_bytes_handed_off").inc(
            int(report.get("bytes", 0))
        )
        with self._lock:
            # Replay markers follow the spill objects to the successor.
            for key, marker in list(self.markers.items()):
                if worker_id in marker.dests():
                    self.markers[key] = CompletionMarker(
                        app_id=marker.app_id,
                        input_file=marker.input_file,
                        block_index=marker.block_index,
                        entries=tuple(
                            (successor if dest == worker_id else dest, sid, nbytes)
                            for dest, sid, nbytes in marker.entries
                        ),
                    )
        for bid in held:
            self.holders[bid] = [h for h in self.holders[bid] if h != worker_id]
        with self._lock:
            gone = self.addresses.pop(worker_id)
        self.liveness.remove(worker_id)
        self.health.forget(worker_id)
        self._update_live_gauge()
        self.broadcast_ring()
        # Best-effort shutdown: the drainee is out of the ring either way.
        policy = RetryPolicy(attempts=1, base_delay=0.01)
        try:
            self.pool.call(gone.addr, "shutdown", timeout=2.0, policy=policy)
        except NetworkError:
            pass
        self.pool.close_address(gone.addr)
        self.metrics.counter("membership.drains").inc()

    # Metric-name quads for the batched copy path: (blocks, bytes,
    # batches, batch-bytes histogram).  Failover and elastic membership
    # share the mechanism but report under their own names so a graceful
    # drain never shows up as recovery traffic.
    _FAILOVER_METRICS = (
        "failover.blocks_rereplicated",
        "failover.bytes_rereplicated",
        "failover.rereplication_batches",
        "failover.rereplication_batch_bytes",
    )
    _MEMBERSHIP_METRICS = (
        "membership.blocks_handed_off",
        "membership.bytes_handed_off",
        "membership.handoff_batches",
        "membership.handoff_batch_bytes",
    )

    def _restore_replication(
        self,
        block_ids: list[tuple[str, int]],
        metric_names: tuple[str, str, str, str] | None = None,
    ) -> None:
        """Copy under-replicated blocks to their new replica holders, batched.

        Adaptive re-replication (ROADMAP item): each block is fetched
        *once*, from its least-loaded surviving holder (the LAF scheduler
        already tracks loads), and all copies bound for one target ship
        as a single pipelined :meth:`ConnectionPool.call_many` batch of
        ``restore_block`` calls with out-of-band payloads -- one wire
        round per target instead of one blocking RPC per block copy.  A
        target dying mid-batch surfaces as :class:`WorkerLost` so the
        failover loop can cascade onto it.  Elastic membership reuses the
        same path for join/drain handoff under ``metric_names`` of its
        own (:data:`_MEMBERSHIP_METRICS`).
        """
        blocks_name, bytes_name, batches_name, hist_name = (
            metric_names or self._FAILOVER_METRICS
        )
        batches: dict[str, list[tuple[tuple[str, int], bytes, bool]]] = {}
        for bid in block_ids:
            key = self.block_keys[bid]
            targets = self.ring.replica_set(key, extra=self.config.dfs.replication)
            missing = [t for t in targets
                       if t not in self.holders[bid] and t in self.addresses]
            if not missing:
                continue
            data = self._fetch_from_any(bid, self.holders[bid])
            for target in missing:
                batches.setdefault(target, []).append(
                    (bid, data, target != targets[0])
                )
        for target, entries in batches.items():
            calls = [
                ("restore_block",
                 {"name": bid[0], "index": bid[1], "replica": replica},
                 data, "data")
                for bid, data, replica in entries
            ]
            try:
                self.pool.call_many(self.address_of(target).addr, calls)
            except NetworkError as exc:
                raise WorkerLost(target, f"re-replication failed: {exc}") from exc
            batch_bytes = 0
            for bid, data, _ in entries:
                self.holders[bid].append(target)
                batch_bytes += len(data)
                self.metrics.counter(blocks_name).inc()
            self.metrics.counter(bytes_name).inc(batch_bytes)
            self.metrics.counter(batches_name).inc()
            self.metrics.histogram(hist_name).record(batch_bytes)

    def ensure_replication(self) -> None:
        """Bring *every* block back to its replica target (post-cascade).

        A worker dying while it was a re-replication target leaves other
        blocks under-replicated; scanning all holders after the cluster
        stabilizes closes that hole.  Fully replicated blocks cost one
        membership check each, no bytes.
        """
        self._restore_replication(list(self.holders))

    def _fetch_from_any(self, bid: tuple[str, int], holders: list[str]) -> bytes:
        """Read one block for re-replication: best holders first, with retry.

        Candidates are the live *recorded* holders ordered by current
        scheduler load (least-loaded first -- they also serve map tasks),
        then every other survivor as a long shot against stale holder
        records.  Each sweep gives every candidate one transport attempt;
        sweeps retry under the pool's :class:`RetryPolicy` (backoff,
        ``max_elapsed`` deadline included).  A candidate answering
        ``BlockNotFound`` is skipped, not fatal.
        """
        args = {"name": bid[0], "index": bid[1]}
        one_shot = RetryPolicy(attempts=1, base_delay=self.pool.policy.base_delay)

        def candidates() -> list[str]:
            recorded = [w for w in holders if w in self.addresses]
            recorded.sort(key=self._load_rank)
            return recorded + [w for w in self.alive_ids() if w not in recorded]

        def sweep() -> bytes:
            last: Exception | None = None
            for wid in candidates():
                try:
                    return bytes(self.pool.call(self.address_of(wid).addr,
                                                "fetch_block", args,
                                                policy=one_shot))
                except RpcRemoteError as exc:
                    if exc.etype != "BlockNotFound":
                        raise ClusterError(
                            f"survivor {wid!r} failed serving block {bid}: {exc}"
                        ) from exc
                    last = exc  # stale holder record; try the next one
                except (NetworkError, WorkerLost) as exc:
                    last = exc
            if isinstance(last, NetworkError) and not isinstance(last, RpcRemoteError):
                raise last  # retryable: the outer policy sweeps again
            raise ClusterError(  # BlockNotFound everywhere: retry won't help
                f"could not read block {bid} from any survivor: {last}"
            )

        try:
            return self.pool.policy.call(sweep, retry_on=(NetworkError,))
        except NetworkError as exc:
            raise ClusterError(
                f"could not read block {bid} from any survivor: {exc}"
            ) from exc

    def _load_rank(self, wid: str) -> tuple[int, int]:
        """Sort key: current scheduler load, ties broken by worker order."""
        try:
            load = self.scheduler.load_of(wid)
        except (KeyError, SchedulingError):
            load = 0
        return (load, self.worker_ids.index(wid))

    def _update_live_gauge(self) -> None:
        self.metrics.gauge("cluster.live_workers").set(len(self.addresses))

    # -- data placement ----------------------------------------------------------------

    def upload(
        self,
        name: str,
        data: bytes,
        *,
        owner: str = "user",
        permissions: int = 0o644,
        tags: dict[str, str] | None = None,
    ) -> FileMetadata:
        """Split a file into blocks and spread them over the worker shards.

        Placement (replica sets, holders, descriptors) is computed
        serially so metadata is deterministic; the puts themselves fan
        out concurrently, each shipping its payload out-of-band beside a
        tiny envelope (no pickle copy of the block bytes).
        """
        if name in self.metadata:
            raise ClusterError(f"file {name!r} already exists")
        block_size = self.config.dfs.block_size
        view = memoryview(data)  # block payloads are zero-copy slices
        descriptors: list[BlockDescriptor] = []
        puts: list[tuple[str, dict, Any]] = []  # (wid, args, payload)
        index = 0
        offset = 0
        total = len(data)
        while True:
            this_size = min(block_size, total - offset)
            if this_size <= 0 and index > 0:
                break
            key = self.space.block_key(name, index)
            payload = view[offset : offset + this_size]
            replicas = self.ring.replica_set(key, extra=self.config.dfs.replication)
            for i, wid in enumerate(replicas):
                puts.append((wid, {"name": name, "index": index, "replica": i > 0},
                             payload))
            self.holders[(name, index)] = list(replicas)
            self.block_keys[(name, index)] = key
            descriptors.append(BlockDescriptor(index, key, this_size))
            self.metrics.counter("cluster.blocks_uploaded").inc()
            offset += this_size
            index += 1
            if offset >= total:
                break

        def put(entry: tuple[str, dict, Any]) -> None:
            wid, args, payload = entry
            try:
                self.pool.call(self.address_of(wid).addr, "put_block", args,
                               blob=payload, blob_arg="data")
            except NetworkError as exc:
                raise WorkerLost(wid, f"block upload failed: {exc}") from exc

        fan_out(put, puts)
        meta = FileMetadata(
            name=name, owner=owner, size=total, permissions=permissions,
            created_at=0.0, blocks=descriptors, tags=dict(tags or {}),
        )
        self.metadata[name] = meta
        return meta

    def stat(self, name: str, user: str = "user", *, write: bool = False) -> FileMetadata:
        try:
            meta = self.metadata[name]
        except KeyError:
            from repro.common.errors import FileNotFound

            raise FileNotFound(f"no such file: {name!r}") from None
        meta.check_access(user, write=write)
        return meta

    def block_holders(self, name: str, index: int) -> list[WorkerAddress]:
        """Live holders of one block, primaries first."""
        return [
            self.addresses[wid]
            for wid in self.holders.get((name, index), [])
            if wid in self.addresses
        ]

    # -- completion markers (oCache replay) --------------------------------------

    def record_marker(self, marker: CompletionMarker) -> None:
        """Store (or overwrite) one map task's completion marker.

        Markers are metadata and live here with the file metadata -- the
        spill payloads they name stay sharded on the destination
        workers, exactly like blocks."""
        with self._lock:
            self.markers[(marker.app_id, marker.input_file, marker.block_index)] = marker

    def marker_for(self, app_id: str, input_file: str, block_index: int) -> Optional[CompletionMarker]:
        """The completion marker for one map task, if one was recorded."""
        with self._lock:
            return self.markers.get((app_id, input_file, block_index))

    # -- teardown -----------------------------------------------------------------------

    def shutdown(self) -> list[str]:
        """Tell every live worker to stop; returns the ids that answered.

        A worker replies ``"bye"`` *before* it closes its connections, so
        on the normal path every live worker is in the result.  Only a
        worker that is already gone (killed, or lost between the liveness
        sweep and this call) fails the call; it is reaped regardless.
        """
        policy = RetryPolicy(attempts=1, base_delay=0.01)

        def tell(wid: str) -> Optional[str]:
            try:
                return self.pool.call(self.address_of(wid).addr, "shutdown",
                                      timeout=2.0, policy=policy)
            except NetworkError:
                return None  # already dead

        alive = self.alive_ids()
        replies = fan_out(tell, alive)
        self.pool.close_all()
        self.server.stop()
        return [wid for wid, reply in zip(alive, replies) if reply == "bye"]
