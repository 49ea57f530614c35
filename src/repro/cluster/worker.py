"""One cluster worker: an OS process owning a shard of everything.

A worker holds its slice of the DHT file system (the blocks whose hash
keys fall in its arc, plus neighbor replicas), its iCache/oCache
partitions, and its reduce-side intermediate store.  It serves RPCs:

* ``put_block`` / ``fetch_block`` -- DHT FS shard reads and writes;
* ``run_map`` -- execute a map task: read the block (iCache, local
  shard, or a remote holder over TCP), run the user's map function, and
  push spill buffers to the reduce-side owners *worker-to-worker* over
  the wire (Fig. 2 step 4 -- the coordinator never touches a spill);
* ``push_spill`` -- accept another worker's spill into the local
  intermediate store (and, when the job tags intermediates, into oCache
  plus a *persisted spill object* in the local DHT FS shard -- the
  durable copy behind oCache replay, paper §II-C step 5);
* ``replay_intermediates`` -- repopulate the local intermediate store
  for a ``reuse_intermediates`` job from oCache (hit) or the persisted
  spill object (miss), without any map running anywhere; the handler is
  check-then-apply, so a missing spill delivers *nothing* and the
  coordinator falls back to re-executing that map;
* ``discard_spills`` -- drop specific replayed spills (the fallback path
  un-doing a partially replayed map task before re-mapping it);
* ``run_reduce`` -- reduce everything that landed here, in place;
* ``update_ring`` / ``discard_job`` / ``get_stats`` / ``ping`` /
  ``shutdown`` -- control plane.

The process is started by :class:`repro.cluster.runtime.ClusterRuntime`
via :mod:`multiprocessing` and announces itself to the coordinator with a
``register`` RPC, then heartbeats until told to stop (or until the
coordinator disappears).
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Optional

from repro.cache.worker import WorkerCache
from repro.chaos.plane import FaultInjector
from repro.common.config import ClusterConfig
from repro.common.errors import BlockNotFound, ClusterError, NetworkError
from repro.common.hashing import HashSpace
from repro.common.serialization import config_from_dict
from repro.cluster.heartbeat import HeartbeatSender
from repro.cluster.messages import (
    RingTable,
    decode_job,
    decode_spill,
    encode_spill,
    iter_output_pages,
)
from repro.mapreduce.shuffle import IntermediateStore
from repro.mapreduce.task import reduce_pairs, run_map_task
from repro.net.rpc import AfterReply, Blob, ConnectionPool, RpcClient, RpcServer, Stream
from repro.sim.metrics import MetricsRegistry

__all__ = ["SpillDeliveryLost", "WorkerNode", "worker_main"]


class SpillDeliveryLost(ClusterError):
    """A spill push to a reduce-side peer failed (the peer is likely dead).

    The coordinator reads ``rpc_data['target']`` out of the RPC error to
    learn *which* peer died -- the mapper itself is healthy.
    """

    def __init__(self, target: str, spill_id: str) -> None:
        super().__init__(f"spill {spill_id} undeliverable to {target!r}")
        self.rpc_data = {"target": target, "spill_id": spill_id}


class WorkerNode:
    """A worker's state and RPC handlers (in-process; no sockets of its own).

    Separated from :func:`worker_main` so tests can drive handlers
    directly, and so the server wiring stays trivial.
    """

    def __init__(self, worker_id: str, config: ClusterConfig, space: HashSpace) -> None:
        self.worker_id = worker_id
        self.config = config
        self.space = space
        self.metrics = MetricsRegistry()
        self.blocks: dict[tuple[str, int], bytes] = {}
        self.block_replica: dict[tuple[str, int], bool] = {}
        self.cache = WorkerCache(worker_id, config.cache)
        self.intermediates = IntermediateStore(worker_id)
        # Persisted spill objects: the durable, non-LRU copies behind
        # oCache replay, keyed ``(app_id, spill_id)``.  Insertion order
        # doubles as the FIFO eviction order against the configured
        # ``cache.spill_store_bytes`` budget.
        self.spill_objects: dict[tuple[str, str], bytes] = {}
        self.spill_object_bytes = 0
        self.ring: Optional[RingTable] = None
        self.peers: dict[str, tuple[str, int]] = {}
        self.pool = ConnectionPool(config.net, metrics=self.metrics)
        # This worker's slice of the chaos plane (rules arrive in the
        # config manifest); peer names are bound as ring broadcasts
        # deliver addresses.  Inactive configs leave the hooks unset.
        self.fault = FaultInjector(worker_id, config.chaos, metrics=self.metrics)
        if self.fault.active:
            self.pool.fault_hook = self.fault.on_send
        self._jobs: dict[str, Any] = {}  # app_id -> DecodedJob
        self._lock = threading.RLock()
        # Remote spill pushes to distinct reduce-side targets go out
        # concurrently (the map task only waits for all of them at flush).
        self._spill_pool = ThreadPoolExecutor(
            max_workers=config.net.rpc_concurrency,
            thread_name_prefix=f"spill:{worker_id}",
        )

    # -- DHT FS shard -------------------------------------------------------------

    def put_block(self, name: str, index: int, data, replica: bool = False) -> int:
        # ``data`` arrives as a memoryview over the connection's frame
        # buffer on the zero-copy path; snapshot it into owned bytes.
        if not isinstance(data, bytes):
            data = bytes(data)
        with self._lock:
            self.blocks[(name, index)] = data
            self.block_replica[(name, index)] = replica
        self.metrics.counter("worker.blocks_stored").inc()
        return len(data)

    def restore_block(self, name: str, index: int, data, replica: bool = False) -> int:
        """Accept a re-replicated copy after a failover.

        Same storage semantics as :meth:`put_block`; the distinct method
        lets chaos rules and metrics target repair traffic specifically
        (``worker.blocks_restored``), and keeps ordinary uploads out of
        failover scripts.
        """
        n = self.put_block(name, index, data, replica)
        self.metrics.counter("worker.blocks_restored").inc()
        return n

    def fetch_block(self, name: str, index: int) -> bytes:
        with self._lock:
            try:
                data = self.blocks[(name, index)]
            except KeyError:
                raise BlockNotFound(
                    f"{self.worker_id} does not hold block {index} of {name!r}"
                ) from None
        self.metrics.counter("worker.blocks_served").inc()
        return data

    def _fetch_block_rpc(self, name: str, index: int) -> Blob:
        """RPC wrapper: ship the block out-of-band instead of pickling it."""
        return Blob(self.fetch_block(name, index))

    def drop_block(self, name: str, index: int) -> bool:
        with self._lock:
            self.block_replica.pop((name, index), None)
            return self.blocks.pop((name, index), None) is not None

    # -- control ------------------------------------------------------------------

    def update_ring(self, ring: dict, peers: dict[str, tuple[str, int]]) -> int:
        table = RingTable.from_wire(ring)
        with self._lock:
            if self.ring is not None and table.epoch <= self.ring.epoch:
                return self.ring.epoch  # stale broadcast
            self.ring = table
            self.peers = {wid: tuple(addr) for wid, addr in peers.items()}
        if self.fault.active:
            for wid, addr in peers.items():
                self.fault.bind(wid, addr)
        return table.epoch

    def discard_job(self, app_id: str, job_uid: str | None = None) -> None:
        """Drop a job's in-flight intermediates (failover restart or job end).

        In-flight state is keyed by ``job_uid`` (one submission of the
        app); ``job_uid=None`` drops *every* uid of the app id, which is
        what a fresh attempt's start-of-job broadcast wants.  oCache
        entries survive on purpose -- they are LRU/TTL-governed, exactly
        like the sequential runtime's distributed cache.
        """
        with self._lock:
            if job_uid is not None:
                uids = [job_uid]
            else:
                known = set(self._jobs) | set(self.intermediates.job_ids()) | {app_id}
                uids = [uid for uid in known
                        if uid == app_id or uid.startswith(app_id + "@")]
            for uid in uids:
                self.intermediates.discard_job(uid)
                self._jobs.pop(uid, None)

    def ping(self) -> str:
        return "pong"

    def get_stats(self, full: bool = False) -> dict[str, Any]:
        """Per-worker statistics; the single stats RPC of the control plane.

        The default (flat counters + cache/shard scalars) is what
        ``ClusterRuntime.worker_stats`` has always returned -- reports and
        cross-plane equality tests depend on that exact shape.  The
        observability endpoint passes ``full=True`` to additionally get
        the worker's whole registry export (gauges such as
        ``rpc.in_flight`` and histogram summaries included) under a
        ``registry`` key, over the very same RPC.
        """
        cache = self.cache.stats()
        with self._lock:
            stored = len(self.blocks)
            replicas = sum(1 for r in self.block_replica.values() if r)
        out = {name: c.value for name, c in self.metrics.counters.items()}
        with self._lock:
            spill_objects = len(self.spill_objects)
            spill_object_bytes = self.spill_object_bytes
            spills_held = sum(self.intermediates.spill_count(uid)
                              for uid in self.intermediates.job_ids())
        out.update(
            worker_id=self.worker_id,
            blocks_stored=stored,
            replica_blocks=replicas,
            icache_hits=cache.icache_hits,
            icache_misses=cache.icache_misses,
            ocache_hits=cache.ocache_hits,
            ocache_misses=cache.ocache_misses,
            icache_evictions=cache.icache_evictions,
            ocache_evictions=cache.ocache_evictions,
            icache_expirations=cache.icache_expirations,
            ocache_expirations=cache.ocache_expirations,
            bytes_received=self.intermediates.bytes_received,
            spills_held=spills_held,
            spill_objects=spill_objects,
            spill_object_bytes=spill_object_bytes,
        )
        if full:
            out["registry"] = self.metrics.export()
        return out

    # -- map path -----------------------------------------------------------------

    def _job(self, job_wire: dict) -> Any:
        uid = job_wire.get("job_uid", job_wire["app_id"])
        with self._lock:
            job = self._jobs.get(uid)
            if job is None:
                job = decode_job(job_wire)
                self._jobs[uid] = job
        return job

    def run_map(
        self,
        job: dict,
        name: str,
        index: int,
        holders: list[tuple[str, str, int]],
        attempt: int = 0,
    ) -> dict[str, Any]:
        decoded = self._job(job)
        with self._lock:
            ring = self.ring
            peers = dict(self.peers)
        if ring is None:
            raise ClusterError(f"{self.worker_id} has no ring table yet")
        data, source = self._read_block(name, index, holders)
        # Spills to *remote* reduce-side targets are dispatched
        # concurrently -- the map keeps producing while earlier spills are
        # still in flight (the paper's proactive shuffle, §II-D); the
        # task only joins them all after the final flush.
        pushes: list[Future] = []

        def dispatch(dest, sid, pairs, nbytes):
            # ``pairs`` are already combined in the node and non-empty: a
            # spill the combiner empties out is never shipped, cached, or
            # persisted.
            if dest == self.worker_id:
                self.receive_spill(decoded.app_id, sid, pairs, nbytes,
                                   cache=decoded.cache_intermediates,
                                   ttl=decoded.intermediate_ttl,
                                   job_uid=decoded.job_uid,
                                   attempt=attempt)
                self.metrics.counter("worker.local_spills").inc()
            else:
                pushes.append(self._spill_pool.submit(
                    self._push_spill_remote, decoded, peers, dest, sid, pairs,
                    nbytes, attempt
                ))

        spill = run_map_task(decoded, decoded.map_fn(data), space=self.space,
                             route=ring.owner_of, deliver=dispatch, index=index)
        if spill.spills_skipped:
            self.metrics.counter("worker.spills_skipped_empty").inc(spill.spills_skipped)
        first_error: Exception | None = None
        for push in pushes:
            try:
                push.result()
            except Exception as exc:  # drain every push before failing
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        self.metrics.counter("worker.maps_run").inc()
        self.metrics.counter("worker.spills_out").inc(spill.spills)
        self.metrics.counter("worker.spill_recombines").inc(spill.recombines)
        self.metrics.counter("worker.bytes_shuffled_out").inc(spill.bytes_pushed)
        return {
            "worker_id": self.worker_id,
            "source": source,
            "spills": spill.spills,
            "recombines": spill.recombines,
            "bytes_shuffled": spill.bytes_pushed,
            # The spill manifest: which spills this map delivered where,
            # at what size.  Always returned -- the coordinator needs the
            # destination set to decide whether this map survives a
            # failover (spills all on survivors = salvaged) -- and also
            # recorded as a completion marker when the job caches
            # intermediates for replay.
            "manifest": spill.manifest(),
        }

    def _read_block(
        self, name: str, index: int, holders: list[tuple[str, str, int]]
    ) -> tuple[bytes, str]:
        bid = (name, index)
        hit, data = self.cache.get_input(bid)
        if hit:
            return data, "icache"
        with self._lock:
            data = self.blocks.get(bid)
        if data is not None:
            self.cache.put_input(bid, data, size=len(data),
                                 hash_key=self.space.block_key(name, index))
            return data, "local"
        last: Exception | None = None
        for wid, host, port in holders:
            if wid == self.worker_id:
                continue
            try:
                data = self.pool.call((host, port), "fetch_block",
                                      {"name": name, "index": index})
            except NetworkError as exc:
                last = exc
                continue
            data = bytes(data)  # snapshot the out-of-band frame view
            self.metrics.counter("worker.remote_block_reads").inc()
            self.cache.put_input(bid, data, size=len(data),
                                 hash_key=self.space.block_key(name, index))
            return data, "remote"
        raise BlockNotFound(
            f"no reachable holder for block {index} of {name!r}: {last}"
        )

    def _push_spill_remote(
        self,
        job: Any,
        peers: dict[str, tuple[str, int]],
        dest: str,
        spill_id: str,
        pairs: list[tuple[Any, Any]],
        nbytes: int,
        attempt: int = 0,
    ) -> None:
        """Ship one (already combined, non-empty) spill to its reduce-side
        owner over the wire."""
        try:
            addr = peers[dest]
        except KeyError:
            raise SpillDeliveryLost(dest, spill_id) from None
        try:
            # The pairs ride out-of-band: a small envelope plus one raw
            # frame, never pickled into (or copied through) the envelope.
            self.pool.call(
                addr,
                "push_spill",
                {
                    "app_id": job.app_id,
                    "job_uid": job.job_uid,
                    "spill_id": spill_id,
                    "nbytes": nbytes,
                    "cache": job.cache_intermediates,
                    "ttl": job.intermediate_ttl,
                    "attempt": attempt,
                },
                blob=encode_spill(pairs),
                blob_arg="payload",
            )
        except NetworkError as exc:
            raise SpillDeliveryLost(dest, spill_id) from exc

    # -- reduce path --------------------------------------------------------------

    def push_spill(self, app_id: str, spill_id: str, pairs: list | None = None,
                   nbytes: int = 0, cache: bool = False, ttl: float | None = None,
                   payload=None, job_uid: str | None = None,
                   attempt: int = 0) -> int:
        if pairs is None:
            if cache:
                payload = bytes(payload)  # snapshot the frame view: we keep it
            pairs = decode_spill(payload)
        return self.receive_spill(app_id, spill_id, pairs, nbytes, cache, ttl,
                                  payload=payload if cache else None,
                                  job_uid=job_uid, attempt=attempt)

    def receive_spill(self, app_id: str, spill_id: str, pairs: list,
                      nbytes: int, cache: bool = False, ttl: float | None = None,
                      payload: bytes | None = None,
                      job_uid: str | None = None, attempt: int = 0) -> int:
        # In-flight reduce inputs are keyed by submission uid; the durable
        # replay copies (oCache entry + persisted spill object) stay keyed
        # by app_id so a later run of the same app can replay them.
        with self._lock:
            accepted = self.intermediates.receive(
                job_uid or app_id, spill_id, pairs, nbytes, attempt=attempt
            )
        if not accepted:
            # A stale delivery: the push of a map execution the scheduler
            # already replaced arrived after its replacement.  Nothing is
            # stored, cached, or persisted -- the durable replay copies
            # must not regress to the superseded content either.
            self.metrics.counter("worker.stale_spills_rejected").inc()
            return 0
        if cache:
            if payload is None:
                payload = pickle.dumps(pairs, protocol=pickle.HIGHEST_PROTOCOL)
            self.cache.put_output(app_id, spill_id, pairs, size=len(payload), ttl=ttl)
            self._persist_spill_object(app_id, spill_id, payload)
        self.metrics.counter("worker.spills_in").inc()
        return len(pairs)

    # -- oCache replay ------------------------------------------------------------

    def _persist_spill_object(self, app_id: str, spill_id: str, payload: bytes) -> None:
        """Keep a spill's serialized payload in the local DHT FS shard.

        Unlike the oCache entry (LRU/TTL-governed), the spill object is
        the durable replay source; it only leaves under the FIFO
        ``cache.spill_store_bytes`` budget.  Re-delivery of the same
        spill id (a retried map) overwrites in place.
        """
        budget = self.config.cache.spill_store_bytes
        if budget <= 0 or len(payload) > budget:
            self.metrics.counter("worker.spill_objects_rejected").inc()
            return
        key = (app_id, spill_id)
        with self._lock:
            old = self.spill_objects.pop(key, None)
            if old is not None:
                self.spill_object_bytes -= len(old)
            while self.spill_object_bytes + len(payload) > budget and self.spill_objects:
                victim, evicted = next(iter(self.spill_objects.items()))
                del self.spill_objects[victim]
                self.spill_object_bytes -= len(evicted)
                self.metrics.counter("worker.spill_objects_evicted").inc()
            self.spill_objects[key] = payload
            self.spill_object_bytes += len(payload)
        self.metrics.counter("worker.spill_objects_stored").inc()

    def import_spill_object(self, app_id: str, spill_id: str, payload) -> int:
        """Accept another worker's persisted spill object (drain handoff).

        The payload lands in the local persisted store only -- the oCache
        refills lazily from it on the first replay read, like any other
        store hit.
        """
        payload = bytes(payload)  # snapshot the out-of-band frame view
        self._persist_spill_object(app_id, spill_id, payload)
        self.metrics.counter("worker.spill_objects_imported").inc()
        return len(payload)

    def handoff_spills(self, host: str, port: int) -> dict[str, Any]:
        """Push every persisted spill object to a successor (drain path).

        Worker-to-worker: the draining node batches its whole persisted
        store to ``(host, port)`` as one pipelined ``call_many`` of
        ``import_spill_object`` calls with out-of-band payloads, keeping
        the coordinator off the data path.  Returns the handoff tally.
        """
        with self._lock:
            objects = list(self.spill_objects.items())
        if not objects:
            return {"objects": 0, "bytes": 0}
        calls = [
            ("import_spill_object",
             {"app_id": app_id, "spill_id": spill_id},
             payload, "payload")
            for (app_id, spill_id), payload in objects
        ]
        self.pool.call_many((host, int(port)), calls)
        total = sum(len(payload) for _, payload in objects)
        self.metrics.counter("worker.spill_objects_handed_off").inc(len(objects))
        self.metrics.counter("worker.spill_bytes_handed_off").inc(total)
        return {"objects": len(objects), "bytes": total}

    def replay_intermediates(self, app_id: str, spills: list[tuple[str, int]],
                             ttl: float | None = None,
                             job_uid: str | None = None,
                             attempt: int = 0) -> dict[str, Any]:
        """Repopulate the local intermediate store from cached/persisted spills.

        ``spills`` is this worker's slice of a completion marker:
        ``[(spill_id, nbytes), ...]`` with the *original* push sizes.
        Check-then-apply: if any spill is neither in oCache nor in the
        persisted store, nothing is delivered and ``{"ok": False}`` comes
        back -- the coordinator then re-executes the map instead.
        """
        staged: list[tuple[str, list, int, bytes | None]] = []
        ocache_hits = 0
        ocache_misses = 0
        for spill_id, nbytes in spills:
            hit, pairs = self.cache.get_output(app_id, spill_id)
            if hit:
                ocache_hits += 1
                staged.append((spill_id, pairs, nbytes, None))
                continue
            ocache_misses += 1
            with self._lock:
                payload = self.spill_objects.get((app_id, spill_id))
            if payload is None:
                self.metrics.counter("worker.replay_misses").inc()
                return {"ok": False, "missing": spill_id,
                        "worker_id": self.worker_id}
            staged.append((spill_id, pickle.loads(payload), nbytes, payload))
        replayed_bytes = 0
        for spill_id, pairs, nbytes, payload in staged:
            with self._lock:
                self.intermediates.receive(job_uid or app_id, spill_id, pairs,
                                           nbytes, attempt=attempt)
            if payload is not None:  # refill the oCache on a store read
                self.cache.put_output(app_id, spill_id, pairs,
                                      size=len(payload), ttl=ttl)
            replayed_bytes += nbytes
        self.metrics.counter("worker.spills_replayed").inc(len(staged))
        return {"ok": True, "worker_id": self.worker_id,
                "spills": len(staged), "bytes": replayed_bytes,
                "ocache_hits": ocache_hits, "ocache_misses": ocache_misses}

    def discard_spills(self, app_id: str, spill_ids: list[str],
                       job_uid: str | None = None,
                       attempt: int | None = None) -> int:
        """Drop specific in-flight spills (fallback after a partial replay,
        or a speculative loser's retraction when ``attempt`` is given)."""
        with self._lock:
            return self.intermediates.discard_spills(job_uid or app_id,
                                                     spill_ids, attempt=attempt)

    def run_reduce(self, job: dict) -> Any:
        decoded = self._job(job)
        with self._lock:
            # Deterministic consumption order: spill ids, not arrival order
            # (concurrent mappers race their pushes).
            spills = sorted(self.intermediates.spills_for(decoded.job_uid).items())
        pairs = [pair for _, spill in spills for pair in spill]
        if not pairs:
            return {"worker_id": self.worker_id, "pairs": 0, "output": {}}
        output = reduce_pairs(decoded.reduce_fn, pairs)
        self.metrics.counter("worker.reduces_run").inc()
        # An output over the page threshold streams out as paged frames
        # (reassembled by the coordinator) instead of one giant envelope;
        # small outputs keep the inline shape.  Pages must also fit well
        # inside a frame beside their chunk envelopes.
        page_bytes = min(self.config.net.stream_page_bytes,
                         max(64, self.config.net.max_frame_bytes // 2))
        pager = iter_output_pages(output, page_bytes)
        first = next(pager, None)
        second = next(pager, None)
        if second is None and (first is None or len(first) <= page_bytes):
            return {"worker_id": self.worker_id, "pairs": len(pairs),
                    "output": output}
        self.metrics.counter("worker.reduces_streamed").inc()

        def pages():
            yield first
            if second is not None:
                yield second
            yield from pager

        return Stream(pages(), value={"worker_id": self.worker_id,
                                      "pairs": len(pairs)})

    # -- wiring -------------------------------------------------------------------

    def handlers(self, extra: dict[str, Any] | None = None) -> dict[str, Any]:
        out = {
            "ping": self.ping,
            "put_block": self.put_block,
            "restore_block": self.restore_block,
            "fetch_block": self._fetch_block_rpc,
            "drop_block": self.drop_block,
            "update_ring": self.update_ring,
            "discard_job": self.discard_job,
            "run_map": self.run_map,
            "push_spill": self.push_spill,
            "replay_intermediates": self.replay_intermediates,
            "import_spill_object": self.import_spill_object,
            "handoff_spills": self.handoff_spills,
            "discard_spills": self.discard_spills,
            "run_reduce": self.run_reduce,
            "get_stats": self.get_stats,
        }
        out.update(extra or {})
        return out

    def close(self) -> None:
        self._spill_pool.shutdown(wait=False)
        self.pool.close_all()


def worker_main(
    worker_id: str,
    coordinator_host: str,
    coordinator_port: int,
    manifest: dict,
    space_size: int,
    extra_sys_path: tuple[str, ...] = (),
) -> None:
    """Entry point of a worker process (the ``multiprocessing`` target).

    ``extra_sys_path`` carries the parent's source root explicitly (the
    import-path contract travels in the worker args, not via a mutated
    parent environment).

    A worker that was told to stop (the ``shutdown`` RPC, or the
    coordinator went away) does not return: once heartbeats, the RPC
    server and the node are closed it flushes stdout/stderr and leaves
    with ``os._exit(0)``, the way :mod:`multiprocessing` ends a forked
    child.  Nothing of this process outlives it, so tearing the
    interpreter down module by module only keeps the parent's ``join``
    waiting.  An exception propagates instead: ``multiprocessing`` prints
    the traceback and the process exits non-zero.
    """
    for entry in extra_sys_path:
        if entry not in sys.path:
            sys.path.insert(0, entry)
    config = config_from_dict(manifest)
    node = WorkerNode(worker_id, config, HashSpace(space_size))
    stop = threading.Event()

    server = RpcServer(
        # ``stop`` is set only after "bye" is on the wire: the main
        # thread closes every connection as soon as it wakes.
        node.handlers({"shutdown": lambda: AfterReply("bye", stop.set)}),
        net=config.net,
        metrics=node.metrics,
    )
    fault_hook = None
    if node.fault.active:
        node.fault.bind("coordinator", (coordinator_host, coordinator_port))
        server.fault_hook = node.fault.on_serve
        fault_hook = node.fault.on_send
    server.start()
    heartbeats = HeartbeatSender(
        worker_id,
        (coordinator_host, coordinator_port),
        config.net,
        on_coordinator_lost=stop.set,
        fault_hook=fault_hook,
    )
    try:
        client = RpcClient(coordinator_host, coordinator_port, net=config.net)
        client.fault_hook = fault_hook
        client.call(
            "register",
            {"worker_id": worker_id, "host": server.host, "port": server.port},
        )
        client.close()
        heartbeats.start()
        stop.wait()
    finally:
        heartbeats.stop()
        server.stop()
        node.close()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass  # detached or already closed
    os._exit(0)
