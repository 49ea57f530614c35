"""The traced pass: time the calls into each layer from outside.

:func:`replay` walks one job of the workload through the public
functions of every layer under ``src/repro/`` -- on the workload's real
blocks, pairs and spills -- with one span per block, spill or job (a
per-pair function is timed as one span around the loop over a block's
materialised pairs, never per call).  Counts are taken where the work
happens and repeat exactly for a fixed seed.

:func:`traced_job` runs one extra job on the sequential plane with
coarse wrappers installed on its per-block, per-spill and per-job public
calls, so parent/child self times are real and the cost of tracing is
itself measured.
"""

from __future__ import annotations

import pickle
import statistics
import time
from collections import defaultdict
from typing import Any

import repro.mapreduce.runtime as runtime_module
from repro.cache.worker import WorkerCache
from repro.cluster.messages import (
    decode_output_pages,
    decode_spill,
    encode_job,
    encode_spill,
    iter_output_pages,
)
from repro.cluster.worker import WorkerNode
from repro.common.hashing import DEFAULT_SPACE
from repro.dfs.blocks import BlockId
from repro.dfs.filesystem import DHTFileSystem
from repro.mapreduce.shuffle import IntermediateStore, SpillBuffer, combine_pairs
from repro.net.rpc import RpcClient, RpcServer, Stream
from repro.scheduler.laf import LAFScheduler

from perf.planes import LocalPlane, timed_calibrated
from perf.trace import Tracer
from perf.workloads import Workload

__all__ = ["ATTRIBUTED", "replay", "worker_node_probe", "net_probe", "traced_job"]

ATTRIBUTED = (
    "scheduler.assign", "cache.get_input", "dfs.read_block", "cache.put_input",
    "apps.map", "shuffle.emit", "shuffle.combine", "shuffle.receive", "apps.reduce",
)
"""The replayed spans that together are what the sequential plane does
for one job (``hashing.key_of``, ``dht.owner_of`` and
``shuffle.pair_size`` are parts of ``shuffle.emit``; the spill and page
codecs only run on the cluster plane)."""


def replay(workload: Workload, tracer: Tracer, workers: int) -> dict[str, Any]:
    """One pass of job 0 through every layer; returns the exact counts,
    the job's output and the mean encoded spill size."""
    config = workload.config()
    space = DEFAULT_SPACE
    worker_ids = [f"worker-{i}" for i in range(workers)]
    state = workload.initial_state()
    job = workload.job(0, state, "replay")
    name = job.input_file
    span = tracer.span

    dfs = DHTFileSystem(worker_ids, config.dfs, space)
    with span("dfs.upload"):
        dfs.upload(name, workload.inputs[name])
    meta = dfs.stat(name)
    scheduler = LAFScheduler(space, worker_ids, config.scheduler, ring=dfs.ring)
    cache = WorkerCache("probe", config.cache)
    stores = {wid: IntermediateStore(wid) for wid in worker_ids}
    owner_of = dfs.ring.owner_of
    counts: dict[str, Any] = defaultdict(int)
    distinct: set = set()
    spill_sizes: list[int] = []

    with span("scheduler.assign"):
        for desc in meta.blocks:
            scheduler.assign(hash_key=desc.key)
    counts["scheduler.assign_calls"] = counts["dfs.blocks"] = len(meta.blocks)

    for desc in meta.blocks:
        bid = BlockId(name, desc.index)
        with span("cache.get_input"):
            cache.get_input(bid)  # the cold miss...
        with span("dfs.read_block"):
            block = dfs.read_block(name, desc.index)
        with span("cache.put_input"):
            cache.put_input(bid, block.data, size=block.size, hash_key=desc.key)
        with span("cache.get_input"):
            cache.get_input(bid)  # ...and the warm hit
        with span("apps.map"):
            pairs = list(job.map_fn(block.data))
        with span("hashing.key_of"):
            hash_keys = [space.key_of(repr(key)) for key, _ in pairs]
        with span("dht.owner_of"):
            for hash_key in hash_keys:
                owner_of(hash_key)
        with span("shuffle.pair_size"):
            for key, value in pairs:
                SpillBuffer.pair_size(key, value)
        counts["apps.map_pairs"] += len(pairs)
        distinct.update(key for key, _ in pairs)

        spills: list[tuple] = []
        buffer = SpillBuffer(
            space=space, route=owner_of,
            deliver=lambda dest, sid, out, nbytes: spills.append((dest, sid, out, nbytes)),
            threshold_bytes=job.spill_buffer_bytes,
            task_id=f"{job.app_id}/map{desc.index}",
            combiner=job.combiner if job.cross_spill_combine else None,
        )
        with span("shuffle.emit"):
            for key, value in pairs:
                buffer.emit(key, value)
            buffer.flush()

        for dest, spill_id, spilled, nbytes in spills:
            with span("shuffle.combine"):
                combined = combine_pairs(job.combiner, spilled)
            counts["combine_in"] += len(spilled)
            counts["combine_out"] += len(combined)
            if job.combiner is not None:
                grouped = defaultdict(list)
                for key, value in spilled:
                    grouped[key].append(value)
                with span("apps.combiner"):
                    for key, values in grouped.items():
                        job.combiner(key, values)
            if not combined:
                continue
            with span("cluster.encode_spill"):
                payload = encode_spill(combined)
            with span("cluster.decode_spill"):
                decode_spill(payload)
            spill_sizes.append(len(payload))
            with span("shuffle.receive"):
                stores[dest].receive(job.app_id, spill_id, combined, nbytes)
            counts["shuffle.spills"] += 1
            counts["shuffle.bytes_shuffled"] += nbytes

    page_bytes = min(config.net.stream_page_bytes, max(64, config.net.max_frame_bytes // 2))
    output: dict[Any, Any] = {}
    for wid in worker_ids:
        with span("shuffle.receive"):
            landed = stores[wid].pairs_for(job.app_id)
        grouped = defaultdict(list)
        for key, value in landed:
            grouped[key].append(value)
        with span("apps.reduce"):
            part = {key: job.reduce_fn(key, values) for key, values in grouped.items()}
        with span("cluster.output_pages"):
            pages = list(iter_output_pages(part, page_bytes))
            decode_output_pages(pages)
        counts["cluster.output_bytes"] += sum(len(page) for page in pages)
        output.update(part)

    counts["hashing.key_of_calls"] = counts["dht.owner_of_calls"] = counts["apps.map_pairs"]
    counts["hashing.distinct_keys"] = len(distinct)
    counts["apps.reduce_keys"] = len(output)
    return {
        "counts": dict(counts),
        "output": output,
        "mean_spill_bytes": int(statistics.mean(spill_sizes)) if spill_sizes else 0,
    }


def worker_node_probe(workload: Workload, tracer: Tracer) -> dict[str, Any]:
    """Job 0 on an in-process ``WorkerNode`` that owns the whole ring:
    the worker's map and reduce handlers without sockets or processes."""
    config = workload.config()
    job = workload.job(0, workload.initial_state(), "node")
    name = job.input_file
    data = workload.inputs[name]
    node = WorkerNode("worker-0", config, DEFAULT_SPACE)
    try:
        node.update_ring({"entries": [(DEFAULT_SPACE.key_of("worker-0"), "worker-0")],
                          "epoch": 1}, {})
        blocks = [data[off : off + workload.block_size]
                  for off in range(0, len(data), workload.block_size)]
        for index, block in enumerate(blocks):
            node.put_block(name, index, block)
        with tracer.span("cluster.encode_job"):
            wire = encode_job(job, f"{job.app_id}@probe")
        for index in range(len(blocks)):
            with tracer.span("cluster.worker_run_map"):
                node.run_map(wire, name, index, holders=[])
        with tracer.span("cluster.worker_run_reduce"):
            reduced = node.run_reduce(wire)
            if isinstance(reduced, Stream):
                output = decode_output_pages(reduced.pages)
            else:
                output = reduced["output"]
    finally:
        node.close()
    return {"output": output, "job_wire_bytes": len(pickle.dumps(wire))}


def net_probe(blob_bytes: int, calls: int) -> dict[str, float]:
    """Loopback ``RpcServer``/``RpcClient``: one round trip, a pipelined
    burst, and an out-of-band blob of the workload's mean spill size."""
    server = RpcServer({"ping": lambda: "pong", "sink": lambda data: len(data)}).start()
    client = RpcClient(server.host, server.port)
    payload = bytes(max(1, blob_bytes))
    try:
        client.call("ping")  # connection and thread pools are up

        def round_trips() -> list[float]:
            samples = []
            for _ in range(calls):
                start = time.perf_counter()
                client.call("ping")
                samples.append(time.perf_counter() - start)
            return samples

        samples, _, scale = timed_calibrated(round_trips)
        _, burst_raw, burst_scale = timed_calibrated(
            lambda: [f.result() for f in [client.call_async("ping") for _ in range(calls)]])
        blobs = max(1, calls // 10)
        _, blob_raw, blob_scale = timed_calibrated(
            lambda: [client.call("sink", blob=payload, blob_arg="data") for _ in range(blobs)])
    finally:
        client.close()
        server.stop()
    return {
        "net.rpc_call_us_p50": statistics.median(samples) * scale * 1e6,
        "net.rpc_pipelined_calls_per_s": calls / (burst_raw * burst_scale),
        "net.blob_mb_per_s": blobs * len(payload) / 1e6 / (blob_raw * blob_scale),
    }


def traced_job(workload: Workload, plane: LocalPlane, tracer: Tracer):
    """One more job on the (warm) sequential plane with span wrappers on
    its per-block, per-spill and per-job public calls.

    Returns ``(JobResult, raw seconds, scale)``.  The root span's self
    time is what no wrapper covers: the emit path and the reduce loop.
    """
    runtime = plane.runtime
    job = workload.job(0, workload.initial_state(), "traced")
    map_fn = job.map_fn

    def traced_map(block: bytes):
        # Materialised inside the span: a generator's lifetime would
        # also cover the emits interleaved with it.
        with tracer.span("apps.map"):
            return list(map_fn(block))

    job.map_fn = traced_map
    undo = [
        tracer.wrap(runtime.dfs, "stat", "dfs.stat"),
        tracer.wrap(runtime.dfs, "read_block", "dfs.read_block"),
        tracer.wrap(runtime.scheduler, "assign", "scheduler.assign"),
        tracer.wrap(runtime_module, "combine_pairs", "shuffle.combine"),
    ]
    for wid in runtime.worker_ids:
        cache = runtime.dcache.worker(wid)
        store = runtime.workers[wid].intermediates
        undo += [
            tracer.wrap(cache, "get_input", "cache.get_input"),
            tracer.wrap(cache, "put_input", "cache.put_input"),
            tracer.wrap(store, "receive", "shuffle.receive"),
            tracer.wrap(store, "pairs_for", "shuffle.receive"),
            tracer.wrap(store, "discard_job", "shuffle.discard_job"),
        ]

    def run():
        with tracer.job(job.app_id), tracer.span("runtime.run"):
            return runtime.run(job)

    try:
        return timed_calibrated(run)
    finally:
        for restore in undo:
            restore()
