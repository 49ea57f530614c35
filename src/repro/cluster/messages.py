"""Wire-level value types shared by the coordinator and workers.

Workers never see the coordinator's full :class:`ConsistentHashRing`
object -- they receive a :class:`RingTable`, the flat ``(position,
worker)`` list every EclipseMR server derives from its one-hop finger
table, and route spill pushes with it locally.  Jobs travel as plain
dicts whose functions are pre-serialized by :mod:`repro.cluster.fnpickle`
so the RPC envelope itself never pickles a closure.
"""

from __future__ import annotations

import bisect
import pickle
from dataclasses import dataclass
from typing import Any, Optional

from repro.common.errors import ClusterError
from repro.mapreduce.job import MapReduceJob
from repro.cluster.fnpickle import dumps_fn, loads_fn

__all__ = [
    "WorkerAddress",
    "RingTable",
    "CompletionMarker",
    "heartbeat_args",
    "encode_job",
    "DecodedJob",
    "decode_job",
    "encode_spill",
    "decode_spill",
    "iter_output_pages",
    "decode_output_pages",
    "reassemble_reduce",
]


@dataclass(frozen=True)
class WorkerAddress:
    """Where a worker's RPC server listens."""

    worker_id: str
    host: str
    port: int

    @property
    def addr(self) -> tuple[str, int]:
        return (self.host, self.port)


class RingTable:
    """An immutable snapshot of the DHT ring: sorted positions -> owners.

    Implements the same ownership rule as
    :meth:`repro.dht.ring.ConsistentHashRing.owner_of` (the node at the
    first position strictly greater than the key owns it, wrapping past
    the top), so the coordinator and every worker route a hash key to the
    same server without talking to each other.
    """

    def __init__(self, entries: list[tuple[int, str]], epoch: int = 0) -> None:
        if not entries:
            raise ClusterError("ring table needs at least one worker")
        ordered = sorted(entries)
        self.positions = [pos for pos, _ in ordered]
        self.owners = [wid for _, wid in ordered]
        if len(set(self.positions)) != len(self.positions):
            raise ClusterError("ring table has duplicate positions")
        self.epoch = epoch

    @classmethod
    def from_ring(cls, ring, epoch: int = 0) -> "RingTable":
        return cls([(ring.position_of(node), node) for node in ring.nodes], epoch)

    def owner_of(self, key: int) -> str:
        idx = bisect.bisect_right(self.positions, key)
        if idx == len(self.positions):
            idx = 0
        return self.owners[idx]

    def to_wire(self) -> dict[str, Any]:
        return {"entries": list(zip(self.positions, self.owners)), "epoch": self.epoch}

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "RingTable":
        return cls([tuple(e) for e in wire["entries"]], wire["epoch"])

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class CompletionMarker:
    """One finished map task's spill manifest (the oCache replay unit).

    The cluster-plane analog of the sequential runtime's
    ``_imr-done/{app_id}/{input_file}#map{index}`` DFS object: it names
    every spill the map delivered as ``(dest_worker, spill_id, nbytes)``
    so a later ``reuse_intermediates`` job can repopulate the reduce-side
    stores -- with the *original* byte accounting -- without re-mapping.
    Markers are control-plane metadata and live on the coordinator, next
    to the file metadata; the spill payloads themselves stay sharded on
    the destination workers (oCache + persisted spill objects).
    """

    app_id: str
    input_file: str
    block_index: int
    entries: tuple[tuple[str, str, int], ...]  # (dest, spill_id, nbytes)

    @property
    def spill_count(self) -> int:
        return len(self.entries)

    def by_dest(self) -> dict[str, list[tuple[str, int]]]:
        """Entries grouped per destination worker, manifest order kept:
        ``{dest: [(spill_id, nbytes), ...]}`` -- one replay RPC per dest."""
        out: dict[str, list[tuple[str, int]]] = {}
        for dest, spill_id, nbytes in self.entries:
            out.setdefault(dest, []).append((spill_id, nbytes))
        return out

    def spill_ids(self) -> list[str]:
        return [spill_id for _, spill_id, _ in self.entries]

    def dests(self) -> frozenset:
        """The destination workers holding this map's spills -- the
        salvage criterion: a completed map survives a failover iff every
        one of these is still alive."""
        return frozenset(dest for dest, _, _ in self.entries)

    def to_wire(self) -> dict[str, Any]:
        return {
            "app_id": self.app_id,
            "input_file": self.input_file,
            "block_index": self.block_index,
            "entries": [list(e) for e in self.entries],
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "CompletionMarker":
        return cls(
            app_id=wire["app_id"],
            input_file=wire["input_file"],
            block_index=wire["block_index"],
            entries=tuple((str(d), str(s), int(n)) for d, s, n in wire["entries"]),
        )


def heartbeat_args(
    worker_id: str, seq: int, rtt_s: Optional[float] = None
) -> dict[str, Any]:
    """The wire shape of one heartbeat RPC's args.

    ``rtt_s`` is the round-trip latency the *previous* beat measured on
    the worker side -- the coordinator learns each worker's control-plane
    latency one beat late, which is fine for health scoring.  ``None``
    (first beat, or a beat after a reconnect) means "no sample"; the key
    is omitted so old coordinators keep accepting the call.
    """
    args: dict[str, Any] = {"worker_id": worker_id, "seq": seq}
    if rtt_s is not None:
        args["rtt_s"] = float(rtt_s)
    return args


def encode_job(job: MapReduceJob, job_uid: str | None = None) -> dict[str, Any]:
    """A job as wire-safe plain data (functions pre-serialized).

    ``job_uid`` names one *submission* of the app: two concurrent jobs
    sharing an ``app_id`` (or a replayed job racing a fresh one) keep
    their in-flight worker state -- intermediate stores, decoded-job
    caches, reduce inputs -- apart under distinct uids, while durable
    state (oCache entries, persisted spill objects, completion markers)
    stays keyed by ``app_id`` so replays keep working across runs.
    """
    return {
        "app_id": job.app_id,
        "job_uid": job_uid or job.app_id,
        "input_file": job.input_file,
        "user": job.user,
        "map_fn": dumps_fn(job.map_fn),
        "reduce_fn": dumps_fn(job.reduce_fn),
        "combiner": dumps_fn(job.combiner) if job.combiner is not None else None,
        "spill_buffer_bytes": job.spill_buffer_bytes,
        "cross_spill_combine": job.cross_spill_combine,
        "cache_intermediates": job.cache_intermediates,
        "intermediate_ttl": job.intermediate_ttl,
    }


@dataclass
class DecodedJob:
    """A worker-side job: same fields, functions rebuilt and callable."""

    app_id: str
    job_uid: str
    input_file: str
    user: str
    map_fn: Any
    reduce_fn: Any
    combiner: Optional[Any]
    spill_buffer_bytes: int
    cross_spill_combine: bool
    cache_intermediates: bool
    intermediate_ttl: Optional[float]


def encode_spill(pairs: list[tuple[Any, Any]]) -> bytes:
    """Serialize a spill's pairs for the out-of-band payload frame.

    The payload rides *beside* the RPC envelope (a raw frame the receiver
    gets as a memoryview), so the envelope stays a few hundred bytes no
    matter how large the spill is -- the proactive-shuffle bulk path.
    """
    return pickle.dumps(pairs, protocol=pickle.HIGHEST_PROTOCOL)


def decode_spill(payload) -> list[tuple[Any, Any]]:
    """Rebuild a spill's pairs from an out-of-band payload (bytes-like)."""
    return pickle.loads(payload)


def iter_output_pages(output: dict[Any, Any], page_bytes: int):
    """Page a reduce output dict into pickled slices of bounded size.

    Lazily yields ``bytes`` pages, each the pickle of a list of ``(key,
    value)`` pairs whose individual pickled sizes sum to at most
    ``page_bytes`` -- except that a single pair bigger than a page gets a
    page of its own (a key's value cannot be split).  Pages preserve dict
    order, so ``decode_output_pages`` rebuilds an *equal* dict (same
    items, same insertion order).  An empty output yields no pages.

    These are the payloads of the transport's ``stream chunk`` frames
    (``stream begin``/``chunk``/``end``, :mod:`repro.net.rpc`): a reduce
    output larger than ``net.max_frame_bytes`` flows as many small frames
    and is never materialized as one envelope on either side.
    """
    if page_bytes < 1:
        raise ClusterError(f"page size must be >= 1, got {page_bytes}")
    chunk: list[tuple[Any, Any]] = []
    size = 0
    for item in output.items():
        nbytes = len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
        if chunk and size + nbytes > page_bytes:
            yield pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)
            chunk = []
            size = 0
        chunk.append(item)
        size += nbytes
    if chunk:
        yield pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL)


def decode_output_pages(pages) -> dict[Any, Any]:
    """Reassemble :func:`iter_output_pages` pages into the output dict."""
    output: dict[Any, Any] = {}
    for page in pages:
        for key, value in pickle.loads(page):
            output[key] = value
    return output


def reassemble_reduce(result) -> dict[str, Any]:
    """Collapse a ``run_reduce`` response into its plain result dict.

    Small outputs come back inline (already the result dict); outputs
    over the page threshold arrive as a
    :class:`~repro.net.rpc.StreamResult` whose header carries the
    metadata and whose pages carry the output -- rebuild the inline
    shape so callers never see the transport.
    """
    from repro.net.rpc import StreamResult

    if not isinstance(result, StreamResult):
        return result
    header = dict(result.value or {})
    header["output"] = decode_output_pages(result.pages)
    return header


def decode_job(wire: dict[str, Any]) -> DecodedJob:
    return DecodedJob(
        app_id=wire["app_id"],
        job_uid=wire.get("job_uid", wire["app_id"]),
        input_file=wire["input_file"],
        user=wire["user"],
        map_fn=loads_fn(wire["map_fn"]),
        reduce_fn=loads_fn(wire["reduce_fn"]),
        combiner=loads_fn(wire["combiner"]) if wire["combiner"] is not None else None,
        spill_buffer_bytes=wire["spill_buffer_bytes"],
        cross_spill_combine=wire.get("cross_spill_combine", False),
        cache_intermediates=wire["cache_intermediates"],
        intermediate_ttl=wire["intermediate_ttl"],
    )
