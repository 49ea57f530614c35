"""Plane 3: a real multi-process EclipseMR cluster on localhost TCP.

Workers are OS processes (``multiprocessing``) each holding a DHT FS
shard, an iCache/oCache partition, and an intermediate store; the
coordinator owns the ring, the LAF scheduler, and heartbeat liveness.
:class:`ClusterRuntime` exposes the same ``run(job)`` API as the
sequential and thread-pool runtimes.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ClusterRuntime",
    "Coordinator",
    "WorkerNode",
    "worker_main",
    "LivenessTracker",
    "HeartbeatSender",
    "RingTable",
    "WorkerAddress",
    "encode_job",
    "decode_job",
    "dumps_fn",
    "loads_fn",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cluster.coordinator": ("Coordinator",),
    "repro.cluster.fnpickle": ("dumps_fn", "loads_fn"),
    "repro.cluster.heartbeat": ("HeartbeatSender", "LivenessTracker"),
    "repro.cluster.messages": (
        "RingTable",
        "WorkerAddress",
        "decode_job",
        "encode_job",
    ),
    "repro.cluster.runtime": ("ClusterRuntime",),
    "repro.cluster.worker": ("WorkerNode", "worker_main"),
})
