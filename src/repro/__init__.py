"""EclipseMR reproduction: distributed and parallel task processing with
consistent hashing (IEEE CLUSTER 2017).

Two execution planes share the same algorithm code:

* the **functional plane** (:mod:`repro.mapreduce`, :class:`repro.EclipseMR`)
  runs real map/reduce functions over an in-process DHT file system,
  distributed in-memory caches, and the LAF / delay schedulers;
* the **performance plane** (:mod:`repro.perfmodel`, :mod:`repro.sim`)
  replays the same placement and scheduling decisions on a discrete-event
  cluster model calibrated to the paper's testbed, regenerating every
  evaluation figure (see :mod:`repro.experiments`).

Quickstart::

    from repro import EclipseMR

    mr = EclipseMR(workers=8, scheduler="laf")
    mr.upload("corpus.txt", b"to be or not to be")
    result = mr.map_reduce(
        "wc", "corpus.txt",
        map_fn=lambda block: ((w, 1) for w in block.decode().split()),
        reduce_fn=lambda word, counts: sum(counts),
    )
    assert result.output["be"] == 2
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "HashSpace",
    "KeyRange",
    "CacheConfig",
    "ClusterConfig",
    "DFSConfig",
    "SchedulerConfig",
    "ConsistentHashRing",
    "DHTFileSystem",
    "DistributedCache",
    "LAFScheduler",
    "DelayScheduler",
    "EclipseMR",
    "JobResult",
    "MapReduceJob",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.common.hashing": ("HashSpace", "KeyRange"),
    "repro.common.config": (
        "CacheConfig",
        "ClusterConfig",
        "DFSConfig",
        "SchedulerConfig",
    ),
    "repro.dht.ring": ("ConsistentHashRing",),
    "repro.dfs.filesystem": ("DHTFileSystem",),
    "repro.cache.distributed": ("DistributedCache",),
    "repro.scheduler.laf": ("LAFScheduler",),
    "repro.scheduler.delay": ("DelayScheduler",),
    "repro.mapreduce.api": ("EclipseMR",),
    "repro.mapreduce.job": ("JobResult", "MapReduceJob"),
})
