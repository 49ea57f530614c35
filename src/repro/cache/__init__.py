"""The distributed in-memory cache (paper §II-B).

EclipseMR's outer ring: every worker contributes memory, and objects are
cached by *hash key*, not by which server computed them, so globally
popular data spreads over the whole cluster and any server can locate a
cached object with one hash.

* :mod:`repro.cache.lru` -- byte-capacity cache with TTL and pluggable
  victim selection (LRU by default, the policy the paper assumes).
* :mod:`repro.cache.eviction` -- the replacement-policy seam
  (``CacheConfig.eviction``): exact LRU, or a GDSF-style
  frequency x recompute-cost score with aging for skewed workloads.
* :mod:`repro.cache.worker` -- one worker's cache, split into **iCache**
  (input blocks, implicit) and **oCache** (intermediate results and
  iteration outputs, explicit, tagged, TTL-invalidated).
* :mod:`repro.cache.distributed` -- the cluster-wide view: per-server hash
  key ranges (dynamic, set by the scheduler), lookup, and the misplaced-
  entry migration option.
"""

from repro._lazy import lazy_exports

__all__ = [
    "LRUCache",
    "CacheEntry",
    "EvictionPolicy",
    "LRUPolicy",
    "CostAwarePolicy",
    "make_policy",
    "WorkerCache",
    "CacheStats",
    "DistributedCache",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cache.lru": ("LRUCache", "CacheEntry"),
    "repro.cache.eviction": (
        "CostAwarePolicy",
        "EvictionPolicy",
        "LRUPolicy",
        "make_policy",
    ),
    "repro.cache.worker": ("WorkerCache", "CacheStats"),
    "repro.cache.distributed": ("DistributedCache",),
})
