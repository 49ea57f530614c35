"""Consistent hashing / Chord-style DHT substrate.

Both EclipseMR rings (the DHT file system and the distributed in-memory
cache) are built on this package:

* :mod:`repro.dht.ring` -- the consistent hash ring: node positions, key
  ownership, successors/predecessors.
* :mod:`repro.dht.finger` -- Chord finger tables and greedy key routing,
  including the "one-hop" complete-table mode the paper uses for clusters
  below a couple thousand servers.
* :mod:`repro.dht.membership` -- join/leave/failure handling, heartbeats
  and the coordinator election that picks the job scheduler and resource
  manager.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ConsistentHashRing",
    "RingNode",
    "FingerTable",
    "RoutingTable",
    "Route",
    "MembershipService",
    "NodeState",
    "MembershipEvent",
    "VirtualNodeRing",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.dht.ring": ("ConsistentHashRing", "RingNode"),
    "repro.dht.finger": ("FingerTable", "RoutingTable", "Route"),
    "repro.dht.membership": ("MembershipService", "NodeState", "MembershipEvent"),
    "repro.dht.vnodes": ("VirtualNodeRing",),
})
