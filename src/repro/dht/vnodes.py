"""Virtual nodes: the classic consistent-hashing balance fix.

A physical server claims ``v`` positions on the ring instead of one, so
its total owned arc concentrates around ``1/n`` of the space.  Virtual
nodes even out *key-space ownership* -- but they cannot adapt to skewed
*key popularity*, which is the problem the paper's LAF scheduler solves
(§II-E).  The ablation bench contrasts the two directly.

:class:`VirtualNodeRing` exposes the same lookup surface as
:class:`~repro.dht.ring.ConsistentHashRing` (``owner_of``, ``nodes``,
``replica_set``) while mapping every virtual position back to its
physical server.
"""

from __future__ import annotations

from typing import Hashable

from repro.common.errors import RingError
from repro.common.hashing import DEFAULT_SPACE, HashSpace
from repro.dht.ring import ConsistentHashRing

__all__ = ["VirtualNodeRing"]


class VirtualNodeRing:
    """A consistent hash ring where each server holds many positions."""

    def __init__(self, space: HashSpace = DEFAULT_SPACE, vnodes: int = 16) -> None:
        if vnodes < 1:
            raise RingError("vnodes must be >= 1")
        self.space = space
        self.vnodes = vnodes
        self._ring = ConsistentHashRing(space)
        self._physical_of: dict[Hashable, Hashable] = {}
        self._members: list[Hashable] = []

    # -- membership -----------------------------------------------------------

    def add_node(self, node_id: Hashable) -> None:
        """Claim ``vnodes`` hashed positions for a physical server."""
        if node_id in self._members:
            raise RingError(f"node {node_id!r} already on the ring")
        placed = []
        try:
            for v in range(self.vnodes):
                token = (node_id, v)
                self._ring.add_node(token, self.space.key_of(f"{node_id}#vn{v}"))
                self._physical_of[token] = node_id
                placed.append(token)
        except RingError:
            for token in placed:
                self._ring.remove_node(token)
                del self._physical_of[token]
            raise
        self._members.append(node_id)

    def remove_node(self, node_id: Hashable) -> None:
        """Release every virtual position of a physical server."""
        if node_id not in self._members:
            raise RingError(f"node {node_id!r} not on the ring")
        for token in [t for t, p in self._physical_of.items() if p == node_id]:
            self._ring.remove_node(token)
            del self._physical_of[token]
        self._members.remove(node_id)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self._members

    @property
    def nodes(self) -> list[Hashable]:
        """Physical members (insertion order)."""
        return list(self._members)

    # -- lookups -----------------------------------------------------------------

    def owner_of(self, key: int) -> Hashable:
        """The physical server owning ``key``."""
        return self._physical_of[self._ring.owner_of(key)]

    def replica_set(self, key: int, extra: int = 2) -> list[Hashable]:
        """Owner plus the next ``extra`` *distinct physical* successors.

        Walking virtual successors can revisit the same physical server;
        replicas must land on different machines to survive failures.
        """
        owner_token = self._ring.owner_of(key)
        out = [self._physical_of[owner_token]]
        for token in self._ring.walk(owner_token):
            phys = self._physical_of[token]
            if phys not in out:
                out.append(phys)
            if len(out) > extra:
                break
        return out

    def owned_fraction(self, node_id: Hashable) -> float:
        """Total key-space share across all of a server's virtual arcs."""
        if node_id not in self._members:
            raise RingError(f"node {node_id!r} not on the ring")
        total = sum(
            self._ring.range_of(token).length
            for token, phys in self._physical_of.items()
            if phys == node_id
        )
        return total / self.space.size
