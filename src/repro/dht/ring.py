"""The consistent hash ring.

Each server sits at a *position* on the circular hash space and owns the
half-open arc from its predecessor's position up to (but excluding) its own
-- exactly the layout of Fig. 1 in the paper, where server B at position 15
owns ``[5, 15)`` because its predecessor A sits at 5.

Ownership therefore moves minimally when servers join or leave: a join
splits one arc, a leave merges two, and no other key changes hands -- the
defining property of consistent hashing and the reason the DHT file system
needs no central directory.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Hashable, Iterator

from repro.common.errors import RingError
from repro.common.hashing import DEFAULT_SPACE, HashSpace, KeyRange

__all__ = ["ConsistentHashRing", "RingNode"]


@dataclass(frozen=True)
class RingNode:
    """A server's placement on the ring."""

    node_id: Hashable
    position: int


class ConsistentHashRing:
    """Positions, ownership arcs, and neighbor relations for a set of servers."""

    def __init__(self, space: HashSpace = DEFAULT_SPACE) -> None:
        self.space = space
        self._position_of: dict[Hashable, int] = {}
        self._sorted_positions: list[int] = []
        self._node_at: dict[int, Hashable] = {}

    # -- membership -----------------------------------------------------------

    def add_node(self, node_id: Hashable, position: int | None = None) -> RingNode:
        """Place a server on the ring.

        Without an explicit ``position`` the server hashes to
        ``space.key_of(str(node_id))``, so placement is deterministic and
        agreed on by every participant without coordination.
        """
        if node_id in self._position_of:
            raise RingError(f"node {node_id!r} already on the ring")
        if position is None:
            position = self.space.key_of(str(node_id))
        else:
            self.space.validate(position)
        if position in self._node_at:
            raise RingError(
                f"position {position} already taken by {self._node_at[position]!r}"
                " (hash collision; supply an explicit position)"
            )
        self._position_of[node_id] = position
        self._node_at[position] = node_id
        bisect.insort(self._sorted_positions, position)
        return RingNode(node_id, position)

    def owned_fraction(self, node_id: Hashable) -> float:
        """Fraction of the key space the server's arc covers."""
        return self.range_of(node_id).length / self.space.size

    def remove_node(self, node_id: Hashable) -> None:
        """Take a server off the ring; its arc merges into its successor's."""
        position = self._require(node_id)
        del self._position_of[node_id]
        del self._node_at[position]
        idx = bisect.bisect_left(self._sorted_positions, position)
        self._sorted_positions.pop(idx)

    def __len__(self) -> int:
        return len(self._position_of)

    def __contains__(self, node_id: Hashable) -> bool:
        return node_id in self._position_of

    @property
    def nodes(self) -> list[Hashable]:
        """Node ids in clockwise position order."""
        return [self._node_at[p] for p in self._sorted_positions]

    @property
    def positions(self) -> list[int]:
        """Sorted node positions."""
        return list(self._sorted_positions)

    def position_of(self, node_id: Hashable) -> int:
        return self._require(node_id)

    # -- ownership --------------------------------------------------------------

    def owner_of(self, key: int) -> Hashable:
        """The server whose arc contains ``key`` (its Chord successor)."""
        self.space.validate(key)
        if not self._sorted_positions:
            raise RingError("ring is empty")
        idx = bisect.bisect_right(self._sorted_positions, key)
        # bisect_right gives the first position > key; a node at position p
        # owns (pred, p], i.e. keys strictly greater than pred up to p.
        # With half-open arcs [pred, p) the node at the first position > key
        # owns it, wrapping past the top.
        if idx == len(self._sorted_positions):
            idx = 0
        return self._node_at[self._sorted_positions[idx]]

    def range_of(self, node_id: Hashable) -> KeyRange:
        """The arc ``[predecessor_position, own_position)`` a server owns."""
        position = self._require(node_id)
        pred = self.position_of(self.predecessor(node_id))
        return KeyRange(self.space, pred, position)

    def ranges(self) -> dict[Hashable, KeyRange]:
        """Every server's arc; the arcs partition the circle."""
        return {node_id: self.range_of(node_id) for node_id in self._position_of}

    # -- neighbors ---------------------------------------------------------------

    def successor(self, node_id: Hashable) -> Hashable:
        """Clockwise neighbor (itself on a single-node ring)."""
        position = self._require(node_id)
        idx = bisect.bisect_right(self._sorted_positions, position)
        if idx == len(self._sorted_positions):
            idx = 0
        return self._node_at[self._sorted_positions[idx]]

    def predecessor(self, node_id: Hashable) -> Hashable:
        """Counter-clockwise neighbor (itself on a single-node ring)."""
        position = self._require(node_id)
        idx = bisect.bisect_left(self._sorted_positions, position) - 1
        return self._node_at[self._sorted_positions[idx]]

    def replica_set(self, key: int, extra: int = 2) -> list[Hashable]:
        """Servers holding ``key``: the owner plus up to ``extra`` neighbors.

        The paper replicates blocks and metadata on the predecessor *and*
        successor (``extra = 2``); fewer distinct servers are returned on
        tiny rings.
        """
        owner = self.owner_of(key)
        servers = [owner]
        if extra >= 1:
            pred = self.predecessor(owner)
            if pred not in servers:
                servers.append(pred)
        if extra >= 2:
            succ = self.successor(owner)
            if succ not in servers:
                servers.append(succ)
        return servers

    def walk(self, start: Hashable) -> Iterator[Hashable]:
        """Iterate all nodes clockwise starting at ``start``."""
        nodes = self.nodes
        i = nodes.index(start)
        for k in range(len(nodes)):
            yield nodes[(i + k) % len(nodes)]

    def _require(self, node_id: Hashable) -> int:
        try:
            return self._position_of[node_id]
        except KeyError:
            raise RingError(f"node {node_id!r} not on the ring") from None

    def __repr__(self) -> str:
        return f"<ConsistentHashRing {len(self)} nodes on {self.space!r}>"
