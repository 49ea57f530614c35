"""Unit and property tests for the consistent hash ring."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import RingError
from repro.common.hashing import DEFAULT_SPACE, HashSpace
from repro.dht.ring import ConsistentHashRing


def paper_ring():
    """The inner (DHT FS) ring of Fig. 1: six servers on a [0, 60) space."""
    sp = HashSpace(60)
    ring = ConsistentHashRing(sp)
    for name, pos in [("A", 5), ("B", 15), ("C", 26), ("D", 39), ("E", 47), ("F", 57)]:
        ring.add_node(name, pos)
    return ring


class TestRingBasics:
    def test_empty_ring_lookup_rejected(self):
        ring = ConsistentHashRing(HashSpace(100))
        with pytest.raises(RingError):
            ring.owner_of(5)

    def test_figure1_ownership(self):
        """Fig. 1's table: A owns [57, 5), B [5, 15), ... F [47, 57)."""
        ring = paper_ring()
        assert ring.owner_of(57) == "A"
        assert ring.owner_of(4) == "A"
        assert ring.owner_of(5) == "B"
        assert ring.owner_of(14) == "B"
        assert ring.owner_of(15) == "C"
        assert ring.owner_of(38) == "D"
        assert ring.owner_of(39) == "E"
        assert ring.owner_of(47) == "F"
        assert ring.owner_of(56) == "F"

    def test_figure1_ranges(self):
        ring = paper_ring()
        r = ring.range_of("A")
        assert (r.start, r.end) == (57, 5)
        r = ring.range_of("B")
        assert (r.start, r.end) == (5, 15)

    def test_figure2_example(self):
        """Fig. 2: file hash key 38 -> metadata owner D; block keys 5, 56."""
        ring = paper_ring()
        assert ring.owner_of(38) == "D"
        assert ring.owner_of(5) == "B"   # paper: "block ... stored in ... B"
        assert ring.owner_of(56) == "F"  # key 56 is in F's DFS range [47,57)

    def test_neighbors(self):
        ring = paper_ring()
        assert ring.successor("A") == "B"
        assert ring.predecessor("A") == "F"
        assert ring.successor("F") == "A"
        assert ring.predecessor("B") == "A"

    def test_single_node_owns_everything(self):
        ring = ConsistentHashRing(HashSpace(100))
        ring.add_node("solo", 10)
        assert ring.owner_of(0) == "solo"
        assert ring.owner_of(99) == "solo"
        assert ring.successor("solo") == "solo"
        assert ring.predecessor("solo") == "solo"
        assert ring.range_of("solo").is_full

    def test_owned_fraction_on_the_default_space(self):
        """Arcs of the 2**64 space are longer than ``len()`` can say."""
        ring = ConsistentHashRing(DEFAULT_SPACE)
        ring.add_node("solo")
        assert ring.owned_fraction("solo") == 1.0  # the full circle
        ring.add_node("half", DEFAULT_SPACE.add(ring.position_of("solo"), 2**63))
        assert ring.owned_fraction("solo") == ring.owned_fraction("half") == 0.5
        for i in range(6):
            ring.add_node(f"worker-{i}")
        shares = [ring.owned_fraction(n) for n in ring.nodes]
        assert all(0.0 < share < 1.0 for share in shares)
        assert sum(shares) == pytest.approx(1.0)

    def test_duplicate_node_rejected(self):
        ring = paper_ring()
        with pytest.raises(RingError):
            ring.add_node("A", 30)

    def test_position_collision_rejected(self):
        ring = paper_ring()
        with pytest.raises(RingError):
            ring.add_node("G", 5)

    def test_remove_merges_range_into_successor(self):
        ring = paper_ring()
        ring.remove_node("C")  # C owned [15, 26)
        assert ring.owner_of(20) == "D"
        r = ring.range_of("D")
        assert (r.start, r.end) == (15, 39)

    def test_remove_unknown_rejected(self):
        ring = paper_ring()
        with pytest.raises(RingError):
            ring.remove_node("Z")

    def test_default_position_is_hash_of_id(self):
        sp = HashSpace(2**32)
        ring = ConsistentHashRing(sp)
        node = ring.add_node("worker-7")
        assert node.position == sp.key_of("worker-7")

    def test_replica_set_owner_pred_succ(self):
        ring = paper_ring()
        assert ring.replica_set(20) == ["C", "B", "D"]  # owner, pred, succ

    def test_replica_set_small_ring_dedupes(self):
        ring = ConsistentHashRing(HashSpace(100))
        ring.add_node("x", 10)
        ring.add_node("y", 60)
        assert set(ring.replica_set(5)) == {"x", "y"}
        ring2 = ConsistentHashRing(HashSpace(100))
        ring2.add_node("solo", 10)
        assert ring2.replica_set(5) == ["solo"]

    def test_replica_set_extra_levels(self):
        ring = paper_ring()
        assert ring.replica_set(20, extra=0) == ["C"]
        assert ring.replica_set(20, extra=1) == ["C", "B"]

    def test_walk(self):
        ring = paper_ring()
        assert list(ring.walk("D")) == ["D", "E", "F", "A", "B", "C"]

    def test_nodes_sorted_by_position(self):
        ring = paper_ring()
        assert ring.nodes == ["A", "B", "C", "D", "E", "F"]


# -- property tests ------------------------------------------------------------

@st.composite
def ring_and_keys(draw):
    size = draw(st.integers(16, 100_000))
    n = draw(st.integers(1, 12))
    positions = draw(
        st.lists(st.integers(0, size - 1), min_size=n, max_size=n, unique=True)
    )
    sp = HashSpace(size)
    ring = ConsistentHashRing(sp)
    for i, pos in enumerate(positions):
        ring.add_node(f"n{i}", pos)
    keys = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=20))
    return ring, keys


@given(ring_and_keys())
@settings(max_examples=100)
def test_ranges_partition_the_space(rk):
    ring, keys = rk
    ranges = ring.ranges()
    for key in keys:
        owners = [n for n, r in ranges.items() if key in r]
        assert len(owners) == 1
        assert owners[0] == ring.owner_of(key)


@given(ring_and_keys())
@settings(max_examples=100)
def test_minimal_disruption_on_leave(rk):
    """Consistent hashing's defining property: removing one node only moves
    the keys that node owned."""
    ring, keys = rk
    if len(ring) < 2:
        return
    before = {k: ring.owner_of(k) for k in keys}
    victim = ring.nodes[0]
    ring.remove_node(victim)
    for k in keys:
        after = ring.owner_of(k)
        if before[k] != victim:
            assert after == before[k]


@given(ring_and_keys(), st.integers(0, 2**31))
@settings(max_examples=100)
def test_join_only_steals_from_successor(rk, seed):
    ring, keys = rk
    size = ring.space.size
    pos = seed % size
    if pos in [ring.position_of(n) for n in ring.nodes]:
        return
    before = {k: ring.owner_of(k) for k in keys}
    ring.add_node("joiner", pos)
    succ = ring.successor("joiner")
    for k in keys:
        after = ring.owner_of(k)
        if after != before[k]:
            # the only moves allowed: successor's keys moving to the joiner
            assert after == "joiner" and before[k] == succ


@given(ring_and_keys())
@settings(max_examples=60)
def test_successor_predecessor_are_inverse(rk):
    ring, _ = rk
    for n in ring.nodes:
        assert ring.predecessor(ring.successor(n)) == n
        assert ring.successor(ring.predecessor(n)) == n
