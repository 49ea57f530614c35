"""Proactive shuffle (paper §II-D).

Hadoop buffers map output on the mapper's local disk and ships it to
reducers in a separate shuffle phase.  EclipseMR instead decides the
reduce-side *location* of every intermediate pair up front -- the server
whose DHT range covers the hash key of the intermediate key -- and pushes
pairs there *while the map task is still producing them*: each mapper
keeps one memory buffer per destination range and spills a buffer to the
DHT file system whenever it crosses the application-set threshold (32 MB
in the paper's runs).

Because placement is determined by consistent hashing, reducers are then
scheduled exactly where their data already sits and the shuffle phase
disappears into the map phase.
"""

from __future__ import annotations

import pickle
import weakref
from collections import defaultdict
from typing import Any, Callable, Hashable, Iterable

from repro.common.hashing import HashSpace

__all__ = ["combine_pairs", "SpillBuffer", "IntermediateStore"]


def combine_pairs(combiner, pairs: list[tuple[Any, Any]]) -> list[tuple[Any, Any]]:
    """Apply a job's combiner to one spill's pairs (in-node combining).

    Grouping happens per spill, on the node that produced the pairs --
    before they are delivered, cached, or put on the wire -- so every
    execution plane combines identically.  ``combiner(key, values)``
    returns the (possibly empty) list of combined values for that key.
    With no combiner the pairs pass through untouched.
    """
    if combiner is None:
        return pairs
    grouped: dict[Any, list[Any]] = defaultdict(list)
    for k, v in pairs:
        grouped[k].append(v)
    return [(k, v) for k, vs in grouped.items() for v in combiner(k, vs)]


class IntermediateStore:
    """Reduce-side storage of pushed intermediate pairs, per job.

    Lives on each worker; what lands here is what that worker's reduce
    task will consume.  Each spill is stored under its deterministic
    spill id together with the **attempt number** of the map execution
    that pushed it, which is what makes duplicate results hygienic:

    * re-delivery of the same spill id at the *same or a higher* attempt
      (a retried, re-executed, or speculated map) overwrites rather than
      duplicates, and ``bytes_received`` is adjusted so the replaced
      spill no longer counts;
    * a delivery at a *lower* attempt than the stored one is **stale** --
      the push of a map the scheduler already gave up on, arriving after
      its replacement -- and is rejected (``stale_rejected`` counts it),
      closing the hole where a timed-out-then-retried map whose first
      execution eventually completed delivered its spills twice;
    * ``discard_spills(..., attempt=n)`` drops only spills still stored
      at exactly attempt ``n``, so retracting a speculative loser can
      never remove data the winning attempt delivered.
    """

    def __init__(self, server_id: Hashable) -> None:
        self.server_id = server_id
        # job_id -> spill_id -> (attempt, nbytes, pairs)
        self._pairs: dict[str, dict[str, tuple[int, int, list[tuple[Any, Any]]]]] = (
            defaultdict(dict)
        )
        self.bytes_received = 0
        self.stale_rejected = 0

    def receive(self, job_id: str, spill_id: str, pairs: list[tuple[Any, Any]],
                nbytes: int, attempt: int = 0) -> bool:
        """Accept one spill; returns False when it is stale (superseded
        by a higher-attempt delivery of the same spill id)."""
        spills = self._pairs[job_id]
        old = spills.get(spill_id)
        if old is not None:
            if attempt < old[0]:
                self.stale_rejected += 1
                return False
            self.bytes_received -= old[1]
        spills[spill_id] = (attempt, nbytes, pairs)
        self.bytes_received += nbytes
        return True

    def spills_for(self, job_id: str) -> dict[str, list[tuple[Any, Any]]]:
        """A job's spills keyed by spill id (callers choose their order)."""
        return {sid: entry[2]
                for sid, entry in self._pairs.get(job_id, {}).items()}

    def job_ids(self) -> list[str]:
        """Every job id with spills in the store (cluster workers key
        these by job *uid* so concurrent submissions stay apart)."""
        return list(self._pairs)

    def pairs_for(self, job_id: str) -> list[tuple[Any, Any]]:
        """All pairs pushed for a job, grouped later by the reduce task."""
        out: list[tuple[Any, Any]] = []
        for _, _, spill in self._pairs.get(job_id, {}).values():
            out.extend(spill)
        return out

    def discard_job(self, job_id: str) -> None:
        self._pairs.pop(job_id, None)

    def discard_spills(self, job_id: str, spill_ids: Iterable[str],
                       attempt: int | None = None) -> int:
        """Drop specific spills of a job (a partially replayed map task
        falling back to re-execution, or a speculative loser's retraction);
        returns how many were dropped.  With ``attempt`` given, only
        spills still stored at exactly that attempt are dropped -- a
        winner's overwrite is never retracted away."""
        spills = self._pairs.get(job_id)
        if not spills:
            return 0
        dropped = 0
        for sid in spill_ids:
            entry = spills.get(sid)
            if entry is None:
                continue
            if attempt is not None and entry[0] != attempt:
                continue
            del spills[sid]
            self.bytes_received -= entry[1]
            dropped += 1
        return dropped

    def spill_count(self, job_id: str) -> int:
        return len(self._pairs.get(job_id, {}))


_dumps, _PROTOCOL = pickle.dumps, pickle.HIGHEST_PROTOCOL

_MEMO_TYPES = frozenset((str, bytes, int))
"""Exact types for which ``a == b`` implies identical ``repr`` and pickle
(``bool`` is not ``int`` here, and ``1 == 1.0 == True`` never meet)."""

_MEMO_PROBE = 512
"""Memo misses between two looks at how often it hit meanwhile."""

_MEMO_MIN_HITS = _MEMO_PROBE // 3
"""Hits per ``_MEMO_PROBE`` misses below which the memo is dropped: one
pair in four.  A miss costs about a fifth more than not asking and a hit
about a quarter of it, so the memo pays from roughly one hit in five."""


class SpillBuffer:
    """A mapper's per-destination buffers with threshold-triggered pushes.

    ``deliver(dest_server, spill_id, pairs, nbytes)`` is called for every
    spill; the runtime wires it to the destination's
    :class:`IntermediateStore`, its oCache, and the DHT file system.  A
    deliverer may return ``False`` to declare the spill *skipped* (its
    combiner dropped every pair): a skipped spill counts toward nothing
    -- not ``spills``, not ``bytes_pushed``, not the manifest -- so no
    plane ever ships, caches, or persists an empty payload.

    With a ``combiner``, the buffer also combines *across spill
    boundaries* (Lee et al.'s in-node combiners, extended): when a
    destination's buffer hits the threshold it is first re-combined in
    place; only if the combined pairs still fill the threshold does the
    spill ship.  A wordcount-style combiner collapses duplicate keys as
    they accumulate, so far fewer (and denser) spills hit the wire --
    ``bytes_pushed`` shrinks at the source.  Combining is deterministic
    (insertion-ordered grouping), so every plane produces the identical
    spill sequence and byte accounting.

    A pair's destination depends only on ``repr(key)`` and its size only
    on its pickle, so both are computed once per *distinct* pair of a map
    task and looked up afterwards (the in-mapper argument of Lee et al.:
    work that depends only on the key is done once per key).  The memo is
    type-exact -- only ``str`` / ``bytes`` / ``int`` keys and values,
    where equality implies identical ``repr`` and pickle -- and drops
    itself when the task's pairs turn out not to repeat; either way the
    deliveries and the byte accounting are those of the per-pair
    computation, bit for bit.  (A task whose pairs never repeat stops
    asking after ``_MEMO_PROBE`` pairs; a memo that is kept grows by at
    most three entries per four pairs emitted.)

    The constructor's arguments are fixed for the buffer's life:
    :attr:`emit` is bound to them once.
    """

    emit: Callable[[Any, Any], None]
    """``emit(key, value)``: buffer one pair and spill its destination's
    buffer when that fills.  With a combiner, a full buffer is re-combined
    first and only spills if it *stays* full -- otherwise the (now
    smaller) combined buffer keeps accumulating, amortizing the combine
    across many emits."""

    def __init__(
        self,
        space: HashSpace,
        route: Callable[[int], Hashable],
        deliver: Callable[[Hashable, str, list[tuple[Any, Any]], int], None],
        threshold_bytes: int,
        task_id: str,
        combiner=None,
    ) -> None:
        """``route`` maps an intermediate hash key to its reduce-side server
        (the DHT file system owner in EclipseMR)."""
        if threshold_bytes <= 0:
            raise ValueError("spill threshold must be positive")
        self.space = space
        self.route = route
        self.deliver = deliver
        self.threshold = threshold_bytes
        self.task_id = task_id
        self.combiner = combiner
        # destination -> [buffered pairs, their serialized size]
        self._slots: dict[Hashable, list] = {}
        self._spill_seq: dict[Hashable, int] = defaultdict(int)
        self._manifest: list[tuple[Hashable, str, int]] = []
        # (key, value) -> (destination, serialized size); None once the
        # task's pairs have shown they do not repeat.
        self._memo: dict[tuple[Any, Any], tuple[Hashable, int]] | None = {}
        self.spills = 0
        self.spills_skipped = 0
        self.recombines = 0
        self.bytes_pushed = 0
        self.emit = self._bind_emit()

    @staticmethod
    def pair_size(key: Any, value: Any) -> int:
        """Serialized size of one pair -- what fills a 32 MB payload buffer."""
        return len(_dumps((key, value), _PROTOCOL))

    def key_of(self, key: Any) -> int:
        """Hash key of an intermediate key (its place on the ring)."""
        return self.space.key_of(repr(key))

    def _bind_emit(self) -> Callable[[Any, Any], None]:
        """Build :attr:`emit` with the buffer's state in closure cells: it
        runs once per intermediate pair of every map task, and attribute
        loads and nested method calls were most of what a pair cost.

        The buffer owns the closure, so the closure reaches the buffer
        through a weak reference (on the rare paths only: a full buffer,
        a dropped memo): a strong one would make every buffer a reference
        cycle, freed -- memo and all -- only by the next full collection.
        """
        slots, threshold = self._slots, self.threshold
        key_of, route, memo = self.space.key_of, self.route, self._memo
        this = weakref.ref(self)
        hits = 0

        def emit(key: Any, value: Any) -> None:
            nonlocal memo, hits
            pair = (key, value)
            # `key is value` pickles shorter (a memo reference) than an
            # equal pair of two objects does.
            memoise = (memo is not None and type(key) in _MEMO_TYPES
                       and type(value) in _MEMO_TYPES and key is not value)
            known = memo.get(pair) if memoise else None
            if known is not None:
                hits += 1
                dest, size = known
            else:
                dest = route(key_of(repr(key)))
                size = len(_dumps(pair, _PROTOCOL))
                if memoise:
                    memo[pair] = (dest, size)
                    if not len(memo) % _MEMO_PROBE:
                        if hits < _MEMO_MIN_HITS:
                            memo = this()._memo = None
                        hits = 0
            slot = slots.get(dest)
            if slot is None:
                slot = slots[dest] = [[], 0]
            slot[0].append(pair)
            slot[1] = size = slot[1] + size
            if size >= threshold:
                this()._full(dest)

        return emit

    def _full(self, dest: Hashable) -> None:
        """A destination's buffer reached the threshold: spill it, unless
        re-combining brings it back under."""
        if self.combiner is None or not self._recombine(dest):
            self._spill(dest)

    def _recombine(self, dest: Hashable) -> bool:
        """Combine a destination's buffer in place; True if the combined
        buffer dropped back under the threshold (no spill needed yet)."""
        slot = self._slots[dest]
        slot[0] = combined = combine_pairs(self.combiner, slot[0])
        slot[1] = nbytes = sum(self.pair_size(k, v) for k, v in combined)
        self.recombines += 1
        return nbytes < self.threshold

    def _spill(self, dest: Hashable) -> None:
        pairs, nbytes = self._slots.pop(dest)
        if not pairs:
            return
        seq = self._spill_seq[dest]
        self._spill_seq[dest] = seq + 1
        spill_id = f"{self.task_id}/{dest}/{seq}"
        if self.deliver(dest, spill_id, pairs, nbytes) is False:
            self.spills_skipped += 1
            return
        self._manifest.append((dest, spill_id, nbytes))
        self.spills += 1
        self.bytes_pushed += nbytes

    def flush(self) -> None:
        """Push every remaining buffer (map task finished)."""
        for dest in list(self._slots):
            self._spill(dest)

    @property
    def buffered_bytes(self) -> int:
        return sum(nbytes for _, nbytes in self._slots.values())

    def manifest(self) -> list[tuple[Hashable, str, int]]:
        """Every ``(destination, spill_id, nbytes)`` this buffer delivered.

        Valid after :meth:`flush`; persisted as the map task's completion
        marker so later jobs can replay the spills without re-mapping.
        Skipped (empty post-combiner) spills never appear, and the
        recorded ``nbytes`` is exactly what each delivery reported, so a
        replay reproduces the original run's byte accounting.
        """
        return list(self._manifest)
