"""Property tests for the proactive shuffle and workload packing."""

import pickle
from collections import Counter, defaultdict

from hypothesis import given, settings, strategies as st

from repro.apps.workloads import pack_records
from repro.common.hashing import HashSpace
from repro.mapreduce import shuffle
from repro.mapreduce.shuffle import SpillBuffer, combine_pairs


class ReferenceSpillBuffer:
    """The emit path as it was before destinations and sizes were
    memoised: every pair pays its own SHA-1, ring lookup and pickle.
    Kept here as the oracle the memoised buffer must equal bit for bit."""

    def __init__(self, space, route, deliver, threshold_bytes, task_id, combiner=None):
        self.space = space
        self.route = route
        self.deliver = deliver
        self.threshold = threshold_bytes
        self.task_id = task_id
        self.combiner = combiner
        self._buffers = defaultdict(list)
        self._sizes = defaultdict(int)
        self._spill_seq = defaultdict(int)
        self._manifest = []
        self.spills = 0
        self.spills_skipped = 0
        self.recombines = 0
        self.bytes_pushed = 0

    @staticmethod
    def pair_size(key, value):
        return len(pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL))

    def emit(self, key, value):
        dest = self.route(self.space.key_of(repr(key)))
        self._buffers[dest].append((key, value))
        self._sizes[dest] += self.pair_size(key, value)
        if self._sizes[dest] >= self.threshold:
            if self.combiner is not None and self._recombine(dest):
                return
            self._spill(dest)

    def _recombine(self, dest):
        combined = combine_pairs(self.combiner, self._buffers[dest])
        self._buffers[dest] = combined
        self._sizes[dest] = sum(self.pair_size(k, v) for k, v in combined)
        self.recombines += 1
        return self._sizes[dest] < self.threshold

    def _spill(self, dest):
        pairs = self._buffers.pop(dest, [])
        nbytes = self._sizes.pop(dest, 0)
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

    def flush(self):
        for dest in list(self._buffers):
            self._spill(dest)

    def manifest(self):
        return list(self._manifest)


_TEXT = "héllo wörld ∑ 你好"
# Each row: objects that are equal (or, for str/bytes, hash-equal) yet
# differ in repr (destination) or pickle (size) -- and one string in two
# copies, since a pair of one object pickles shorter than an equal pair
# of two.  A memo keyed on plain equality confuses the members of a row.
_LOOKALIKES = [
    [1, 1.0, True],
    [0, 0.0, False],
    ["1", b"1"],
    [(1,), (1.0,), (True,)],
    [("1", (1,)), ("1", (1.0,))],
    [_TEXT, "".join([_TEXT[:5], _TEXT[5:]])],
]
_ATOMS = [x for row in _LOOKALIKES for x in row] + [
    -1, 2**70, "", b"", None, float("nan"), 1.5, "w00001", "w00002"]


def _segments():
    atom = st.sampled_from(_ATOMS)
    row = st.sampled_from(_LOOKALIKES)
    repeated = st.tuples(atom, atom, st.integers(1, 300)).map(
        lambda t: [(t[0], t[1])] * t[2])
    lookalikes = st.tuples(row, row, st.integers(1, 3)).map(
        lambda t: [(k, v) for k in t[0] for v in t[1]] * t[2])
    # Never-repeating runs, some long enough to turn the memo off.
    unique = st.tuples(st.integers(-5, 5), atom, st.sampled_from([2, 30, 700])).map(
        lambda t: [(f"k{t[0] + i}" if t[0] % 2 else t[0] * 1000 + i, t[1])
                   for i in range(t[2])])
    return st.lists(st.one_of(repeated, lookalikes, unique), max_size=8).map(
        lambda runs: [pair for run in runs for pair in run])


def _keep_first(key, values):
    """A combiner for values of any type (drops a key's later values)."""
    return values[:1]


@given(
    pairs=_segments(),
    threshold=st.one_of(st.integers(1, 64), st.integers(1, 4096)),
    n_dests=st.integers(1, 5),
    combiner=st.sampled_from([None, _keep_first]),
)
@settings(max_examples=120, deadline=None)
def test_memoised_emit_equals_per_pair_reference(pairs, threshold, n_dests, combiner):
    """Deliveries, spill boundaries and every counter are those of the
    straight-line emit, whether the memo engages, falls through on a
    type it must not trust, or switches itself off mid-stream."""
    runs = []
    for cls in (SpillBuffer, ReferenceSpillBuffer):
        delivered = []
        buf = cls(
            space=HashSpace(1 << 24),
            route=lambda k: f"s{k % n_dests}",
            deliver=lambda dest, sid, p, n: delivered.append((dest, sid, list(p), n)),
            threshold_bytes=threshold,
            task_id="t",
            combiner=combiner,
        )
        for k, v in pairs:
            buf.emit(k, v)
        buf.flush()
        runs.append((delivered, buf.manifest(), buf.spills, buf.spills_skipped,
                     buf.recombines, buf.bytes_pushed))
    # Deliveries by repr(): 1 == 1.0 == True would pass a swapped pair.
    assert repr(runs[0][0]) == repr(runs[1][0])
    assert runs[0][1:] == runs[1][1:]


def _buffer():
    return SpillBuffer(space=HashSpace(1 << 24), route=lambda k: k % 3,
                       deliver=lambda *a: None, threshold_bytes=1 << 30,
                       task_id="t")


def test_memo_holds_one_entry_per_distinct_pair():
    buf = _buffer()
    for i in range(20_000):
        buf.emit(f"w{i % 100}", 1)
    assert len(buf._memo) == 100


def test_never_repeating_stream_leaves_the_memo_bounded():
    buf = _buffer()
    for i in range(20_000):
        buf.emit(f"record {i}", 1)
        assert buf._memo is None or len(buf._memo) <= shuffle._MEMO_PROBE
    assert buf._memo is None


def test_memo_switches_off_when_a_repeating_stream_stops_repeating():
    buf = _buffer()
    for i in range(5_000):
        buf.emit(i % 50, "x")
    assert len(buf._memo) == 50
    for i in range(5_000):
        buf.emit(1_000 + i, "x")
    assert buf._memo is None


def test_a_finished_buffer_is_freed_without_the_cycle_collector():
    """``emit`` is a closure the buffer owns; were the buffer and it to
    hold each other strongly, every map task's memo would sit in memory
    until the next full collection (measured: +9 MB per worker)."""
    import gc
    import weakref

    gc.disable()
    try:
        buf = _buffer()
        emit = buf.emit
        for i in range(100):
            emit(f"w{i % 7}", 1)
        buf.flush()
        gone = weakref.ref(buf)
        del buf, emit
        assert gone() is None
    finally:
        gc.enable()


def test_a_pair_of_one_object_is_sized_on_its_own():
    """pickle writes a back-reference for the second mention of one
    object, so ``(s, s)`` is smaller than an equal pair of two strings."""
    a, b = "".join(["sha", "red"]), "".join(["sha", "red"])
    assert a is not b
    sizes = []
    buf = SpillBuffer(space=HashSpace(1 << 24), route=lambda k: 0,
                      deliver=lambda d, sid, p, n: sizes.append(n),
                      threshold_bytes=1, task_id="t")
    stream = [(a, a), (a, b), (b, b), (b, a), (a, a)]
    for k, v in stream:
        buf.emit(k, v)
    assert sizes == [SpillBuffer.pair_size(k, v) for k, v in stream]
    assert sizes[0] < sizes[1]


def test_memo_never_sees_types_whose_equals_differ():
    buf = _buffer()
    for key in (1.0, True, (1,), None, float("nan")):
        buf.emit(key, 1)
        buf.emit("k", key)
    assert buf._memo == {}


@given(
    pairs=st.lists(
        st.tuples(st.text(min_size=1, max_size=6), st.integers(-100, 100)),
        max_size=120,
    ),
    threshold=st.integers(1, 4096),
    n_dests=st.integers(1, 6),
)
@settings(max_examples=80)
def test_every_pair_delivered_exactly_once(pairs, threshold, n_dests):
    """No matter the spill threshold, emit+flush delivers each pair once."""
    space = HashSpace(1 << 24)
    delivered: list[tuple] = []
    buf = SpillBuffer(
        space=space,
        route=lambda k: k % n_dests,
        deliver=lambda dest, sid, p, n: delivered.extend(p),
        threshold_bytes=threshold,
        task_id="t",
    )
    for k, v in pairs:
        buf.emit(k, v)
    buf.flush()
    assert Counter(delivered) == Counter(pairs)
    assert buf.buffered_bytes == 0


@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 50), st.integers(0, 5)), min_size=1, max_size=80
    ),
    threshold=st.integers(1, 512),
)
@settings(max_examples=60)
def test_routing_consistent_per_key(pairs, threshold):
    """Every occurrence of the same key lands at the same destination."""
    space = HashSpace(1 << 24)
    dest_of: dict = {}
    ok = True

    def deliver(dest, sid, batch, nbytes):
        nonlocal ok
        for k, _ in batch:
            if dest_of.setdefault(k, dest) != dest:
                ok = False

    buf = SpillBuffer(space, route=lambda hk: hk % 7, deliver=deliver,
                      threshold_bytes=threshold, task_id="t")
    for k, v in pairs:
        buf.emit(k, v)
    buf.flush()
    assert ok


@given(
    pairs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60),
    threshold=st.integers(1, 256),
)
@settings(max_examples=60)
def test_spill_ids_unique(pairs, threshold):
    space = HashSpace(1 << 24)
    ids = []
    buf = SpillBuffer(space, route=lambda hk: hk % 3,
                      deliver=lambda d, sid, p, n: ids.append(sid),
                      threshold_bytes=threshold, task_id="t")
    for k, v in pairs:
        buf.emit(k, v)
    buf.flush()
    assert len(ids) == len(set(ids))
    assert len(ids) == buf.spills
    assert sorted(ids) == sorted(sid for _, sid, _ in buf.manifest())


@given(
    records=st.lists(
        st.binary(min_size=0, max_size=30).filter(lambda b: b"\n" not in b),
        max_size=60,
    ),
    block_size=st.sampled_from([32, 64, 256]),
)
@settings(max_examples=80)
def test_pack_records_roundtrip_and_alignment(records, block_size):
    records = [r for r in records if len(r) + 1 <= block_size]
    data = pack_records(records, block_size)
    # Exact multiple of the block size, and no record crosses a boundary.
    assert len(data) % block_size == 0
    recovered = []
    for off in range(0, len(data), block_size):
        block = data[off : off + block_size]
        recovered.extend(l for l in block.split(b"\n") if l)
    assert recovered == [r for r in records if r]
