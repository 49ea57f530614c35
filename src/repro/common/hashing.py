"""The circular hash key space used by both Chord rings.

EclipseMR hangs everything off consistent hashing: file metadata placement,
block placement, cache lookup, and the LAF scheduler's histogram all operate
on keys drawn from one circular space ("Filesystem Hash = SHA1" in Fig. 2).

We model the space as the integers ``[0, size)`` with wrap-around.  The
paper's prose examples use a tiny space (``[0, 140)`` in Fig. 3); production
keys are SHA-1 digests truncated into the configured space.  Making the
size explicit lets unit tests reproduce the paper's worked examples exactly
while experiments run on the full 2**64 space.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

__all__ = ["HashSpace", "KeyRange", "DEFAULT_SPACE"]

_sha1, _from_bytes = hashlib.sha1, int.from_bytes


class HashSpace:
    """A circular integer key space ``[0, size)``.

    Instances are immutable and cheap; they provide deterministic key
    derivation (SHA-1, as in the paper) and modular arithmetic helpers.
    """

    __slots__ = ("_size",)

    def __init__(self, size: int = 2**64) -> None:
        if size < 2:
            raise ValueError(f"hash space must have at least 2 keys, got {size}")
        self._size = int(size)

    @property
    def size(self) -> int:
        """Number of distinct keys in the space."""
        return self._size

    def key_of_bytes(self, data: bytes) -> int:
        """SHA-1 of ``data`` reduced into the space."""
        return _from_bytes(_sha1(data).digest(), "big") % self._size

    def key_of(self, name: str) -> int:
        """SHA-1 key of a UTF-8 string (file names, cache tags, and the
        ``repr`` of every intermediate key a map emits -- hence one
        expression, with no call into :meth:`key_of_bytes`)."""
        return _from_bytes(_sha1(name.encode("utf-8")).digest(), "big") % self._size

    def block_key(self, file_name: str, index: int) -> int:
        """Deterministic key for block ``index`` of ``file_name``.

        The paper spreads a file's blocks across the ring "using their hash
        keys"; deriving the key from ``(file name, block index)`` gives a
        stable, uniformly spread placement without needing block contents.
        """
        return self.key_of(f"{file_name}\x00block\x00{index}")

    def contains(self, key: int) -> bool:
        """Whether ``key`` is a valid key in this space."""
        return 0 <= key < self._size

    def validate(self, key: int) -> int:
        """Return ``key`` if valid, else raise ``ValueError``."""
        if not self.contains(key):
            raise ValueError(f"key {key} outside hash space [0, {self._size})")
        return key

    def distance(self, start: int, end: int) -> int:
        """Clockwise distance from ``start`` to ``end`` (0 when equal)."""
        return (end - start) % self._size

    def add(self, key: int, delta: int) -> int:
        """Move ``delta`` steps clockwise from ``key`` (modular)."""
        return (key + delta) % self._size

    def in_range(self, key: int, start: int, end: int) -> bool:
        """Whether ``key`` lies in the half-open clockwise arc ``[start, end)``.

        When ``start == end`` the arc covers the whole circle, matching how a
        single-server ring owns every key.
        """
        if start == end:
            return True
        return self.distance(start, key) < self.distance(start, end)

    def range(self, start: int, end: int) -> "KeyRange":
        """Construct a :class:`KeyRange` in this space."""
        return KeyRange(self, start, end)

    def full_range(self, anchor: int = 0) -> "KeyRange":
        """The whole circle expressed as ``[anchor, anchor)``."""
        return KeyRange(self, anchor, anchor)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HashSpace) and other._size == self._size

    def __hash__(self) -> int:
        return hash(("HashSpace", self._size))

    def __repr__(self) -> str:
        return f"HashSpace(size={self._size})"


@dataclass(frozen=True)
class KeyRange:
    """A half-open clockwise arc ``[start, end)`` on a :class:`HashSpace`.

    ``start == end`` denotes the *full circle* (the natural limit of a range
    growing until it wraps onto itself), never the empty range: an empty hash
    key range can own nothing and never appears in a consistent hash ring.
    The paper's LAF scheduler can, however, produce *degenerate* ranges for
    servers whose popularity share is ~0; those are represented explicitly
    by :meth:`KeyRange.degenerate` sentinels in the scheduler layer rather
    than by empty arcs here.
    """

    space: HashSpace
    start: int
    end: int

    def __post_init__(self) -> None:
        self.space.validate(self.start)
        self.space.validate(self.end)

    @property
    def is_full(self) -> bool:
        """True when the arc covers the entire circle."""
        return self.start == self.end

    def __contains__(self, key: int) -> bool:
        return self.space.in_range(key, self.start, self.end)

    @property
    def length(self) -> int:
        """Number of keys covered (the full space when ``start == end``)."""
        if self.is_full:
            return self.space.size
        return self.space.distance(self.start, self.end)

    def __len__(self) -> int:
        """:attr:`length`, for arcs ``len()`` can express: it raises
        ``OverflowError`` past ``sys.maxsize``, i.e. on most arcs of the
        default 2**64 space."""
        return self.length

    def wraps(self) -> bool:
        """Whether the arc crosses the zero point of the circle."""
        return self.end < self.start or self.is_full

    def split(self, at: int) -> tuple["KeyRange", "KeyRange"]:
        """Split into ``[start, at)`` and ``[at, end)``.

        ``at`` must lie strictly inside the range (and differ from
        ``start``), otherwise one half would be empty.
        """
        if at == self.start or (not self.is_full and at not in self):
            raise ValueError(f"split point {at} not strictly inside {self}")
        return (
            KeyRange(self.space, self.start, at),
            KeyRange(self.space, at, self.end),
        )

    def iter_keys(self) -> Iterator[int]:
        """Iterate every key in the arc (for tiny spaces in tests only)."""
        key = self.start
        for _ in range(len(self)):
            yield key
            key = self.space.add(key, 1)

    def __repr__(self) -> str:
        return f"[{self.start}~{self.end})"


DEFAULT_SPACE = HashSpace(2**64)
"""The space experiments run on unless they override it."""
