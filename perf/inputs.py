"""Seeded input generators owned by the benchmark.

Nothing here imports ``repro``: a later change to
``repro.apps.workloads`` cannot move a benchmark workload, and the
program under test receives only the bytes made here.  Every record has
a fixed width, so a workload's input size and block count are the same
for every seed and throughput numbers of different seeds compare.

``numpy.random.RandomState`` is used because its stream is frozen across
NumPy versions; the same seed gives the same bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "pack_records",
    "zipf_words",
    "uniform_word_records",
    "point_records",
    "describe",
]


def _rng(seed: int, stream: str) -> np.random.RandomState:
    """An independent stream per (seed, purpose)."""
    digest = hashlib.sha256(f"{seed}/{stream}".encode()).digest()
    return np.random.RandomState(int.from_bytes(digest[:4], "big"))


def pack_records(records: list[bytes], block_size: int) -> bytes:
    """Pack whole records into newline-padded blocks of ``block_size``.

    The DHT file system splits files at fixed byte offsets; padding each
    block keeps every record inside one block (record-aligned splits).
    """
    blocks: list[bytearray] = [bytearray()]
    for rec in records:
        if len(rec) + 1 > block_size:
            raise ValueError(f"record of {len(rec)} bytes exceeds block size {block_size}")
        if len(blocks[-1]) + len(rec) + 1 > block_size:
            blocks[-1].extend(b"\n" * (block_size - len(blocks[-1])))
            blocks.append(bytearray())
        blocks[-1].extend(rec)
        blocks[-1].extend(b"\n")
    blocks[-1].extend(b"\n" * (block_size - len(blocks[-1])))
    return b"".join(bytes(b) for b in blocks)


def _vocabulary(size: int) -> np.ndarray:
    return np.array([f"w{i:05d}" for i in range(size)])


def zipf_words(seed: int, stream: str, *, num_words: int, vocab_size: int,
               words_per_line: int = 10) -> list[bytes]:
    """Lines of words whose rank-``r`` word has probability ~ ``1/r``."""
    rng = _rng(seed, stream)
    weights = 1.0 / np.arange(1, vocab_size + 1)
    picks = _vocabulary(vocab_size)[
        rng.choice(vocab_size, size=num_words, p=weights / weights.sum())
    ]
    return [
        " ".join(picks[i : i + words_per_line]).encode()
        for i in range(0, num_words, words_per_line)
    ]


def uniform_word_records(seed: int, stream: str, *, num_words: int,
                         vocab_size: int, words_per_record: int) -> list[bytes]:
    """Records of uniformly drawn words: almost every record is distinct."""
    rng = _rng(seed, stream)
    picks = _vocabulary(vocab_size)[rng.randint(0, vocab_size, size=num_words)]
    return [
        " ".join(picks[i : i + words_per_record]).encode()
        for i in range(0, num_words, words_per_record)
    ]


def point_records(seed: int, stream: str, *, num_points: int, dim: int,
                  num_clusters: int, spread: float = 0.05) -> tuple[list[bytes], np.ndarray]:
    """Comma-separated points around ``num_clusters`` centres.

    Returns the records and the initial centroids (``num_clusters``
    distinct points of the data set, chosen by the same seed).
    """
    rng = _rng(seed, stream)
    centers = rng.random_sample((num_clusters, dim))
    labels = rng.randint(0, num_clusters, size=num_points)
    data = centers[labels] + rng.normal(0.0, spread, size=(num_points, dim))
    records = [",".join(f"{x:+.6f}" for x in row).encode() for row in data]
    first = rng.choice(num_points, size=num_clusters, replace=False)
    initial = np.array(
        [[float(tok) for tok in records[i].split(b",")] for i in sorted(first)]
    )
    return records, initial


def describe(name: str, data: bytes, block_size: int) -> dict:
    """What the result file records about one input."""
    return {
        "name": name,
        "bytes": len(data),
        "blocks": -(-len(data) // block_size),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
