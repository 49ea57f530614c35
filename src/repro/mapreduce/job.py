"""Job and result descriptions for the functional engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Optional

__all__ = ["MapReduceJob", "JobStats", "JobResult"]

MapFn = Callable[[bytes], Iterable[tuple[Any, Any]]]
ReduceFn = Callable[[Any, list[Any]], Any]
CombineFn = Callable[[Any, list[Any]], list[Any]]


@dataclass
class MapReduceJob:
    """A single MapReduce job.

    ``map_fn`` receives one input block's payload and yields ``(key,
    value)`` pairs; ``reduce_fn`` receives one intermediate key with all its
    values and returns the reduced value.  The ``reuse_*`` switches are
    EclipseMR's oCache controls: applications "choose to tag and store
    intermediate results from map tasks or job outputs for future reuse"
    (paper §I).
    """

    app_id: str
    input_file: str
    map_fn: MapFn
    reduce_fn: ReduceFn
    combiner: Optional[CombineFn] = None
    user: str = "user"

    cache_intermediates: bool = False
    """Tag this job's intermediate results in oCache for future jobs."""

    reuse_intermediates: bool = False
    """Skip map tasks whose tagged intermediates are already cached/stored."""

    intermediate_ttl: Optional[float] = None
    """TTL for the persisted intermediates (paper: app-set, default none)."""

    spill_buffer_bytes: int = 32 * 1024 * 1024
    """Per-range spill threshold; the paper uses 32 MB payload buffers."""

    cross_spill_combine: bool = False
    """Run the combiner *inside* the spill buffer, across spill
    boundaries: a full buffer is re-combined in place and only ships if
    it stays full, so duplicate keys collapse before a single byte
    leaves the mapper (requires ``combiner``; a no-op without one).
    Off by default -- the spill sequence and ``bytes_shuffled`` change
    (shrink) when enabled, identically on every plane."""

    def __post_init__(self) -> None:
        if not self.app_id:
            raise ValueError("app_id must be non-empty")
        if self.spill_buffer_bytes <= 0:
            raise ValueError("spill buffer must be positive")

    def intermediate_tag(self, block_index: int) -> str:
        """The oCache tag for one map task's output."""
        return f"{self.input_file}#map{block_index}"


@dataclass
class JobStats:
    """What happened while a job ran (the functional plane's metrics)."""

    map_tasks: int = 0
    reduce_tasks: int = 0
    maps_skipped_by_reuse: int = 0
    icache_hits: int = 0
    icache_misses: int = 0
    ocache_hits: int = 0
    ocache_misses: int = 0
    local_block_reads: int = 0
    remote_block_reads: int = 0
    bytes_shuffled: int = 0
    spills: int = 0
    spill_recombines: int = 0
    task_retries: int = 0
    tasks_per_server: dict[Hashable, int] = field(default_factory=dict)

    @property
    def cache_hit_ratio(self) -> float:
        hits = self.icache_hits + self.ocache_hits
        total = hits + self.icache_misses + self.ocache_misses
        return hits / total if total else 0.0


@dataclass
class JobResult:
    """Reduce outputs plus run statistics."""

    app_id: str
    output: dict[Any, Any]
    stats: JobStats
