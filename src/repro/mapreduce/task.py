"""One map task and one reduce task, the same on every execution plane.

An EclipseMR task is a single procedure (paper §II-D): a map emits its
block's pairs into per-destination spill buffers, combines each spill
in the node (Lee et al.), and pushes it to the ring owner of its keys; a
reduce groups whatever landed on the server it runs on.  The sequential
plane, the thread plane and the cluster worker differ only in where a
spill is delivered, so they hand :func:`run_map_task` a ``deliver``
callable and run everything else here.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Hashable, Iterable

from repro.common.hashing import HashSpace
from repro.mapreduce.shuffle import SpillBuffer, combine_pairs

__all__ = ["run_map_task", "reduce_pairs"]


def run_map_task(
    job: Any,
    pairs: Iterable[tuple[Any, Any]],
    *,
    space: HashSpace,
    route: Callable[[int], Hashable],
    deliver: Callable[[Hashable, str, list[tuple[Any, Any]], int], None],
    index: int,
) -> SpillBuffer:
    """Emit one map task's ``pairs`` and flush; returns the flushed buffer.

    ``job`` supplies the spill threshold, the combiner and
    ``cross_spill_combine``.  Every spill is combined before
    ``deliver(dest, spill_id, pairs, nbytes)`` sees it, and a spill the
    combiner empties out is skipped -- never delivered, and counted in
    ``spills_skipped`` rather than ``spills`` or ``bytes_pushed``.  The
    buffer's ``spills`` / ``bytes_pushed`` / ``recombines`` are therefore
    this attempt's accounting, whichever plane ran it.  ``pairs`` is
    consumed lazily, one pair at a time.
    """
    combiner = job.combiner

    def deliver_combined(dest, spill_id, spilled, nbytes):
        spilled = combine_pairs(combiner, spilled)
        if not spilled:
            # Nothing to ship, cache or persist: a keyless spill object
            # at hash key 0 would shadow a real spill's slot.
            return False
        deliver(dest, spill_id, spilled, nbytes)
        return True

    spill = SpillBuffer(
        space=space,
        route=route,
        deliver=deliver_combined,
        threshold_bytes=job.spill_buffer_bytes,
        task_id=f"{job.app_id}/map{index}",
        combiner=combiner if job.cross_spill_combine else None,
    )
    emit = spill.emit
    for key, value in pairs:
        emit(key, value)
    spill.flush()
    return spill


def reduce_pairs(reduce_fn: Callable[[Any, list[Any]], Any],
                 pairs: Iterable[tuple[Any, Any]]) -> dict[Any, Any]:
    """One reduce task: group ``pairs`` by key in arrival order and reduce
    each group."""
    grouped: dict[Any, list[Any]] = defaultdict(list)
    for key, value in pairs:
        grouped[key].append(value)
    return {key: reduce_fn(key, values) for key, values in grouped.items()}
