"""Cross-plane validation: do the two planes agree where they overlap?

The functional engine and the performance model share the algorithm code
(ring, caches, schedulers) but execute through different machinery.  For
quantities that do not depend on timing -- scheduler assignment spread,
cache hit counts on a repeated workload, block placement -- the two planes
must agree.  :func:`compare_planes` runs the same logical workload through
both and reports the overlap, giving the performance results a correctness
anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.config import CacheConfig, ClusterConfig, DFSConfig, SchedulerConfig
from repro.common.units import GB, KB, MB
from repro.mapreduce.api import EclipseMR
from repro.perfmodel.engine import PerfEngine, SimJobSpec
from repro.perfmodel.framework import eclipse_framework
from repro.perfmodel.placement import dht_layout
from repro.perfmodel.profiles import APP_PROFILES

__all__ = ["PlaneComparison", "compare_planes"]


@dataclass
class PlaneComparison:
    """Agreement metrics between the functional and performance planes."""

    functional_hit_ratio: float
    simulated_hit_ratio: float
    functional_assignment_cv: float
    simulated_assignment_cv: float
    functional_repartitions: int
    simulated_repartitions: int

    @property
    def hit_ratio_gap(self) -> float:
        return abs(self.functional_hit_ratio - self.simulated_hit_ratio)

    @property
    def cv_gap(self) -> float:
        return abs(self.functional_assignment_cv - self.simulated_assignment_cv)


def _cv(counts) -> float:
    arr = np.array(list(counts), dtype=float)
    return float(arr.std() / arr.mean()) if arr.mean() else 0.0


def compare_planes(
    num_workers: int = 8,
    blocks: int = 24,
    repeats: int = 3,
    scheduler: str = "laf",
) -> PlaneComparison:
    """Run `repeats` identical scans of one dataset through both planes.

    The functional plane runs a real grep over synthetic text; the
    performance plane runs the equivalent block workload.  Because both
    use the same scheduler code and an iCache big enough for the dataset,
    hit counts after warmup and assignment spreads should line up.
    """
    # -- functional plane -----------------------------------------------------
    block_size = 8 * KB
    func_config = ClusterConfig(
        num_nodes=num_workers,
        rack_size=max(1, num_workers // 2),
        dfs=DFSConfig(block_size=block_size),
        cache=CacheConfig(capacity_per_server=4 * MB, icache_fraction=1.0),
        scheduler=SchedulerConfig(window_tasks=16, num_bins=256),
    )
    # Server ids chosen so both planes hash to the *same ring positions*
    # ("node-i" here; the engine places integer i at key_of("node-i")).
    mr = EclipseMR(
        workers=[f"node-{i}" for i in range(num_workers)],
        scheduler=scheduler,
        config=func_config,
    )
    from repro.apps.workloads import pack_records, text_corpus

    lines = text_corpus(3, num_words=blocks * 1400, vocab_size=100)
    data = pack_records(lines, block_size)[: blocks * block_size]
    mr.upload("corpus", data)
    actual_blocks = mr.runtime.dfs.stat("corpus").num_blocks
    for r in range(repeats):
        mr.map_reduce(
            f"scan-{r}", "corpus",
            map_fn=lambda b: ((w, 1) for w in b.decode().split()),
            reduce_fn=lambda w, c: sum(c),
        )
    func_stats = mr.cache_stats()
    func_hit = func_stats.icache_hits / max(1, func_stats.icache_hits + func_stats.icache_misses)
    func_cv = _cv(mr.scheduler.assigned_counts.values())
    func_reparts = getattr(mr.scheduler, "repartition_count", 0)

    # -- performance plane -----------------------------------------------------
    sim_config = ClusterConfig(
        num_nodes=num_workers,
        rack_size=max(1, num_workers // 2),
        map_slots_per_node=4,
        reduce_slots_per_node=4,
        dfs=DFSConfig(block_size=128 * MB),
        cache=CacheConfig(capacity_per_server=2 * GB, icache_fraction=1.0),
        scheduler=SchedulerConfig(window_tasks=16, num_bins=256),
        page_cache_per_node=2 * GB,
    )
    # Same scheduler configuration and the same *file name*: block hash
    # keys depend on (name, index) only, so both planes schedule the
    # identical key sequence.
    engine = PerfEngine(sim_config, eclipse_framework(scheduler, sim_config.scheduler))
    # Mirror the functional plane exactly: same file name, same block count.
    layout = dht_layout(engine.space, engine.ring, "corpus", actual_blocks, 128 * MB)
    for r in range(repeats):
        engine.run_job(
            SimJobSpec(app=APP_PROFILES["grep"], tasks=layout, label=f"scan-{r}")
        )
    sim_stats = engine.dcache.stats()
    sim_hit = sim_stats.icache_hits / max(1, sim_stats.icache_hits + sim_stats.icache_misses)
    per_server = {s: 0 for s in range(num_workers)}
    for s, c in engine.scheduler.assigned_counts.items():
        per_server[s] += c
    sim_cv = _cv(per_server.values())
    sim_reparts = getattr(engine.scheduler, "repartition_count", 0)

    return PlaneComparison(
        functional_hit_ratio=func_hit,
        simulated_hit_ratio=sim_hit,
        functional_assignment_cv=func_cv,
        simulated_assignment_cv=sim_cv,
        functional_repartitions=func_reparts,
        simulated_repartitions=sim_reparts,
    )
