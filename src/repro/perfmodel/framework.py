"""Framework behaviour descriptors.

One :class:`FrameworkModel` captures everything the engine needs to know
about how a framework runs a job -- per-task overheads, metadata path,
shuffle style, and caching behaviour.  The constants come from the paper's
own diagnosis of the baselines:

* Hadoop runs every task in a fresh YARN container costing **~7 seconds**
  of init/authentication per 128 MB block (§III-E, citing [16], [17]);
  metadata goes through the central NameNode; shuffle is disk-backed pull.
* Spark 1.2 launches tasks cheaply but pays to construct RDDs on the
  first iteration, keeps iteration outputs in memory (no fault-tolerance
  writes until the final output), uses delay scheduling, and its
  hash-based shuffle underperforms Hadoop's on sort (§III-E).
* EclipseMR is a lightweight C++ prototype: negligible task launch cost,
  decentralized DHT metadata, proactive push shuffle, and persistent
  iteration outputs (its fault-tolerance price on page rank).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from repro.common.config import SchedulerConfig
from repro.common.hashing import HashSpace
from repro.dht.ring import ConsistentHashRing
from repro.scheduler.base import Scheduler
from repro.scheduler.delay import DelayScheduler
from repro.scheduler.factory import scheduler_class
from repro.scheduler.fair import FairScheduler

__all__ = [
    "FrameworkModel",
    "eclipse_framework",
    "hadoop_framework",
    "spark_framework",
]

SchedulerFactory = Callable[[HashSpace, Sequence[Hashable], ConsistentHashRing], Scheduler]


@dataclass(frozen=True)
class FrameworkModel:
    """What the engine needs to know to run jobs "the X way"."""

    name: str
    scheduler_factory: SchedulerFactory

    task_overhead: float = 0.0
    """Seconds charged at the start of every map/reduce task (containers)."""

    job_overhead: float = 0.0
    """Seconds charged once per job submission."""

    metadata_central: bool = False
    """Metadata through a central NameNode (a shared resource) vs the DHT."""

    namenode_lookup_time: float = 0.02
    """NameNode service time per metadata operation (serialized)."""

    namenode_ops_per_task: int = 1
    """Metadata RPCs each task issues (open + block locate + commit for
    Hadoop; Spark resolves partitions once per stage)."""

    shuffle_mode: str = "proactive"
    """``proactive`` (push during map, EclipseMR), ``pull`` (disk-backed
    post-map fetch, Hadoop), or ``memory`` (in-memory map output fetched
    over the network, Spark)."""

    shuffle_inefficiency: float = 1.0
    """Multiplier on shuffle *transport* cost -- network bytes moved per
    intermediate byte (Spark 1.2's hash shuffle moves more small blocks
    than Hadoop's merged streams: > 1).  Reduce-side CPU is charged on the
    raw intermediate volume."""

    cache_input_blocks: bool = True
    """Whether input blocks are cached in memory after first use (iCache /
    RDD cache).  Hadoop 2.5 as configured in the paper: no."""

    compute_efficiency: float = 1.0
    """CPU throughput multiplier relative to the C++ profiles.  The paper
    credits its "faster C++ implementations" for part of the win over the
    JVM frameworks (§III-E); Hadoop and Spark run at ~0.5."""

    persist_iteration_outputs: bool = True
    """Write every iteration's output to the file system (EclipseMR,
    Hadoop) or keep it memory-resident until the last (Spark)."""

    rdd_build_rate: float = 0.0
    """Extra first-iteration cost in bytes/second (Spark RDD construction);
    0 disables."""

    replication: int = 2
    """Copies written per final-output block (incl. primary): both the DHT
    file system (predecessor+successor) and HDFS (pipeline) keep 3."""

    iteration_output_replication: int = 3
    """Copies per persisted iteration output: iteration outputs go through
    the DHT file system's normal replicated write (primary + predecessor +
    successor, §II-A) so a crashed job restarts "from the point of
    failure" (§II-B)."""

    def make_scheduler(
        self,
        space: HashSpace,
        servers: Sequence[Hashable],
        ring: ConsistentHashRing,
    ) -> Scheduler:
        return self.scheduler_factory(space, servers, ring)


def eclipse_framework(
    scheduler: str = "laf",
    scheduler_config: SchedulerConfig | None = None,
) -> FrameworkModel:
    """EclipseMR with the LAF or delay scheduler (any other name raises
    :class:`~repro.common.errors.SchedulingError`)."""
    cfg = scheduler_config or SchedulerConfig()
    cls = scheduler_class(scheduler)
    return FrameworkModel(
        name=f"eclipsemr-{scheduler}",
        scheduler_factory=lambda space, servers, ring: cls(space, list(servers), cfg, ring=ring),
        task_overhead=0.1,
        job_overhead=0.2,
        metadata_central=False,
        shuffle_mode="proactive",
        cache_input_blocks=True,
        persist_iteration_outputs=True,
        compute_efficiency=1.0,
        replication=3,
    )


def hadoop_framework(container_overhead: float = 7.0) -> FrameworkModel:
    """Hadoop 2.5: YARN containers, NameNode, disk-backed pull shuffle."""
    return FrameworkModel(
        name="hadoop",
        scheduler_factory=lambda space, servers, ring: FairScheduler(list(servers)),
        task_overhead=container_overhead,
        job_overhead=5.0,
        metadata_central=True,
        namenode_lookup_time=0.03,
        namenode_ops_per_task=3,
        shuffle_mode="pull",
        cache_input_blocks=False,
        persist_iteration_outputs=True,
        compute_efficiency=0.5,
        replication=3,
    )


def spark_framework(delay_wait: float = 5.0) -> FrameworkModel:
    """Spark 1.2: cheap tasks, RDD cache, delay scheduling, memory shuffle."""
    cfg = SchedulerConfig(delay_wait=delay_wait)
    return FrameworkModel(
        name="spark",
        scheduler_factory=lambda space, servers, ring: DelayScheduler(space, list(servers), cfg, ring=ring),
        task_overhead=0.2,
        job_overhead=2.0,
        metadata_central=True,
        namenode_lookup_time=0.01,
        shuffle_mode="memory",
        shuffle_inefficiency=1.0,
        cache_input_blocks=True,
        persist_iteration_outputs=False,
        compute_efficiency=0.5,
        rdd_build_rate=8 * 1024 * 1024,
        replication=3,
    )
