"""The performance plane: MapReduce jobs on the discrete-event cluster.

The functional plane proves what EclipseMR computes; this package
reproduces how long the paper's systems take.  Jobs become discrete-event
processes that contend for map/reduce slots, a single HDD per node, the
OS page cache, and a two-level network -- with per-framework overheads
(YARN containers, NameNode lookups, RDD construction) layered on top.

* :mod:`repro.perfmodel.profiles` -- per-application cost profiles
  (CPU per byte, shuffle ratio, iteration output size).
* :mod:`repro.perfmodel.framework` -- framework behaviour descriptors for
  EclipseMR (LAF / delay), Hadoop and Spark.
* :mod:`repro.perfmodel.placement` -- input block layouts (DHT hashing vs
  HDFS-style placement, including skewed layouts).
* :mod:`repro.perfmodel.engine` -- the job execution engine.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AppProfile",
    "APP_PROFILES",
    "FrameworkModel",
    "eclipse_framework",
    "hadoop_framework",
    "spark_framework",
    "BlockSpec",
    "dht_layout",
    "hdfs_layout",
    "skewed_task_keys",
    "JobTiming",
    "PerfEngine",
    "SimJobSpec",
    "TaskRecord",
    "TaskTrace",
    "gantt",
    "PlaneComparison",
    "compare_planes",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perfmodel.profiles": ("AppProfile", "APP_PROFILES"),
    "repro.perfmodel.framework": (
        "FrameworkModel",
        "eclipse_framework",
        "hadoop_framework",
        "spark_framework",
    ),
    "repro.perfmodel.placement": (
        "BlockSpec",
        "dht_layout",
        "hdfs_layout",
        "skewed_task_keys",
    ),
    "repro.perfmodel.engine": ("JobTiming", "PerfEngine", "SimJobSpec"),
    "repro.perfmodel.trace": ("TaskRecord", "TaskTrace", "gantt"),
    "repro.perfmodel.validation": ("PlaneComparison", "compare_planes"),
})
