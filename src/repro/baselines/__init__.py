"""Baseline system models: HDFS, Hadoop 2.5 and Spark 1.2.

The paper evaluates EclipseMR against Hadoop and Spark; this package is
the one import home for everything specific to those baselines:

* :mod:`repro.baselines.hdfs` -- the centralized-NameNode file system
  model (metadata serialization, rack-aware replica placement).
* ``hadoop_framework`` -- the Hadoop 2.5 framework model: a ~7 s YARN
  container per task, every metadata lookup through the NameNode, fair
  scheduling with locality levels, disk-backed pull shuffle, no input
  caching, and 3-replica pipelined output writes (§III-E).
* ``spark_framework`` -- the Spark 1.2 framework model: cheap task
  launch but RDD construction on the first iteration, an executor-memory
  RDD cache placed by delay scheduling, in-memory shuffle, and iteration
  outputs kept in memory until the final one is written (§II-F, §III-E,
  §III-F).

Both framework descriptors are defined in :mod:`repro.perfmodel.framework`,
where the engine consumes them.
"""

from repro._lazy import lazy_exports

__all__ = [
    "NameNodeModel",
    "hdfs_block_layout",
    "hadoop_framework",
    "spark_framework",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.baselines.hdfs": ("NameNodeModel", "hdfs_block_layout"),
    "repro.perfmodel.framework": ("hadoop_framework", "spark_framework"),
})
