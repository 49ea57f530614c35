"""Baseline system models: HDFS, Hadoop 2.5 and Spark 1.2.

The paper evaluates EclipseMR against Hadoop and Spark; this package holds
everything specific to those baselines:

* :mod:`repro.baselines.hdfs` -- the centralized-NameNode file system
  model (metadata serialization, rack-aware replica placement).
* :mod:`repro.baselines.hadoop` -- the Hadoop 2.5 framework model: YARN
  container overheads, fair scheduling with locality levels, disk-backed
  pull shuffle.
* :mod:`repro.baselines.spark` -- the Spark 1.2 framework model: RDD
  caching, delay scheduling, in-memory shuffle, memory-resident iteration
  outputs.

The framework descriptors themselves live in
:mod:`repro.perfmodel.framework` (they are consumed by the engine); this
package re-exports them alongside the HDFS placement/NameNode helpers so
baseline-related code has one import home.
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
    "repro.baselines.hadoop": ("hadoop_framework",),
    "repro.baselines.spark": ("spark_framework",),
})
