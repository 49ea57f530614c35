"""The EclipseMR MapReduce engine (functional plane).

An in-process reproduction of the paper's C++ prototype: real map and
reduce functions run against the DHT file system, the distributed
in-memory caches, and a pluggable scheduler.  The engine demonstrates the
*algorithmic* behaviour end-to-end -- block placement, LAF range shifts,
iCache/oCache reuse, proactive shuffle, task retry from persisted
intermediates -- while the discrete-event plane (:mod:`repro.perfmodel`)
reproduces the timing results.

* :mod:`repro.mapreduce.job` -- job and task descriptions.
* :mod:`repro.mapreduce.shuffle` -- proactive shuffle: per-range spill
  buffers pushed to reducer-side servers while maps run.
* :mod:`repro.mapreduce.task` -- the one map task body and the one
  reduce task body, shared by every execution plane.
* :mod:`repro.mapreduce.runtime` -- the in-process job lifecycle
  (sequential phases); :mod:`repro.mapreduce.parallel` overrides its two
  phases with thread-pool compute.
* :mod:`repro.mapreduce.iterative` -- the iterative-job driver with
  oCache-backed iteration outputs.
* :mod:`repro.mapreduce.api` -- the user-facing :class:`EclipseMR` facade.
"""

from repro._lazy import lazy_exports

__all__ = [
    "MapReduceJob",
    "JobResult",
    "JobStats",
    "SpillBuffer",
    "IntermediateStore",
    "run_map_task",
    "reduce_pairs",
    "EclipseMRRuntime",
    "ParallelEclipseMRRuntime",
    "FailureInjector",
    "Worker",
    "IterativeDriver",
    "IterationResult",
    "EclipseMR",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.mapreduce.job": ("JobResult", "JobStats", "MapReduceJob"),
    "repro.mapreduce.shuffle": ("IntermediateStore", "SpillBuffer"),
    "repro.mapreduce.task": ("reduce_pairs", "run_map_task"),
    "repro.mapreduce.runtime": ("EclipseMRRuntime", "FailureInjector", "Worker"),
    "repro.mapreduce.parallel": ("ParallelEclipseMRRuntime",),
    "repro.mapreduce.iterative": ("IterativeDriver", "IterationResult"),
    "repro.mapreduce.api": ("EclipseMR",),
})
