"""Job schedulers (paper §II-E, §II-F).

* :mod:`repro.scheduler.partition` -- equally-probable hash-key-range
  partitions of the key space (the scheduler's hash key table).
* :mod:`repro.scheduler.histogram` -- the box-kernel-density access
  histogram and exponential moving average behind Algorithm 1.
* :mod:`repro.scheduler.base` -- the scheduling interface shared by the
  functional engine and the performance model.
* :mod:`repro.scheduler.laf` -- the locality-aware fair scheduler
  (Algorithm 1).
* :mod:`repro.scheduler.delay` -- the EclipseMR variant of Spark's delay
  scheduling used as the paper's baseline.
* :mod:`repro.scheduler.fair` -- a Hadoop-style locality-preference fair
  scheduler for the Hadoop baseline model.
* :mod:`repro.scheduler.factory` -- ``"laf"`` / ``"delay"`` to a scheduler
  class, for every plane that takes a scheduler by name.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SpacePartition",
    "AccessHistogram",
    "MovingAverageDistribution",
    "Assignment",
    "Scheduler",
    "LAFScheduler",
    "DelayScheduler",
    "FairScheduler",
    "scheduler_class",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.scheduler.partition": ("SpacePartition",),
    "repro.scheduler.histogram": ("AccessHistogram", "MovingAverageDistribution"),
    "repro.scheduler.base": ("Assignment", "Scheduler"),
    "repro.scheduler.laf": ("LAFScheduler",),
    "repro.scheduler.delay": ("DelayScheduler",),
    "repro.scheduler.fair": ("FairScheduler",),
    "repro.scheduler.factory": ("scheduler_class",),
})
