"""Discrete-event simulation substrate.

The paper's evaluation ran on a 40-node cluster; this package replaces that
testbed with a from-scratch discrete-event kernel plus calibrated hardware
models:

* :mod:`repro.sim.engine` -- event heap, generator-based processes,
  timeouts, condition events and interrupts (a compact SimPy-style kernel).
* :mod:`repro.sim.resources` -- FIFO/priority resources, stores and
  containers built on the kernel.
* :mod:`repro.sim.disk` -- a 7200 rpm HDD model (seek + streaming).
* :mod:`repro.sim.network` -- a two-level switched Ethernet with max-min
  fair bandwidth sharing (fluid-flow model).
* :mod:`repro.sim.pagecache` -- the OS page cache that makes the paper's
  "oCache does not help because iteration outputs sit in page cache"
  observation reproducible.
* :mod:`repro.sim.node` / :mod:`repro.sim.cluster` -- simulated servers and
  the whole platform.
* :mod:`repro.sim.metrics` -- counters and time series for experiments.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Simulation",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "Resource",
    "PriorityResource",
    "Store",
    "Container",
    "Disk",
    "Network",
    "Flow",
    "PageCache",
    "SimNode",
    "SimCluster",
    "Counter",
    "Gauge",
    "TimeSeries",
    "MetricsRegistry",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.engine": (
        "Simulation",
        "Event",
        "Timeout",
        "Process",
        "Interrupt",
        "AllOf",
        "AnyOf",
    ),
    "repro.sim.resources": ("Resource", "PriorityResource", "Store", "Container"),
    "repro.sim.disk": ("Disk",),
    "repro.sim.network": ("Network", "Flow"),
    "repro.sim.pagecache": ("PageCache",),
    "repro.sim.node": ("SimNode",),
    "repro.sim.cluster": ("SimCluster",),
    "repro.sim.metrics": ("Counter", "Gauge", "TimeSeries", "MetricsRegistry"),
})
