"""The deterministic fault-injection plane.

Faults are scripted as :class:`~repro.common.config.FaultRule` entries in
a :class:`~repro.common.config.ChaosConfig` (so they travel in the config
manifest to every worker process) and executed by a per-node
:class:`FaultInjector` hooked into the RPC transport seam.  The same
seed replays the same fault schedule -- failover tests assert on exact
recovery metrics instead of racing wall clocks.
"""

from repro._lazy import lazy_exports

__all__ = ["FaultInjector", "partition_rules"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.chaos.plane": ("FaultInjector", "partition_rules"),
})
