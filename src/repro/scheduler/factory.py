"""The EclipseMR schedulers by name: ``"laf"`` and ``"delay"``.

Every plane that takes a scheduler name -- the in-process runtimes, the
cluster coordinator and the performance model -- resolves it here, so
they accept the same names and reject the rest the same way.
"""

from __future__ import annotations

from repro.common.errors import SchedulingError
from repro.scheduler.base import Scheduler
from repro.scheduler.delay import DelayScheduler
from repro.scheduler.laf import LAFScheduler

__all__ = ["scheduler_class"]

_BY_NAME: dict[str, type[Scheduler]] = {"laf": LAFScheduler, "delay": DelayScheduler}


def scheduler_class(name: str) -> type[Scheduler]:
    """The scheduler class called ``name``; each is built as
    ``cls(space, servers, config, ring=ring)``.  Ring-seeded, LAF starts
    from the ring's ranges (the paper's starting state, keeping first
    reads node-local).  Raises :class:`SchedulingError` for any other
    name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise SchedulingError(f"unknown scheduler {name!r}") from None
