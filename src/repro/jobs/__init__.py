"""Multi-job scheduling over one cluster: handles, policies, admission.

The :mod:`repro.cluster` plane executes one job at a time;
:class:`~repro.jobs.scheduler.JobScheduler` multiplexes many.  The usual
client shape::

    from repro.jobs import ClusterSession

    with ClusterSession(workers=4) as session:
        session.upload("corpus.txt", data)
        handles = session.submit_many([job_a, job_b, job_c])
        results = [h.result() for h in handles]
"""

from repro._lazy import lazy_exports

__all__ = [
    "ClusterSession",
    "DelayPolicy",
    "DispatchContext",
    "FairSharePolicy",
    "FifoPolicy",
    "InterJobPolicy",
    "JobHandle",
    "JobScheduler",
    "JobState",
    "make_policy",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.jobs.handle": ("JobHandle", "JobState"),
    "repro.jobs.policy": (
        "DelayPolicy",
        "DispatchContext",
        "FairSharePolicy",
        "FifoPolicy",
        "InterJobPolicy",
        "make_policy",
    ),
    "repro.jobs.scheduler": ("ClusterSession", "JobScheduler"),
})
