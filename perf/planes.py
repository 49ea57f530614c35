"""The rungs of the ladder and the closed loop that measures them.

A *plane* runs the workload's jobs: the sequential ``EclipseMRRuntime``,
the thread-pool ``ParallelEclipseMRRuntime``, or a ``ClusterRuntime`` of
real worker processes.  :func:`measure` drives one plane the way its
callers do -- a closed loop from one generator thread, the next batch
sent only when the previous one has returned -- checks every output
against the workload's reference, and keeps each job's ``JobStats`` so
the planes can be compared with each other.

**Calibrated seconds on one core.**  The sandboxes this benchmark runs
in change CPU speed by a factor of up to three for seconds at a time,
each core on its own (identical work, same process: CPU time itself
moves with wall time, and no steal time is accounted).  So a pass
confines itself and the workers it spawns to one core
(:func:`one_core`), times a fixed pure-Python loop between every two
batches of jobs, and scales each batch's times by ``CAL_REF_S / that
loop's time``: numbers are seconds *at the reference box's quiet speed*,
and a plane's time is its total work, not its parallel wall.  The raw
medians are kept beside them (``raw_job_s``).  Only the cluster's stop,
a fixed wait, is reported raw.
"""

from __future__ import annotations

import functools
import multiprocessing
import multiprocessing.resource_tracker
import os
import random
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.cluster.runtime import ClusterRuntime
from repro.mapreduce.job import JobStats
from repro.mapreduce.parallel import ParallelEclipseMRRuntime
from repro.mapreduce.runtime import EclipseMRRuntime
from repro.scheduler.laf import LAFScheduler

from perf.workloads import JOB_TIMEOUT_S, Workload

__all__ = [
    "CAL_REF_S",
    "calibrate",
    "cal_scale",
    "timed_calibrated",
    "LocalPlane",
    "ClusterPlane",
    "Measured",
    "measure",
    "percentile_hi",
    "one_core",
    "kill_leftover_workers",
    "stop_resource_tracker",
    "peak_rss_mb",
    "workers_peak_rss_mb",
]

CAL_INT_ITERS = 450_000
CAL_TABLE_KEYS = 60_000
CAL_LOOKUPS = 14_000
CAL_REF_S = 0.024
"""What :func:`calibrate` takes on the reference box when it is quiet."""


@functools.cache
def _cal_table() -> tuple[dict[str, int], list[str]]:
    """A dict too big for the caches and a fixed random walk over it."""
    table = {f"key{i:07d}": i for i in range(CAL_TABLE_KEYS)}
    order = random.Random(0).sample(list(table), CAL_LOOKUPS)
    return table, order


def calibrate() -> float:
    """Time the fixed calibration loop once (~25 ms: long enough that one
    scheduling hiccup does not decide the sample).

    About three quarters of it is integer arithmetic and one quarter is
    cache-missing dict lookups: when the sandbox slows down, jobs (dicts,
    pickling, hashing) slow down more than arithmetic alone does, and
    this blend followed them best (see ``perf/README.md``, Noise floor).
    """
    table, order = _cal_table()
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_INT_ITERS):
        acc += i * i
    for key in order:
        acc += table[key]
    return time.perf_counter() - start


def cal_scale(before: float, after: float) -> float:
    """Factor from raw to calibrated seconds for work done between two
    calibration samples."""
    return CAL_REF_S / ((before + after) / 2.0)


def timed_calibrated(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run ``fn`` between two calibration samples.

    Returns ``(value, raw seconds, scale)``; ``raw * scale`` is the time
    in calibrated seconds.
    """
    before = calibrate()
    start = time.perf_counter()
    value = fn()
    raw = time.perf_counter() - start
    return value, raw, cal_scale(before, calibrate())


# -- planes ------------------------------------------------------------------------


class LocalPlane:
    """The sequential or the thread plane, in this process."""

    def __init__(self, kind: str, workload: Workload, workers: int) -> None:
        self.kind = kind
        if kind == "seq":
            self.runtime = EclipseMRRuntime(workers, config=workload.config())
        else:
            self.runtime = ParallelEclipseMRRuntime(
                workers, config=workload.config(), max_workers=workers)
        for name, data in workload.inputs.items():
            self.runtime.upload(name, data)

    @property
    def scheduler(self):
        return self.runtime.scheduler

    def run_batch(self, jobs: list, window: int) -> list[tuple[Any, dict]]:
        """Run the batch's jobs one after the other (a local plane has no
        concurrent submission); ``(JobResult | exception, timing)`` each,
        the timing shaped like ``JobHandle.metrics()``."""
        out = []
        for job in jobs:
            start = time.perf_counter()
            try:
                result: Any = self.runtime.run(job)
            except Exception as exc:  # a failed job is counted, not fatal
                result = exc
            seconds = time.perf_counter() - start
            out.append((result, {"queue_wait_s": 0.0, "run_s": seconds,
                                 "makespan_s": seconds}))
        return out


class ClusterPlane:
    """A ``ClusterRuntime`` whose start, upload and stop are timed."""

    kind = "cluster"

    def __init__(self, workload: Workload, workers: int) -> None:
        start = time.perf_counter()
        self.runtime = ClusterRuntime(workers, config=workload.config())
        self.start_s = time.perf_counter() - start
        try:
            start = time.perf_counter()
            for name, data in workload.inputs.items():
                self.runtime.upload(name, data)
            self.upload_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise
        self.stop_s: Optional[float] = None
        self.worker_rss_mb = 0.0

    @property
    def scheduler(self):
        return self.runtime.coordinator.scheduler

    def run_batch(self, jobs: list, window: int) -> list[tuple[Any, dict]]:
        """Keep ``window`` jobs in flight from this one thread until the
        batch is done; ``(JobResult | exception, JobHandle.metrics())``
        each (``makespan_s`` is submit->result)."""
        handles: list = []
        out: list[tuple[Any, dict]] = []
        pending = list(jobs)
        while pending or handles:
            while pending and len(handles) < window:
                handles.append(self.runtime.submit(pending.pop(0)))
            handle = handles.pop(0)
            try:
                result: Any = handle.result(timeout=JOB_TIMEOUT_S)
            except Exception as exc:  # includes TimeoutError
                result = exc
                handle.cancel()
            out.append((result, handle.metrics()))
        return out

    def stop(self) -> float:
        self.worker_rss_mb = workers_peak_rss_mb()
        start = time.perf_counter()
        try:
            self.runtime.shutdown()
        finally:
            kill_leftover_workers()
        self.stop_s = time.perf_counter() - start
        return self.stop_s

    def counters(self) -> dict[str, float]:
        """Counters summed over the workers plus the coordinator's own."""
        total: dict[str, float] = dict(self.runtime.metrics.snapshot())
        for stats in self.runtime.worker_stats().values():
            for name, value in stats.items():
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    total[name] = total.get(name, 0) + value
        return total


@contextmanager
def one_core() -> Iterator[Optional[int]]:
    """Confine this process, and every worker it spawns meanwhile, to one
    core; yields the core (``None`` where the platform cannot pin).

    The sandbox's cores change speed independently of each other, so the
    calibration loop only tells the speed of work it shares a core with.
    On one core a plane's time is its total work: parallel speed-up is
    not measured (``scheduler.task_skew`` tracks how evenly tasks spread).
    """
    if not hasattr(os, "sched_setaffinity"):
        yield None
        return
    allowed = os.sched_getaffinity(0)
    core = max(allowed)
    os.sched_setaffinity(0, {core})
    try:
        yield core
    finally:
        os.sched_setaffinity(0, allowed)


def kill_leftover_workers() -> int:
    """Kill any ``eclipsemr-*`` child still alive (a shutdown that failed)."""
    killed = 0
    for proc in multiprocessing.active_children():
        if proc.name.startswith("eclipsemr-"):
            proc.kill()
            proc.join(timeout=5.0)
            killed += 1
    return killed


def stop_resource_tracker(patience_s: float = 5.0) -> None:
    """Stop the ``multiprocessing`` resource tracker and wait until it has ended.

    Spawning the first worker starts it as a child of this process; left
    alone it ends only *after* this process has, when its pipe closes, so
    a run would leave a process behind.  Call this when every worker is
    gone (workers hold the other ends of that pipe).
    """
    tracker = multiprocessing.resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None:
        return  # never started
    os.close(fd)  # end of input is what makes it exit
    if pid is None:
        return  # started by another process, which waits for it
    deadline = time.monotonic() + patience_s
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.005)
    except ChildProcessError:
        pass  # already reaped


def workers_peak_rss_mb() -> float:
    """Largest peak RSS (``VmHWM``) among the live ``eclipsemr-*`` children.

    Not ``RUSAGE_CHILDREN``: that also counts a child's image between
    fork and exec, which is a copy of this process, so it can never read
    lower than the benchmark's own RSS at spawn time.
    """
    peaks = [0.0]
    for proc in multiprocessing.active_children():
        if proc.name.startswith("eclipsemr-"):
            try:
                status = Path(f"/proc/{proc.pid}/status").read_text()
            except OSError:
                continue  # it exited meanwhile
            peaks += [int(line.split()[1]) / 1024.0
                      for line in status.splitlines() if line.startswith("VmHWM:")]
    return max(peaks)


def peak_rss_mb(who: int) -> float:
    """``ru_maxrss`` (KiB on Linux) of ``resource.RUSAGE_SELF`` / ``_CHILDREN``."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- the closed loop -----------------------------------------------------------------


@dataclass
class Measured:
    """What one plane's measured phase produced."""

    job_s: list[float] = field(default_factory=list)
    """Calibrated seconds of every measured job."""
    raw_job_s: list[float] = field(default_factory=list)
    queue_wait_s: list[float] = field(default_factory=list)
    run_s: list[float] = field(default_factory=list)
    driver_rss_mb: list[float] = field(default_factory=list)
    """Peak RSS of this process when each measured job had returned."""
    phase_s: float = 0.0
    """Calibrated wall of the measured phase (sum over batches)."""
    input_bytes: int = 0
    stats: list[JobStats] = field(default_factory=list)
    """``JobStats`` by job index, warm-up included (cross-plane check)."""
    attempted: int = 0
    failed: int = 0
    first_job_s: float = 0.0
    """Calibrated seconds of the very first (cold) job."""
    errors: list[str] = field(default_factory=list)

    @property
    def median_s(self) -> float:
        return statistics.median(self.job_s)

    @property
    def mb_per_s(self) -> float:
        return self.input_bytes / 1e6 / self.phase_s


def percentile_hi(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; the
    maximum when that percentile would lie below the median (fewer than
    21 samples)."""
    ordered = sorted(samples)
    return ordered[len(ordered) - 11] if len(ordered) >= 21 else ordered[-1]


def warmup_jobs(workload: Workload, plane) -> int:
    """Jobs to run before timing.

    One job fills the iCache.  The LAF scheduler then re-cuts its hash
    key table after ``window_tasks`` map tasks, which moves tasks between
    workers once and stays put afterwards; timing starts in that steady
    state, one job after the first re-cut.
    """
    scheduler = plane.scheduler
    if not isinstance(scheduler, LAFScheduler):
        return 1
    maps_per_job = min(-(-len(data) // workload.block_size)
                       for data in workload.inputs.values())
    return -(-scheduler.config.window_tasks // maps_per_job) + 1


def measure(workload: Workload, plane, *, budget_s: float = 0.0, min_jobs: int = 1,
            max_jobs: Optional[int] = None, warmup: Optional[int] = None,
            on_measured_start: Optional[Callable[[], None]] = None) -> Measured:
    """Warm the plane up (:func:`warmup_jobs` unless ``warmup`` says how
    many), then run calibrated batches of the workload's jobs until
    ``budget_s`` has passed and ``min_jobs`` are done (or exactly
    ``max_jobs``), checking every output against the reference."""
    out = Measured()
    state = workload.initial_state()
    index = 0
    cal = 0.0

    def run_batch(count: int, timed: bool) -> None:
        nonlocal state, index, cal
        jobs, expectations = [], []
        for _ in range(count):
            jobs.append(workload.job(index, state, plane.kind))
            expected = workload.expected(index, state)
            expectations.append((index, expected))
            state = workload.next_state(state, expected)
            index += 1
        start = time.perf_counter()
        results = plane.run_batch(jobs, workload.window)
        raw_wall = time.perf_counter() - start
        rss_mb = peak_rss_mb(resource.RUSAGE_SELF)
        # One sample between two batches serves both of them.
        before, cal = cal, calibrate()
        scale = cal_scale(before, cal)
        if timed:
            out.phase_s += raw_wall * scale
        for (i, expected), (result, timing) in zip(expectations, results):
            seconds = timing["makespan_s"]
            out.attempted += 1
            if i == 0:
                out.first_job_s = seconds * scale
            if isinstance(result, Exception):
                out.failed += 1
                out.errors.append(f"{plane.kind} job {i}: {result!r}")
                out.stats.append(JobStats())
                continue
            if not workload.matches(result.output, expected):
                out.failed += 1
                out.errors.append(f"{plane.kind} job {i}: output differs from the reference")
            out.stats.append(result.stats)
            if timed:
                out.job_s.append(seconds * scale)
                out.raw_job_s.append(seconds)
                out.queue_wait_s.append(timing["queue_wait_s"] * scale)
                out.run_s.append(timing["run_s"] * scale)
                out.driver_rss_mb.append(rss_mb)
                out.input_bytes += len(workload.inputs[workload.input_of(i)])

    if workload.window > 1 and workload.initial_state() is not None:
        raise ValueError("a stateful job sequence cannot overlap its jobs")
    if warmup is None:
        warmup = warmup_jobs(workload, plane)
    cal = calibrate()
    while index < warmup:
        run_batch(min(workload.batch, warmup - index), timed=False)
    if on_measured_start is not None:
        on_measured_start()
    started = time.perf_counter()
    while True:
        done = len(out.job_s)
        if max_jobs is not None:
            if done >= max_jobs:
                break
        elif done >= min_jobs and time.perf_counter() - started >= budget_s:
            break
        count = workload.batch if max_jobs is None else min(workload.batch, max_jobs - done)
        run_batch(count, timed=True)
        if not out.job_s and out.failed:
            break  # nothing succeeds: do not spin until the watchdog fires
    return out
