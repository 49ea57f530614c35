"""The multi-job cluster scheduler: many clients, one cluster.

:class:`JobScheduler` owns a :class:`~repro.cluster.runtime.ClusterRuntime`
and multiplexes any number of MapReduce jobs over its workers.  Clients
``submit(job)`` and get a :class:`~repro.jobs.handle.JobHandle` back;
internally one scheduler thread runs an event loop:

* submissions enter a bounded admission queue (``jobs.max_queued_jobs``;
  a full queue raises :class:`~repro.common.errors.JobRejected`) and are
  *activated* in submission order up to ``jobs.max_active_jobs``;
* activation draws the job's **entire** map assignment vector from the
  cluster's one shared LAF scheduler under
  :meth:`~repro.scheduler.base.Scheduler.at_zero_load` -- jobs draw in
  submission order, so the assignment sequence is deterministic no
  matter how their tasks later interleave, and a single submitted job
  sees exactly the draws the legacy blocking ``run()`` made (bit-equal
  outputs and ``tasks_per_server``);
* a ready queue of ``(job, task)`` units is drained by the pluggable
  :class:`~repro.jobs.policy.InterJobPolicy` seam (FIFO, fair share,
  delay) and dispatched through the pipelined ``call_async`` RPC layer
  under a global in-flight cap (``jobs.max_inflight_tasks``); RPC
  completion callbacks post events back to the loop, which records
  results and re-enqueues downstream work (reduce waves, replay chains);
* worker-death evidence (failed transports, RPC timeouts, missed
  heartbeats while jobs are active) pauses dispatch, drains the
  in-flight window -- late successes still count, they are salvage
  candidates -- then rides the existing surgical failover
  (``runtime._failover``) once per victim, spending one failover-budget
  unit *per affected job*; each surviving job then re-plans exactly like
  the legacy recovery (salvage / doom / re-draw);
* one job's mapper raising, or the job being cancelled, resolves only
  that job's handle -- other in-flight jobs are untouched (failure
  isolation);
* with ``spec.enabled``, map attempts running past ``spec.slow_factor``
  times the job's median map service time get a **speculative backup
  copy** on the least-loaded eligible worker (spare slots only); the
  first finisher wins, the loser limps home as a *zombie* whose late
  spill deliveries the attempt-numbered reduce-side stores reject or
  retract -- and a straggler's timeout while another attempt lives is
  *slowness* evidence for the health plane, never death evidence;
* with ``health.enabled``, the coordinator's :class:`HealthMonitor`
  quarantines gray-failing workers (slow heartbeat round trips, outrun
  attempts, RPC timeouts): quarantined workers get no new map
  dispatches but keep serving reads, pushes, and their reduce shard,
  and recover by score decay with hysteresis.

``ClusterSession`` wraps a runtime + scheduler as a context manager for
the common many-jobs-one-cluster client shape.
"""

from __future__ import annotations

import heapq
import itertools
import queue
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Optional, Sequence

from repro.common.errors import (
    ClusterError,
    JobCancelled,
    JobRejected,
    NetworkError,
    RpcConnectionError,
    RpcRemoteError,
    WorkerLost,
)
from repro.cluster.messages import CompletionMarker, encode_job, reassemble_reduce
from repro.jobs.handle import JobHandle, JobState
from repro.jobs.policy import DispatchContext, InterJobPolicy, make_policy
from repro.mapreduce.job import JobResult, JobStats, MapReduceJob
from repro.sim.metrics import ServiceTimeTracker

__all__ = ["JobScheduler", "ClusterSession"]


class _MapOutcome:
    """One completed map task's final record: who ran it, what it
    returned, which attempt produced it, and (the salvage criterion)
    which workers hold its spills."""

    __slots__ = ("desc", "server", "result", "manifest", "dests", "attempt")

    def __init__(self, desc: Any, server: str, result: dict,
                 attempt: int = 0) -> None:
        self.desc = desc
        self.server = server
        self.result = result
        self.attempt = attempt
        self.manifest = tuple(tuple(e) for e in result.get("manifest") or ())
        self.dests = frozenset(dest for dest, _, _ in self.manifest)


class _MapTracker:
    """Per-job map progress: final outcome per block plus monotone counts.

    ``completed`` maps block index -> :class:`_MapOutcome` and always
    holds the *current* surviving outcome (recovery pops doomed entries,
    re-execution overwrites them).  ``maps_run`` / ``replays`` count every
    execution ever finished -- including doomed ones -- so the chaos hooks
    see a monotone sequence; ``reexecuted`` counts completed maps that
    recovery had to throw away (this becomes ``JobStats.task_retries``).
    """

    def __init__(self, blocks: Sequence[Any], initial_alive: Sequence[str]) -> None:
        self.blocks = list(blocks)
        self.initial_alive = list(initial_alive)
        self.completed: dict[int, _MapOutcome] = {}
        self.maps_run = 0
        self.replays = 0
        self.reexecuted = 0
        # block index -> next attempt number.  Every *execution* of a
        # block (first run, post-failover re-execution, speculative
        # copy) draws a fresh monotone number; spill deliveries carry
        # it, so the reduce-side stores can tell a fresh result from a
        # late duplicate of an abandoned one.
        self._attempts: dict[int, int] = {}

    def next_attempt(self, index: int) -> int:
        n = self._attempts.get(index, 0)
        self._attempts[index] = n + 1
        return n

    def record(self, desc: Any, server: str, result: dict,
               attempt: int = 0) -> None:
        self.completed[desc.index] = _MapOutcome(desc, server, result, attempt)
        if result.get("replayed"):
            self.replays += 1
        else:
            self.maps_run += 1


class _FailoverBudget:
    """How many worker deaths one job will absorb before giving up.

    One failover per spare worker at job start: a job beginning with N
    live workers survives N-1 deaths (each recovery needs at least one
    survivor to land on) and fails with :class:`ClusterError` on the
    Nth."""

    def __init__(self, app_id: str, limit: int) -> None:
        self.app_id = app_id
        self.limit = limit
        self.spent_count = 0

    def spend(self, lost: WorkerLost) -> None:
        self.spent_count += 1
        if self.spent_count > self.limit:
            raise ClusterError(
                f"job {self.app_id!r} lost {self.spent_count} workers"
                f" (budget {self.limit}); giving up"
            ) from lost


class _Task:
    """One dispatchable unit of one job: a map block or a reduce shard."""

    __slots__ = ("jr", "kind", "desc", "wid", "mode", "marker", "groups",
                 "dest_idx", "applied", "acc", "ready_since", "wait_limit",
                 "reassign", "running", "won", "winner_sids")

    def __init__(self, jr: "_JobRun", kind: str, wid: str,
                 desc: Any = None, wait_limit: Optional[float] = None) -> None:
        self.jr = jr
        self.kind = kind          # "map" | "reduce"
        self.desc = desc
        self.wid = wid            # assigned worker (maps) / reduce shard owner
        self.mode: Optional[str] = None    # None | "map" | "replay"
        self.marker = None        # the CompletionMarker a replay is driven by
        self.groups: list = []    # replay chain: [(dest, [(spill_id, nbytes)])]
        self.dest_idx = 0
        self.applied: list[str] = []
        self.acc = {"spills": 0, "bytes": 0, "hits": 0, "misses": 0}
        self.ready_since = time.monotonic()
        self.wait_limit = wait_limit
        self.reassign = False
        self.running = False
        self.won = False          # an attempt's result is recorded; the rest are zombies
        self.winner_sids: Optional[frozenset] = None  # the winner's manifest spill ids


class _Attempt:
    """One RPC attempt of one task; timeouts/retries settle it exactly once.

    ``spec`` marks a speculative backup copy: it holds its own dispatch
    slot (``slot_held``, transferred across connection retries) instead
    of the task-level one, and draws a fresh ``attempt_no`` so the
    reduce-side stores can arbitrate its deliveries against the
    original's.  ``zombie`` marks an attempt still in flight after
    another attempt of the same task won; its settlement is quiet."""

    __slots__ = ("task", "target", "method", "args", "tries", "deadline",
                 "settled", "spec", "attempt_no", "started_at", "zombie",
                 "slot_held")

    def __init__(self, task: _Task, target: str, method: str, args: dict,
                 tries: int, deadline: float, spec: bool = False,
                 attempt_no: int = 0, slot_held: bool = False) -> None:
        self.task = task
        self.target = target
        self.method = method
        self.args = args
        self.tries = tries
        self.deadline = deadline
        self.settled = False
        self.spec = spec
        self.attempt_no = attempt_no
        self.started_at = time.monotonic()
        self.zombie = False
        self.slot_held = slot_held


class _JobRun:
    """Scheduler-internal state of one submitted job."""

    def __init__(self, job: MapReduceJob, job_uid: str, submit_index: int,
                 weight: float, handle: JobHandle) -> None:
        self.job = job
        self.job_uid = job_uid
        self.submit_index = submit_index
        self.weight = weight
        self.handle = handle
        self.wire: Optional[dict] = None
        self.meta: Any = None
        self.budget: Optional[_FailoverBudget] = None
        self.tracker: Optional[_MapTracker] = None
        self.ready: list[_Task] = []
        self.outstanding = 0        # dispatched, not yet settled
        # Outstanding attempts of already-won tasks: they hold dispatch
        # slots (cleanup and membership barriers wait for them) but must
        # not gate phase advancement -- the whole point of speculation is
        # that the job moves on while the straggler limps home.
        self.zombie_outstanding = 0
        # Map service times (settled successes only) feeding the
        # speculation threshold: EWMA + percentile over this job's phase.
        self.map_times = ServiceTimeTracker()
        self.phase = "map"
        self.reduce_alive: list[str] = []
        self.reduce_results: dict[str, dict] = {}
        self.activated = False
        self.cleaned = False

    @property
    def live(self) -> bool:
        """Still producing work: activated and not yet resolved."""
        return self.activated and not self.handle.done()


class _DeferActivation(Exception):
    """Activation hit death evidence; requeue the job and fail over first."""


class JobScheduler:
    """Event-driven coordinator multiplexing many jobs over one cluster.

    Exactly one scheduler may own a runtime at a time; constructing a
    second raises :class:`~repro.common.errors.ClusterBusyError`.
    """

    def __init__(self, runtime, policy: Optional[InterJobPolicy | str] = None) -> None:
        self.rt = runtime
        self.coordinator = runtime.coordinator
        self.config = runtime.config
        self.metrics = runtime.metrics
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.policy = policy or make_policy(self.config.jobs.policy)
        self._lock = threading.Lock()
        self._events: "queue.Queue[tuple]" = queue.Queue()
        self._timers: list[tuple[float, int, str, Any]] = []
        self._timer_seq = itertools.count()
        self._queued: deque[_JobRun] = deque()
        self._active: list[_JobRun] = []
        self._deaths: deque[WorkerLost] = deque()
        self._dead_noted: set[str] = set()
        self._membership: deque[tuple[str, str, Future]] = deque()
        self._inflight_total = 0
        self._wid_inflight: dict[str, int] = {}
        self._inflight: set[_Attempt] = set()  # issued, not yet settled
        self._submit_seq = itertools.count()
        self._stopping = False
        self._next_heartbeat = 0.0
        self._ctx = DispatchContext(
            now=time.monotonic,
            inflight_on=lambda wid: self._wid_inflight.get(wid, 0),
            delay_wait=self.config.scheduler.delay_wait,
            worker_slots=self.config.jobs.delay_worker_slots,
        )
        runtime._attach_job_scheduler(self)
        self._thread = threading.Thread(
            target=self._loop, name="job-scheduler", daemon=True
        )
        self._thread.start()

    # -- client API -----------------------------------------------------------------

    def submit(self, job: MapReduceJob, weight: float = 1.0) -> JobHandle:
        """Queue one job; returns immediately with its handle.

        Raises :class:`JobRejected` when admission control's bounded
        queue is full (``jobs.max_active_jobs + jobs.max_queued_jobs``
        unresolved submissions), and :class:`ClusterError` after
        shutdown.
        """
        cfg = self.config.jobs
        with self._lock:
            if self._stopping:
                raise ClusterError("job scheduler is shut down")
            backlog = len(self._queued) + sum(1 for jr in self._active if jr.live)
            if backlog >= cfg.max_active_jobs + cfg.max_queued_jobs:
                self.metrics.counter("sched.jobs_rejected").inc()
                raise JobRejected(
                    f"job {job.app_id!r} rejected: {backlog} jobs already"
                    f" queued or running (limit {cfg.max_active_jobs}"
                    f" active + {cfg.max_queued_jobs} queued)"
                )
            uid = f"{job.app_id}@{next(self._submit_seq)}"
            handle = JobHandle(job.app_id, uid, cancel_cb=self._request_cancel)
            jr = _JobRun(job, uid, len(self._queued), weight, handle)
            # Weak, so the client's handle never keeps the run alive:
            # a handle <-> run cycle would outlive the job until a
            # generation-2 collection.
            handle._jr = weakref.ref(jr)
            self._queued.append(jr)
            self.metrics.counter("sched.jobs_submitted").inc()
            self.metrics.gauge("sched.queue_depth").set(len(self._queued))
        self._events.put(("wake",))
        return handle

    def submit_many(self, jobs: Sequence[MapReduceJob],
                    weight: float = 1.0) -> list[JobHandle]:
        return [self.submit(job, weight=weight) for job in jobs]

    def request_join(self, worker_id: str) -> Future:
        """Queue a live join; resolves once the joiner is serving its arc.

        Membership ops run at a **quiesce barrier**: the loop waits until
        no deaths are pending, nothing is in flight, and no admitted job
        is still live (a join *splits* a hash arc, which would strand a
        running job's intermediates on two owners).  While an op is
        queued, admission is held so a steady job stream cannot starve
        it; already-active jobs run to completion first.
        """
        return self._request_membership("join", worker_id)

    def request_drain(self, worker_id: str) -> Future:
        """Queue a graceful drain; resolves once the worker has left.

        Same quiesce barrier as :meth:`request_join`; the drain pushes
        the worker's blocks and spill objects to its arc successor and
        leaves the ring without spending any job's failover budget.
        """
        return self._request_membership("drain", worker_id)

    def _request_membership(self, op: str, worker_id: str) -> Future:
        fut: Future = Future()
        with self._lock:
            if self._stopping:
                raise ClusterError("job scheduler is shut down")
            self._membership.append((op, str(worker_id), fut))
        self.metrics.counter(f"sched.membership_{op}s_requested").inc()
        self._events.put(("wake",))
        return fut

    def _request_cancel(self, handle: JobHandle) -> bool:
        ref = getattr(handle, "_jr", None)
        jr = ref() if ref is not None else None
        if jr is None or handle.done():
            return False
        self._events.put(("cancel", jr))
        return True

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the loop; unresolved handles fail with ClusterError."""
        if not self._thread.is_alive():
            return
        self._events.put(("stop",))
        self._thread.join(timeout=timeout)

    # -- the event loop --------------------------------------------------------------

    def _loop(self) -> None:
        while True:
            try:
                event = None
                try:
                    event = self._events.get(timeout=self._next_timeout())
                except queue.Empty:
                    pass
                if event is not None:
                    self._handle_event(event)
                    while True:  # drain the burst before deciding anything
                        try:
                            self._handle_event(self._events.get_nowait())
                        except queue.Empty:
                            break
                if self._stopping:
                    self._abort_everything(ClusterError("job scheduler shut down"))
                    return
                self._fire_timers()
                self._tick_heartbeats()
                if self._deaths and self._inflight_total == 0:
                    self._process_deaths()
                if not self._deaths:
                    self._process_membership()
                if not self._deaths:
                    if not self._membership:
                        # Admission is held while membership ops wait at
                        # the barrier (anti-starvation); active jobs keep
                        # dispatching so the barrier can open.
                        self._admit()
                    self._dispatch()
                    self._check_speculation()
                self._reap_finished()
            except Exception as exc:  # keep the loop alive; fail the jobs
                self.metrics.counter("sched.loop_errors").inc()
                for jr in list(self._active):
                    if jr.live:
                        self._fail_job(jr, exc)
                with self._lock:
                    stranded = list(self._queued)
                    self._queued.clear()
                    self.metrics.gauge("sched.queue_depth").set(0)
                for jr in stranded:
                    jr.handle._resolve(exception=exc)

    def _next_timeout(self) -> Optional[float]:
        now = time.monotonic()
        candidates = []
        if self._timers:
            candidates.append(self._timers[0][0] - now)
        if self._active or self._queued or self._deaths or self._membership:
            candidates.append(self.config.jobs.tick_interval)
        if not candidates:
            return None  # fully idle: sleep until a submission wakes us
        return max(0.0, min(candidates))

    def _handle_event(self, event: tuple) -> None:
        kind = event[0]
        if kind == "done":
            _, attempt, future = event
            self._on_done(attempt, future)
        elif kind == "cancel":
            self._cancel_job(event[1])
        elif kind == "stop":
            self._stopping = True
        # "wake" carries nothing; the loop body re-evaluates state

    def _fire_timers(self) -> None:
        now = time.monotonic()
        while self._timers and self._timers[0][0] <= now:
            _, _, kind, payload = heapq.heappop(self._timers)
            if kind == "deadline":
                attempt = payload
                if not attempt.settled:
                    if self._absorb_failure(attempt):
                        continue  # another attempt carries (or carried) the task
                    # Mirror of the blocking pool's RpcTimeout: no retry,
                    # the target is treated as lost.
                    self.metrics.counter("sched.task_timeouts").inc()
                    self._settle_failure(
                        attempt, WorkerLost(attempt.target, "rpc timed out")
                    )
            elif kind == "retry":
                attempt = payload
                if not attempt.settled:
                    attempt.settled = True  # superseded by the fresh attempt
                    self._issue(attempt.task, attempt.target, attempt.method,
                                attempt.args, tries=attempt.tries + 1,
                                spec=attempt.spec, attempt_no=attempt.attempt_no,
                                slot_held=attempt.slot_held)

    def _push_timer(self, when: float, kind: str, payload: Any) -> None:
        heapq.heappush(self._timers, (when, next(self._timer_seq), kind, payload))

    def _tick_heartbeats(self) -> None:
        """Sweep for heartbeat-dead workers -- only while work exists.

        An idle cluster deliberately leaves heartbeat-dead workers
        detected-but-not-removed (``check_liveness`` semantics); the next
        activation's sweep fails them over, exactly like the legacy
        start-of-attempt path.
        """
        if not (self._active or self._queued):
            return
        now = time.monotonic()
        if now < self._next_heartbeat:
            return
        self._next_heartbeat = now + self.config.net.heartbeat_interval
        for wid in self.coordinator.check_heartbeats():
            self._note_death(WorkerLost(wid, "missed heartbeats"))

    # -- elastic membership -----------------------------------------------------------

    def _process_membership(self) -> None:
        """Run queued join/drain ops once the cluster has quiesced.

        Each op runs with the loop's full attention: nothing in flight,
        no death evidence pending, no live job.  The op itself may fail
        over concurrently-dead workers (the runtime retries around them),
        so the barrier is re-checked between ops; a failure resolves only
        that op's future and leaves the loop healthy.
        """
        while self._membership:
            if (self._inflight_total != 0 or self._deaths
                    or any(jr.live for jr in self._active)):
                return
            with self._lock:
                op, wid, fut = self._membership.popleft()
            if not fut.set_running_or_notify_cancel():
                continue
            try:
                if op == "join":
                    self.rt._do_join(wid)
                else:
                    self.rt._do_drain(wid)
            except BaseException as exc:
                fut.set_exception(exc)
            else:
                fut.set_result(wid)

    # -- admission & activation -------------------------------------------------------

    def _admit(self) -> None:
        while True:
            with self._lock:
                live = sum(1 for jr in self._active if jr.live)
                if (not self._queued or self._stopping
                        or live >= self.config.jobs.max_active_jobs):
                    return
                jr = self._queued.popleft()
                self.metrics.gauge("sched.queue_depth").set(len(self._queued))
            if not self._activate(jr):
                return

    def _activate(self, jr: _JobRun) -> bool:
        """Run the legacy ``run()`` preamble for one job; False = stop admitting."""
        job = jr.job
        try:
            meta = self.coordinator.stat(job.input_file, user=job.user)
            jr.meta = meta
            jr.wire = encode_job(job, job_uid=jr.job_uid)
            jr.budget = _FailoverBudget(
                job.app_id, max(0, len(self.coordinator.alive_ids()) - 1)
            )
            jr.tracker = _MapTracker(meta.blocks, self.coordinator.alive_ids())
            self._start_attempt(jr)
            jr.ready = self._draw_maps(jr, meta.blocks)
        except _DeferActivation:
            with self._lock:
                self._queued.appendleft(jr)
                self.metrics.gauge("sched.queue_depth").set(len(self._queued))
            return False
        except Exception as exc:
            jr.handle._mark_running()
            self._record_admission(jr)
            self._fail_job(jr, exc)
            return True
        jr.activated = True
        jr.handle._mark_running()
        self._active.append(jr)
        self._record_admission(jr)
        self.metrics.counter("sched.jobs_admitted").inc()
        self.metrics.gauge("sched.active_jobs").set(
            sum(1 for j in self._active if j.live)
        )
        self._advance(jr)  # zero-block inputs go straight to reduce
        return True

    def _record_admission(self, jr: _JobRun) -> None:
        wait = (jr.handle.started_at or time.monotonic()) - jr.handle.submitted_at
        self.metrics.histogram("sched.queue_wait_s").record(wait)

    def _start_attempt(self, jr: _JobRun) -> None:
        """Heartbeat sweep + clear-the-slate broadcast (legacy semantics).

        Death evidence found here defers the activation: the job goes
        back to the queue head, the failover machinery runs with nothing
        in flight, and activation retries on the survivors -- the same
        net behavior (and chaos fingerprint) as the legacy in-place
        spend-and-retry loop.
        """
        dead = self.coordinator.check_heartbeats()
        if dead:
            for wid in dead:
                self._note_death(WorkerLost(wid, "missed heartbeats"))
            raise _DeferActivation
        args: dict[str, Any] = {"app_id": jr.job.app_id}
        if any(other is not jr and other.live and other.job.app_id == jr.job.app_id
               for other in self._active):
            # A concurrent submission of the same app is in flight: only
            # clear this submission's uid, not the whole app namespace.
            args["job_uid"] = jr.job_uid
        try:
            self.rt._broadcast("discard_job", args)
        except WorkerLost as lost:
            self._note_death(lost)
            raise _DeferActivation from lost

    def _draw_maps(self, jr: _JobRun, blocks: Sequence[Any]) -> list[_Task]:
        """Draw the whole assignment vector at zero load (bit-equality)."""
        sched = self.coordinator.scheduler
        tasks = []
        with sched.at_zero_load():
            for desc in blocks:
                a = sched.assign(hash_key=desc.key)
                tasks.append(_Task(jr, "map", a.server, desc=desc,
                                   wait_limit=a.wait_limit))
        return tasks

    # -- dispatch ---------------------------------------------------------------------

    def _dispatch(self) -> None:
        cap = self.config.jobs.max_inflight_tasks
        while (not self._deaths and not self._stopping
               and self._inflight_total < cap):
            candidates = [jr for jr in self._active if jr.live and jr.ready]
            if not candidates:
                return
            task = self.policy.next_task(candidates, self._ctx)
            if task is None:
                return  # policy is waiting (delay); the tick retries
            task.jr.ready.remove(task)
            self._launch(task)

    def _launch(self, task: _Task) -> None:
        jr = task.jr
        if task.reassign:
            # Delay policy gave up waiting: run least-loaded instead.
            task.wid = self.coordinator.scheduler.reassign().server
            task.reassign = False
            self.metrics.counter("sched.delay_reassignments").inc()
        if task.kind == "map" and self.config.health.enabled:
            # Gray-failure quarantine: no *new* maps on a suspect worker
            # (it still serves block fetches, spill pushes, heartbeats,
            # and its reduce shard -- its data stays authoritative).
            # With every worker quarantined the assignment stands: a
            # degraded cluster beats a deadlocked one.
            health = self.coordinator.health
            if health.is_quarantined(task.wid):
                eligible = [w for w in self.coordinator.alive_ids()
                            if not health.is_quarantined(w)]
                if eligible:
                    task.wid = min(
                        eligible,
                        key=lambda w: (self._wid_inflight.get(w, 0), w),
                    )
                    self.metrics.counter("sched.quarantine_reroutes").inc()
        self.coordinator.scheduler.notify_start(task.wid)
        task.running = True
        jr.outstanding += 1
        self._inflight_total += 1
        self._wid_inflight[task.wid] = self._wid_inflight.get(task.wid, 0) + 1
        self.metrics.counter("sched.tasks_dispatched").inc()
        if task.kind == "reduce":
            self._issue(task, task.wid, "run_reduce", {"job": jr.wire})
            return
        if task.mode is None:
            task.mode = "map"
            if jr.job.reuse_intermediates:
                marker = self.coordinator.marker_for(
                    jr.job.app_id, jr.job.input_file, task.desc.index
                )
                if marker is not None:
                    groups = marker.by_dest()
                    if any(dest not in self.coordinator.addresses
                           for dest in groups):
                        self.metrics.counter("cluster.replay_fallbacks").inc()
                    else:
                        task.mode = "replay"
                        task.marker = marker
                        task.groups = list(groups.items())
                        task.dest_idx = 0
                        task.applied = []
                        task.acc = {"spills": 0, "bytes": 0,
                                    "hits": 0, "misses": 0}
        if task.mode == "replay":
            if task.groups:
                self._issue_replay_step(task)
            else:
                # An empty marker (every spill was combined away): nothing
                # to re-deliver, the replay succeeds vacuously.
                self._finish_replay(task)
        else:
            self._issue_map(task)

    def _issue_map(self, task: _Task) -> None:
        jr = task.jr
        holders = [
            (a.worker_id, a.host, a.port)
            for a in self.coordinator.block_holders(
                jr.wire["input_file"], task.desc.index
            )
        ]
        # Every map execution is a numbered attempt; spill deliveries
        # carry it so the reduce-side stores reject late duplicates from
        # executions the scheduler already moved past.
        n = jr.tracker.next_attempt(task.desc.index)
        self._issue(task, task.wid, "run_map",
                    {"job": jr.wire, "name": jr.wire["input_file"],
                     "index": task.desc.index, "holders": holders,
                     "attempt": n},
                    attempt_no=n)

    def _issue_replay_step(self, task: _Task) -> None:
        jr = task.jr
        dest, entries = task.groups[task.dest_idx]
        self._issue(task, dest, "replay_intermediates",
                    {"app_id": jr.job.app_id, "spills": entries,
                     "ttl": jr.job.intermediate_ttl, "job_uid": jr.job_uid})

    def _issue(self, task: _Task, target: str, method: str, args: dict,
               tries: int = 1, spec: bool = False, attempt_no: int = 0,
               slot_held: bool = False) -> None:
        deadline = time.monotonic() + self.config.net.call_timeout
        attempt = _Attempt(task, target, method, args, tries, deadline,
                           spec=spec, attempt_no=attempt_no,
                           slot_held=slot_held)
        try:
            addr = self.coordinator.address_of(target).addr
            fut = self.coordinator.pool.call_async(addr, method, args)
        except (WorkerLost, NetworkError, OSError) as exc:
            self._transport_failure(attempt, exc)
            return
        self._inflight.add(attempt)
        self._push_timer(deadline, "deadline", attempt)
        fut.add_done_callback(
            lambda f, a=attempt: self._events.put(("done", a, f))
        )

    # -- speculative execution ----------------------------------------------------------

    def _check_speculation(self) -> None:
        """Launch backup copies of straggling maps (spec.* knobs).

        A map attempt that has run longer than ``slow_factor`` times the
        job's median map service time (at least ``min_runtime_s``, and
        only once ``min_samples`` maps have finished) gets a duplicate
        attempt on the least-loaded eligible worker -- if a dispatch
        slot is spare; speculation never displaces primary work.  First
        finisher wins; the loser becomes a zombie whose late deliveries
        the attempt-numbered stores arbitrate.
        """
        spec = self.config.spec
        if not spec.enabled or not self._inflight:
            return
        cap = self.config.jobs.max_inflight_tasks
        if self._inflight_total >= cap:
            return
        now = time.monotonic()
        oldest: dict[_Task, _Attempt] = {}
        copies: dict[_Task, int] = {}
        for a in self._inflight:
            if a.settled or a.method != "run_map":
                continue
            copies[a.task] = copies.get(a.task, 0) + 1
            prior = oldest.get(a.task)
            if prior is None or a.started_at < prior.started_at:
                oldest[a.task] = a
        for task, attempt in oldest.items():
            if self._inflight_total >= cap or self._deaths:
                return
            jr = task.jr
            if not jr.live or task.won or task.mode != "map":
                continue
            if copies[task] >= spec.max_copies:
                continue
            if jr.map_times.count < spec.min_samples:
                continue
            threshold = max(spec.slow_factor * jr.map_times.p50,
                            spec.min_runtime_s)
            if now - attempt.started_at <= threshold:
                continue
            running_on = {a.target for a in self._inflight
                          if a.task is task and not a.settled}
            wid = self._pick_backup_worker(running_on)
            if wid is None:
                continue
            self.coordinator.health.observe_slow_task(attempt.target)
            self._launch_speculative(task, wid)

    def _pick_backup_worker(self, exclude: set) -> Optional[str]:
        """Least-loaded live worker not already running this task;
        quarantined workers are skipped while any clean one exists."""
        health = self.coordinator.health
        alive = [w for w in self.coordinator.alive_ids() if w not in exclude]
        eligible = [w for w in alive if not health.is_quarantined(w)]
        if not eligible:
            eligible = alive
        if not eligible:
            return None
        return min(eligible, key=lambda w: (self._wid_inflight.get(w, 0), w))

    def _launch_speculative(self, task: _Task, wid: str) -> None:
        """Dispatch a backup copy; it holds its own per-attempt slot."""
        jr = task.jr
        n = jr.tracker.next_attempt(task.desc.index)
        self.coordinator.scheduler.notify_start(wid)
        jr.outstanding += 1
        self._inflight_total += 1
        self._wid_inflight[wid] = self._wid_inflight.get(wid, 0) + 1
        self.metrics.counter("sched.tasks_speculated").inc()
        holders = [
            (a.worker_id, a.host, a.port)
            for a in self.coordinator.block_holders(
                jr.wire["input_file"], task.desc.index
            )
        ]
        self._issue(task, wid, "run_map",
                    {"job": jr.wire, "name": jr.wire["input_file"],
                     "index": task.desc.index, "holders": holders,
                     "attempt": n},
                    spec=True, attempt_no=n, slot_held=True)

    # -- completion plumbing ------------------------------------------------------------

    def _on_done(self, attempt: _Attempt, future) -> None:
        if attempt.settled:
            # Superseded by a timeout or a retry.  The worker may still
            # have run the map and delivered spills after the job's
            # cleanup broadcast swept the stores -- an empty store
            # accepts any attempt number -- so a successful late result
            # is retracted rather than merely ignored.
            if future.exception() is None:
                value = future.result()
                jr = attempt.task.jr
                if (attempt.method == "run_map" and jr.cleaned
                        and isinstance(value, dict)):
                    self._retract_late_spills(jr, attempt, value)
            return
        exc = future.exception()
        if exc is None:
            self._settle_success(attempt, future.result())
            return
        if isinstance(exc, RpcRemoteError):
            if self._absorb_failure(attempt):
                return  # another attempt carries (or carried) the task
            if exc.etype == "SpillDeliveryLost" and exc.data:
                # The mapper is fine; its reduce-side *target* is gone.
                self._settle_failure(
                    attempt, WorkerLost(exc.data["target"], "spill push failed")
                )
            else:
                self._settle_failure(attempt, ClusterError(
                    f"worker {attempt.target!r} failed {attempt.method}: {exc}"
                ))
            return
        if isinstance(exc, NetworkError):
            self._transport_failure(attempt, exc)
            return
        self._settle_failure(attempt, exc)

    def _transport_failure(self, attempt: _Attempt, exc: Exception) -> None:
        """Mirror of the blocking pool's retry policy, asynchronously.

        Connection-level failures redial with exponential backoff up to
        ``net.retry_attempts`` total tries; anything else (timeouts,
        framing) immediately becomes :class:`WorkerLost` evidence.
        """
        if self._absorb_failure(attempt):
            return  # another attempt carries (or carried) the task
        net = self.config.net
        if (isinstance(exc, RpcConnectionError)
                and attempt.tries < net.retry_attempts):
            attempt.settled = True  # the retry timer owns it now
            self._inflight.discard(attempt)
            retry = _Attempt(attempt.task, attempt.target, attempt.method,
                             attempt.args, attempt.tries, attempt.deadline,
                             spec=attempt.spec, attempt_no=attempt.attempt_no,
                             slot_held=attempt.slot_held)
            attempt.slot_held = False  # the slot travels with the retry
            delay = min(net.retry_base_delay * (2 ** (attempt.tries - 1)),
                        net.retry_max_delay)
            self.metrics.counter("rpc.retries").inc()
            self._push_timer(time.monotonic() + delay, "retry", retry)
            return
        self._settle_failure(attempt, WorkerLost(attempt.target, str(exc)))

    def _release(self, task: _Task) -> None:
        """Return the task's dispatch slot and scheduler load."""
        if not task.running:
            return
        task.running = False
        self.coordinator.scheduler.notify_finish(task.wid)
        task.jr.outstanding -= 1
        self._inflight_total -= 1
        self._wid_inflight[task.wid] = max(0, self._wid_inflight.get(task.wid, 1) - 1)

    def _release_any(self, attempt: _Attempt) -> None:
        """Return whichever slot the attempt holds: a speculative copy's
        own per-attempt slot, or the primary's task-level one."""
        if attempt.spec:
            if not attempt.slot_held:
                return
            attempt.slot_held = False
            self.coordinator.scheduler.notify_finish(attempt.target)
            attempt.task.jr.outstanding -= 1
            self._inflight_total -= 1
            self._wid_inflight[attempt.target] = max(
                0, self._wid_inflight.get(attempt.target, 1) - 1
            )
        else:
            self._release(attempt.task)

    def _other_live(self, task: _Task, attempt: _Attempt) -> bool:
        return any(a.task is task and a is not attempt and not a.settled
                   for a in self._inflight)

    def _absorb_failure(self, attempt: _Attempt) -> bool:
        """Quietly settle a failed attempt whose task no longer depends
        on it -- another attempt already won, or is still running.

        This is the gray-failure stance: a straggling attempt's timeout
        is *slowness* evidence (fed to the health plane), not death
        evidence -- the worker is never failed over for losing a race.
        Only ever true with speculation enabled; a lone attempt always
        escalates exactly as before."""
        task = attempt.task
        if task.kind != "map" or not self.config.spec.enabled:
            return False
        if not (task.won or attempt.zombie or self._other_live(task, attempt)):
            return False
        self.metrics.counter("sched.attempt_failures_absorbed").inc()
        self.coordinator.health.observe_timeout(attempt.target)
        self._settle_quiet(attempt)
        return True

    def _settle_quiet(self, attempt: _Attempt) -> None:
        """Settle without recording, escalating, or failing anything."""
        attempt.settled = True
        self._inflight.discard(attempt)
        jr = attempt.task.jr
        if attempt.zombie:
            jr.zombie_outstanding -= 1
            attempt.zombie = False
        self._release_any(attempt)
        if jr.live:
            self._advance(jr)
        else:
            self._maybe_cleanup(jr)

    def _mark_won(self, task: _Task, winner: _Attempt, manifest) -> None:
        """First finisher wins; every other live attempt becomes a zombie."""
        task.won = True
        task.winner_sids = frozenset(sid for _, sid, _ in manifest)
        jr = task.jr
        if winner.spec:
            self.metrics.counter("sched.speculation_wins").inc()
        for a in self._inflight:
            if a.task is task and a is not winner and not a.settled:
                a.zombie = True
                jr.zombie_outstanding += 1
                if a.spec:
                    self.metrics.counter("sched.speculation_losses").inc()
                self.coordinator.health.observe_slow_task(a.target)

    def _finish_zombie(self, attempt: _Attempt, value: dict) -> None:
        """A losing attempt completed after the task was already won.

        Its slot returns, and any spill it delivered that the winner's
        manifest does *not* cover is retracted at exactly its attempt
        number -- deterministic re-execution makes the manifests
        identical in the common case (the loser's deliveries merely
        overwrote the winner's with identical content), so the diff is
        usually empty and a winner's data can never be retracted."""
        task = attempt.task
        jr = task.jr
        if attempt.zombie:
            jr.zombie_outstanding -= 1
            attempt.zombie = False
        self._release_any(attempt)
        self.metrics.counter("sched.zombie_results").inc()
        winner_sids = task.winner_sids or frozenset()
        by_dest: dict[str, list[str]] = {}
        for dest, sid, _ in value.get("manifest") or ():
            if sid not in winner_sids:
                by_dest.setdefault(dest, []).append(sid)
        alive = set(self.coordinator.alive_ids())
        for dest, sids in by_dest.items():
            if dest not in alive:
                continue
            try:
                self.rt._call_worker(dest, "discard_spills", {
                    "app_id": jr.job.app_id, "spill_ids": sids,
                    "job_uid": jr.job_uid, "attempt": attempt.attempt_no,
                })
            except (WorkerLost, ClusterError):
                self.metrics.counter("sched.zombie_discard_failures").inc()
        self._maybe_cleanup(jr)

    def _retract_late_spills(self, jr: _JobRun, attempt: _Attempt,
                             value: dict) -> None:
        """Un-deliver a map result that landed after the job's cleanup.

        The end-of-job ``discard_job`` broadcast is eager (the winner's
        data is freed the moment the output leaves the cluster), so a
        straggling attempt still *executing* at that point re-inserts
        its spills into stores that are already empty.  Nothing can want
        the data -- the job is terminal -- so the whole manifest is
        retracted at exactly this attempt's number; a resubmission runs
        under a fresh job uid and cannot be touched by it."""
        by_dest: dict[str, list[str]] = {}
        for dest, sid, _ in value.get("manifest") or ():
            by_dest.setdefault(dest, []).append(sid)
        if not by_dest:
            return
        alive = set(self.coordinator.alive_ids())
        retracted = 0
        for dest, sids in by_dest.items():
            if dest not in alive:
                continue
            try:
                retracted += self.rt._call_worker(dest, "discard_spills", {
                    "app_id": jr.job.app_id, "spill_ids": sids,
                    "job_uid": jr.job_uid, "attempt": attempt.attempt_no,
                })
            except (WorkerLost, ClusterError):
                self.metrics.counter("sched.zombie_discard_failures").inc()
        if retracted:
            self.metrics.counter("sched.late_spills_retracted").inc(retracted)

    def _settle_failure(self, attempt: _Attempt, exc: Exception) -> None:
        attempt.settled = True
        self._inflight.discard(attempt)
        task = attempt.task
        jr = task.jr
        if attempt.zombie:
            jr.zombie_outstanding -= 1
            attempt.zombie = False
        self._release_any(attempt)
        if isinstance(exc, WorkerLost):
            # Death evidence; the task itself is rebuilt by the re-plan.
            self._note_death(exc)
            if not jr.live:
                self._maybe_cleanup(jr)
            return
        if jr.live:
            self._fail_job(jr, exc)
        self._maybe_cleanup(jr)

    def _settle_success(self, attempt: _Attempt, value: Any) -> None:
        attempt.settled = True
        self._inflight.discard(attempt)
        task = attempt.task
        jr = task.jr
        if not jr.live:
            # Cancelled, failed, or already finished: the value is not
            # needed.  But a lost race settling after the end-of-job
            # cleanup re-created its spills in stores the broadcast
            # already swept (attempt-number arbitration cannot reject a
            # push into an empty store), so the manifest is retracted
            # outright instead of dropped on the floor.
            if attempt.zombie:
                jr.zombie_outstanding -= 1
                attempt.zombie = False
                self.metrics.counter("sched.zombie_results").inc()
            self._release_any(attempt)
            if (jr.cleaned and attempt.method == "run_map"
                    and isinstance(value, dict)):
                self._retract_late_spills(jr, attempt, value)
            self._maybe_cleanup(jr)
            return
        if task.kind == "reduce":
            self._release(task)
            jr.reduce_results[task.wid] = reassemble_reduce(value)
            self._advance(jr)
            return
        if task.mode == "replay":
            self._replay_step_done(task, value)
            return
        if task.won or attempt.zombie:
            self._finish_zombie(attempt, value)
            return
        jr.map_times.observe(max(0.0, time.monotonic() - attempt.started_at))
        self._mark_won(task, attempt, value.get("manifest") or ())
        self._release_any(attempt)
        self._record_map(task, value, server=attempt.target,
                         attempt_no=attempt.attempt_no)

    def _replay_step_done(self, task: _Task, result: dict) -> None:
        jr = task.jr
        if not result["ok"]:
            # A spill fell out of oCache *and* the persisted store:
            # un-deliver what already landed and re-map instead.
            self._discard_partial_replay(jr, task)
            self.metrics.counter("cluster.replay_fallbacks").inc()
            task.mode = "map"
            self._issue_map(task)
            return
        dest, _ = task.groups[task.dest_idx]
        task.applied.append(dest)
        task.acc["spills"] += result["spills"]
        task.acc["bytes"] += result["bytes"]
        task.acc["hits"] += result["ocache_hits"]
        task.acc["misses"] += result["ocache_misses"]
        task.dest_idx += 1
        if task.dest_idx < len(task.groups):
            self._issue_replay_step(task)
            return
        self._finish_replay(task)

    def _finish_replay(self, task: _Task) -> None:
        self._release(task)
        self.metrics.counter("cluster.maps_replayed").inc()
        self._record_map(task, {
            "replayed": True,
            "spills": task.acc["spills"],
            "bytes_shuffled": task.acc["bytes"],
            "ocache_hits": task.acc["hits"],
            "ocache_misses": task.acc["misses"],
            "manifest": [list(e) for e in task.marker.entries],
        })

    def _discard_partial_replay(self, jr: _JobRun, task: _Task) -> None:
        """Best-effort un-delivery of a partially replayed map's spills."""
        groups = dict(task.groups)
        for dest in task.applied:
            try:
                self.rt._call_worker(dest, "discard_spills", {
                    "app_id": jr.job.app_id,
                    "spill_ids": [sid for sid, _ in groups[dest]],
                    "job_uid": jr.job_uid,
                })
            except (WorkerLost, ClusterError):
                self.metrics.counter("cluster.replay_discard_failures").inc()
        task.applied = []

    def _record_map(self, task: _Task, result: dict, server: str | None = None,
                    attempt_no: int = 0) -> None:
        jr = task.jr
        jr.tracker.record(task.desc, server or task.wid, result,
                          attempt=attempt_no)
        try:
            if result.get("replayed"):
                hook = self.rt.on_replay_complete
                if hook is not None:
                    hook(jr.tracker.replays)
            else:
                if jr.job.cache_intermediates:
                    self.coordinator.record_marker(CompletionMarker(
                        app_id=jr.job.app_id,
                        input_file=jr.job.input_file,
                        block_index=task.desc.index,
                        entries=tuple(tuple(e) for e in result["manifest"] or ()),
                    ))
                hook = self.rt.on_map_complete
                if hook is not None:
                    hook(jr.tracker.maps_run)
        except WorkerLost as lost:
            self._note_death(lost)
            return
        self._advance(jr)

    def _advance(self, jr: _JobRun) -> None:
        """Move a job forward when its current phase has fully landed."""
        if not jr.live or self._deaths:
            return
        if jr.phase == "map":
            # Zombies (lost races still limping home) hold slots but do
            # not gate the phase: the job moves on, their late results
            # are arbitrated by attempt number.
            if (len(jr.tracker.completed) == len(jr.tracker.blocks)
                    and not any(t.kind == "map" for t in jr.ready)
                    and jr.outstanding - jr.zombie_outstanding == 0):
                self._start_reduce(jr)
            return
        if (jr.phase == "reduce"
                and len(jr.reduce_results) == len(jr.reduce_alive)):
            self._finish_job(jr)

    def _start_reduce(self, jr: _JobRun) -> None:
        jr.phase = "reduce"
        jr.reduce_alive = self.coordinator.alive_ids()
        jr.reduce_results = {}
        jr.ready.extend(_Task(jr, "reduce", wid) for wid in jr.reduce_alive)

    def _finish_job(self, jr: _JobRun) -> None:
        output: dict[Any, Any] = {}
        reduced_on: list[str] = []
        for wid in jr.reduce_alive:  # merge order: alive order, not completion
            result = jr.reduce_results[wid]
            if result["pairs"] == 0:
                continue
            for k, v in result["output"].items():
                if k in output:
                    self._fail_job(jr, ClusterError(
                        f"intermediate key {k!r} reduced on two servers"
                    ))
                    return
                output[k] = v
            reduced_on.append(wid)
        self._cleanup(jr)
        stats = self._finalize_stats(jr.tracker, reduced_on)
        jr.handle._resolve(result=JobResult(
            app_id=jr.job.app_id, output=output, stats=stats
        ))
        self.metrics.counter("sched.jobs_completed").inc()
        self.metrics.histogram("sched.job_makespan_s").record(
            jr.handle.finished_at - jr.handle.submitted_at
        )
        self.metrics.gauge("sched.active_jobs").set(
            sum(1 for j in self._active if j.live)
        )

    def _finalize_stats(self, tracker: _MapTracker,
                        reduced_on: list[str]) -> JobStats:
        """Fold the tracker's *final* per-block outcomes into JobStats.

        On a failure-free run this is identical to counting at dispatch
        time, so sequential-equality of ``tasks_per_server`` is
        preserved; after failovers it reports the work that actually
        produced the output, with ``task_retries`` counting the completed
        maps that had to re-execute."""
        stats = JobStats(
            tasks_per_server={wid: 0 for wid in tracker.initial_alive}
        )
        for entry in tracker.completed.values():
            result = entry.result
            stats.spills += result["spills"]
            stats.spill_recombines += result.get("recombines", 0)
            stats.bytes_shuffled += result["bytes_shuffled"]
            stats.tasks_per_server[entry.server] = (
                stats.tasks_per_server.get(entry.server, 0) + 1
            )
            if result.get("replayed"):
                stats.maps_skipped_by_reuse += 1
                stats.ocache_hits += result["ocache_hits"]
                stats.ocache_misses += result["ocache_misses"]
                continue
            stats.map_tasks += 1
            if result["source"] == "icache":
                stats.icache_hits += 1
            else:
                stats.icache_misses += 1
                if result["source"] == "local":
                    stats.local_block_reads += 1
                else:
                    stats.remote_block_reads += 1
        for wid in reduced_on:
            stats.reduce_tasks += 1
            stats.tasks_per_server[wid] = stats.tasks_per_server.get(wid, 0) + 1
        stats.task_retries = tracker.reexecuted
        return stats

    # -- failure handling ---------------------------------------------------------------

    def _note_death(self, lost: WorkerLost) -> None:
        if lost.worker_id in self._dead_noted:
            return
        self._dead_noted.add(lost.worker_id)
        self._deaths.append(lost)

    def _process_deaths(self) -> None:
        """Fail over drained deaths, then re-plan every surviving job.

        Runs only with nothing in flight (the drain preserved every late
        success as a salvage candidate, like the legacy round drain).
        Each real death costs every live job one budget unit; a job out
        of budget fails alone, the others recover.
        """
        processed = False
        while self._deaths:
            lost = self._deaths.popleft()
            self._dead_noted.discard(lost.worker_id)
            if lost.worker_id not in self.coordinator.addresses:
                continue  # already failed over (duplicate evidence)
            # Every job that has touched the cluster pays: live active jobs
            # and deferred activations waiting at the queue head (their
            # budget was drawn before the death surfaced, so one spend
            # leaves exactly the remaining allowance the legacy in-place
            # spend-and-retry loop would).
            with self._lock:
                deferred = [j for j in self._queued if j.budget is not None]
            for jr in [j for j in self._active if j.live] + deferred:
                try:
                    jr.budget.spend(lost)
                except ClusterError as exc:
                    self._fail_job(jr, exc)
            with self._lock:
                anyone_left = (any(j.live for j in self._active)
                               or bool(self._queued))
            if not anyone_left:
                # Nobody left to recover for; mirror the legacy behavior
                # of raising out of the budget before touching the ring.
                continue
            self.rt._failover(lost.worker_id)
            processed = True
        if not processed:
            return
        for jr in [j for j in self._active if j.live]:
            try:
                self._replan(jr)
            except WorkerLost as exc:  # a cascade mid-replan: go around again
                self._note_death(exc)
                return
            self._advance(jr)

    def _replan(self, jr: _JobRun) -> None:
        """Salvage / doom / re-draw one job after a failover (legacy logic)."""
        alive = set(self.coordinator.alive_ids())
        tracker = jr.tracker
        doomed = [idx for idx, entry in tracker.completed.items()
                  if not entry.dests <= alive]
        salvaged = len(tracker.completed) - len(doomed)
        self.metrics.counter("failover.tasks_salvaged").inc(salvaged)
        self.metrics.counter("failover.tasks_reexecuted").inc(len(doomed))
        self.metrics.counter("cluster.tasks_reexecuted").inc(len(doomed))
        for idx in doomed:
            entry = tracker.completed.pop(idx)
            tracker.reexecuted += 1
            self._discard_stale_spills(jr, entry, alive)
        pending = [desc for desc in tracker.blocks
                   if desc.index not in tracker.completed]
        sched = self.coordinator.scheduler
        jr.ready = []
        with sched.at_zero_load():
            for desc in pending:
                a = sched.assign(hash_key=desc.key)
                jr.ready.append(_Task(jr, "map", a.server, desc=desc,
                                      wait_limit=a.wait_limit))
        # Any partial reduce wave is void: re-run doomed maps first, then
        # the whole wave re-issues on the post-failover membership.
        jr.phase = "map"
        jr.reduce_alive = []
        jr.reduce_results = {}

    def _discard_stale_spills(self, jr: _JobRun, entry: _MapOutcome,
                              alive: set) -> None:
        """Drop a doomed map's spills from its surviving destinations.

        Best-effort: the re-executed map's deterministic spill ids
        overwrite every stale spill anyway, so an unreachable destination
        is counted (``failover.discard_failures``) and skipped rather
        than cascading a second failover out of mere housekeeping."""
        by_dest: dict[str, list[str]] = {}
        for dest, spill_id, _ in entry.manifest:
            by_dest.setdefault(dest, []).append(spill_id)
        for dest, spill_ids in by_dest.items():
            if dest not in alive:
                continue
            try:
                self.rt._call_worker(dest, "discard_spills",
                                     {"app_id": jr.job.app_id,
                                      "spill_ids": spill_ids,
                                      "job_uid": jr.job_uid,
                                      "attempt": entry.attempt})
            except (WorkerLost, ClusterError):
                self.metrics.counter("failover.discard_failures").inc()

    def _fail_job(self, jr: _JobRun, exc: BaseException) -> None:
        if jr.handle.done():
            return
        jr.ready = []
        with self._lock:
            if jr in self._queued:
                self._queued.remove(jr)
                self.metrics.gauge("sched.queue_depth").set(len(self._queued))
        jr.handle._resolve(exception=exc)
        if isinstance(exc, JobCancelled):
            self.metrics.counter("sched.jobs_cancelled").inc()
        else:
            self.metrics.counter("sched.jobs_failed").inc()
        self.metrics.gauge("sched.active_jobs").set(
            sum(1 for j in self._active if j.live)
        )
        self._maybe_cleanup(jr)

    def _cancel_job(self, jr: _JobRun) -> None:
        if jr.handle.done():
            return
        self._fail_job(jr, JobCancelled(f"job {jr.job_uid!r} cancelled"))

    def _maybe_cleanup(self, jr: _JobRun) -> None:
        """A terminal job's slate clears once its last attempt drains."""
        if (jr.handle.done() and jr.activated and not jr.cleaned
                and jr.outstanding == 0):
            self._cleanup(jr)

    def _cleanup(self, jr: _JobRun) -> None:
        """Drop the job's in-flight intermediates on every worker.

        Failures are swallowed and counted (``cluster.cleanup_failures``):
        whoever missed the broadcast is either dead (its store died with
        it) or will shed the entries when the next job's start-of-attempt
        ``discard_job`` reaches it."""
        if jr.cleaned:
            return
        jr.cleaned = True
        try:
            self.rt._broadcast("discard_job", {"app_id": jr.job.app_id,
                                               "job_uid": jr.job_uid})
        except Exception:
            self.metrics.counter("cluster.cleanup_failures").inc()

    def _reap_finished(self) -> None:
        """Forget every resolved job whose last attempt has drained.

        Nothing of a reaped job stays reachable from the scheduler: the
        timer entries of its settled attempts go too, which would
        otherwise hold the job -- and through its handle the whole
        output -- until their ``call_timeout`` deadline falls due.  A
        pending ``"retry"`` entry carries a fresh, unsettled attempt of
        a live job and stays."""
        live = [jr for jr in self._active
                if not (jr.handle.done() and jr.outstanding == 0)]
        if len(live) == len(self._active):
            return
        self._active = live
        self._timers = [t for t in self._timers if not t[3].settled]
        heapq.heapify(self._timers)

    def _abort_everything(self, exc: Exception) -> None:
        with self._lock:
            self._stopping = True
            stranded = list(self._queued)
            self._queued.clear()
            pending_ops = list(self._membership)
            self._membership.clear()
            self.metrics.gauge("sched.queue_depth").set(0)
        for _, _, fut in pending_ops:
            if fut.set_running_or_notify_cancel():
                fut.set_exception(exc)
        for jr in stranded:
            jr.handle._resolve(exception=exc)
        for jr in list(self._active):
            if not jr.handle.done():
                jr.handle._resolve(exception=exc)


class ClusterSession:
    """A context-managed cluster + job scheduler for many-job clients::

        with ClusterSession(workers=4) as session:
            session.upload("corpus.txt", data)
            handles = session.submit_many(jobs)
            results = [h.result() for h in handles]

    Wraps an existing runtime when given one (and then leaves its
    lifecycle to the caller); otherwise owns the runtime it creates.
    """

    def __init__(self, workers: int | Sequence[str] = 3,
                 config=None, scheduler: str = "laf",
                 runtime=None, policy: Optional[str] = None) -> None:
        from repro.cluster.runtime import ClusterRuntime

        self._owned = runtime is None
        self.runtime = runtime or ClusterRuntime(workers, config, scheduler)
        self.jobs = (JobScheduler(self.runtime, policy=policy)
                     if policy is not None else self.runtime.jobs)

    def upload(self, name: str, data: bytes, **kwargs: Any) -> None:
        self.runtime.upload(name, data, **kwargs)

    def submit(self, job: MapReduceJob, weight: float = 1.0) -> JobHandle:
        return self.jobs.submit(job, weight=weight)

    def submit_many(self, jobs: Sequence[MapReduceJob],
                    weight: float = 1.0) -> list[JobHandle]:
        return self.jobs.submit_many(jobs, weight=weight)

    def run(self, job: MapReduceJob) -> JobResult:
        return self.submit(job).result()

    def close(self) -> None:
        if self._owned:
            self.runtime.shutdown()

    def __enter__(self) -> "ClusterSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
