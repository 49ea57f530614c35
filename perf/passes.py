"""The two passes of one workload run.

:func:`end_to_end_pass` measures what a user of the system sees, with
tracing off.  :func:`traced_pass` is separate: it runs the ladder a few
jobs per rung, observes the cluster from outside, replays a job through
every layer with spans (:mod:`perf.layers`) and reports the per-layer
metrics; the difference between the traced job and the untraced ones is
the tracing overhead.

Both return a :class:`PassResult`; every metric named in
``BENCHMARK.json`` for the pass is emitted exactly once.
"""

from __future__ import annotations

import json
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from perf import layers
from perf.planes import (
    CAL_REF_S,
    ClusterPlane,
    LocalPlane,
    Measured,
    measure,
    peak_rss_mb,
    percentile_hi,
    timed_calibrated,
)
from perf.trace import Tracer
from perf.workloads import Workload, cluster_workers

__all__ = ["ROOT", "load_benchmark", "PassResult", "end_to_end_pass", "traced_pass"]

ROOT = Path(__file__).resolve().parent.parent

CLUSTER_SHARE = 0.5
"""Share of ``--seconds`` the end-to-end pass spends on the cluster
plane; the rest goes to the sequential plane."""

RSS_AT_JOB = 16
"""``driver_peak_rss_mb`` is sampled when this many measured cluster jobs
have returned: the coordinator side keeps memory per completed job, so
a peak taken after a time-based number of jobs would not repeat."""

REPLAY_PASSES = 3
"""Replays of job 0 through the layers; a layer's time is the median."""

NOOP_JOBS = 3


@dataclass(frozen=True)
class Effort:
    """What separates a measuring run from a ``--quick`` smoke run."""

    lifecycles: int
    """Cluster start/upload/stop cycles per end-to-end pass; ``setup_s``
    and ``teardown_s`` are their medians."""
    min_jobs: int
    warmup: Optional[int]
    """Warm-up jobs; ``None`` waits for the LAF re-cut (``warmup_jobs``)."""
    net_calls: int


FULL = Effort(lifecycles=3, min_jobs=RSS_AT_JOB, warmup=None, net_calls=300)
QUICK = Effort(lifecycles=1, min_jobs=2, warmup=1, net_calls=40)


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@dataclass
class PassResult:
    section: str
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._units = {m["name"]: m["unit"] for m in load_benchmark()[self.section]}

    def put(self, name: str, value: float) -> None:
        if name not in self._units:
            raise KeyError(f"{name!r} is not a {self.section} metric of BENCHMARK.json")
        if name in self.metrics:
            raise KeyError(f"{name!r} emitted twice")
        self.metrics[name] = value

    def absorb(self, measured: Measured) -> None:
        self.attempted += measured.attempted
        self.failed += measured.failed
        self.errors += measured.errors

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def line(self) -> dict:
        """The result object the driver reads (last line of stdout)."""
        missing = set(self._units) - set(self.metrics)
        if missing:
            raise KeyError(f"metrics never emitted: {sorted(missing)}")
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name], "unit": unit}
                        for name, unit in self._units.items()},
        }


def _compare_planes(result: PassResult, planes: dict[str, Measured]) -> None:
    """``map_tasks``, ``spills`` and ``bytes_shuffled`` of job ``i`` must
    be equal on every plane that ran it."""
    def key(stats):
        return (stats.map_tasks, stats.spills, stats.bytes_shuffled)

    (base_name, base), *others = planes.items()
    for name, other in others:
        for i, (a, b) in enumerate(zip(base.stats, other.stats)):
            result.attempted += 1
            if key(a) != key(b):
                result.fail(f"job {i}: (map_tasks, spills, bytes_shuffled) "
                            f"{base_name} {key(a)} != {name} {key(b)}")


def end_to_end_pass(workload: Workload, seconds: float, quick: bool) -> PassResult:
    result = PassResult("end_to_end")
    workers = cluster_workers()
    effort = QUICK if quick else FULL
    setups: list[float] = []
    teardowns: list[float] = []
    for n in range(effort.lifecycles):
        plane, raw, scale = timed_calibrated(lambda: ClusterPlane(workload, workers))
        try:
            setups.append(raw * scale)
            if n == effort.lifecycles - 1:
                cluster = measure(workload, plane, budget_s=seconds * CLUSTER_SHARE,
                                  min_jobs=effort.min_jobs, warmup=effort.warmup)
        finally:
            teardowns.append(plane.stop())
    seq = measure(workload, LocalPlane("seq", workload, workers),
                  budget_s=seconds * (1 - CLUSTER_SHARE), min_jobs=effort.min_jobs,
                  warmup=effort.warmup)
    for measured in (cluster, seq):
        result.absorb(measured)
    _compare_planes(result, {"seq": seq, "cluster": cluster})

    result.put("setup_s", statistics.median(setups))
    result.put("teardown_s", statistics.median(teardowns))
    result.put("cluster_job_s", cluster.median_s)
    result.put("cluster_mb_per_s", cluster.mb_per_s)
    result.put("seq_job_s", seq.median_s)
    result.put("driver_peak_rss_mb", cluster.driver_rss_mb[:RSS_AT_JOB][-1])
    result.put("worker_peak_rss_mb", plane.worker_rss_mb)
    result.info.update(
        workers=workers,
        cluster_jobs=len(cluster.job_s), seq_jobs=len(seq.job_s),
        cluster_job_raw_s=statistics.median(cluster.raw_job_s),
        seq_job_raw_s=statistics.median(seq.raw_job_s),
        cluster_job_p_hi_s=percentile_hi(cluster.job_s),
        seq_job_p_hi_s=percentile_hi(seq.job_s),
        setups_s=setups, teardowns_s=teardowns,
        driver_rss_at_end_mb=peak_rss_mb(resource.RUSAGE_SELF),
    )
    return result


def _trace_jobs(workload: Workload, plane: str, seconds: float) -> int:
    """Measured jobs of one plane in the traced pass: ``trace_jobs`` at
    ``--seconds 15``, scaled with ``--seconds``, in whole batches.  A
    fixed count, so the cluster plane's counters repeat exactly."""
    batches = -(-round(workload.trace_jobs[plane] * seconds / 15.0) // workload.batch)
    return max(1, batches) * workload.batch


def traced_pass(workload: Workload, seconds: float, quick: bool) -> PassResult:
    result = PassResult("per_layer")
    put = result.put
    workers = cluster_workers()
    tracer = Tracer()
    state = workload.initial_state()
    expected = workload.expected(0, state)

    # -- the ladder: bare Python, then the three planes ------------------------
    bare = []
    for _ in range(REPLAY_PASSES):
        _, raw, scale = timed_calibrated(lambda: workload.bare(0, state))
        bare.append(raw * scale)

    seq_plane = LocalPlane("seq", workload, workers)
    effort = QUICK if quick else FULL
    seq = measure(workload, seq_plane, warmup=effort.warmup,
                  max_jobs=_trace_jobs(workload, "seq", seconds))
    thread = measure(workload, LocalPlane("thread", workload, workers),
                     warmup=effort.warmup,
                     max_jobs=_trace_jobs(workload, "thread", seconds))

    plane, _, start_scale = timed_calibrated(lambda: ClusterPlane(workload, workers))
    try:
        before: dict[str, float] = {}
        cluster = measure(workload, plane, warmup=effort.warmup,
                          max_jobs=_trace_jobs(workload, "cluster", seconds),
                          on_measured_start=lambda: before.update(plane.counters()))
        after = plane.counters()
        noop = []
        for i in range(NOOP_JOBS):
            ((outcome, _),), raw, scale = timed_calibrated(
                lambda: plane.run_batch([workload.noop_job(i)], 1))
            result.attempted += 1
            if isinstance(outcome, Exception) or outcome.output:
                result.fail(f"no-op job {i}: {outcome!r}")
            noop.append(raw * scale)
    finally:
        plane.stop()
    planes = {"seq": seq, "thread": thread, "cluster": cluster}
    for measured in planes.values():
        result.absorb(measured)
    _compare_planes(result, planes)
    delta = {name: after.get(name, 0) - before.get(name, 0) for name in after}
    jobs = len(cluster.job_s)
    stats = seq.stats[-1]
    maps_per_job = stats.map_tasks

    put("ladder.bare_s", statistics.median(bare))
    put("ladder.thread_s", thread.median_s)
    put("ladder.seq_over_bare_x", seq.median_s / statistics.median(bare))
    put("ladder.cluster_over_seq_x", cluster.median_s / seq.median_s)

    # -- every layer, replayed from outside ---------------------------------------
    passes: list[dict[str, float]] = []
    for n in range(REPLAY_PASSES):
        mark = len(tracer.spans)
        with tracer.job(f"replay-{n}"):
            (replayed, node), raw, scale = timed_calibrated(lambda: (
                layers.replay(workload, tracer, workers),
                layers.worker_node_probe(workload, tracer),
            ))
        passes.append({name: total * scale for name, total in tracer.totals(mark).items()})
        for what, output in (("replay", replayed["output"]), ("worker node", node["output"])):
            result.attempted += 1
            if not workload.matches(output, expected):
                result.fail(f"{what} {n}: output differs from the reference")
    counts = replayed["counts"]
    if (counts["shuffle.spills"], counts["shuffle.bytes_shuffled"]) != (
            seq.stats[0].spills, seq.stats[0].bytes_shuffled):
        result.fail("replay and sequential plane disagree on spills/bytes_shuffled")

    def layer_s(name: str) -> float:
        return statistics.median(p.get(name, 0.0) for p in passes)

    for name in ("apps.map", "apps.reduce", "apps.combiner", "hashing.key_of",
                 "dht.owner_of", "shuffle.pair_size", "shuffle.emit", "shuffle.combine",
                 "shuffle.receive", "dfs.upload", "dfs.read_block", "cache.get_input",
                 "cache.put_input", "scheduler.assign", "cluster.encode_job",
                 "cluster.encode_spill", "cluster.decode_spill",
                 "cluster.worker_run_map", "cluster.worker_run_reduce",
                 "cluster.output_pages"):
        put(f"{name}_s", layer_s(name))
    for name in ("apps.map_pairs", "apps.reduce_keys", "hashing.key_of_calls",
                 "hashing.distinct_keys", "dht.owner_of_calls", "shuffle.spills",
                 "shuffle.bytes_shuffled", "dfs.blocks", "scheduler.assign_calls",
                 "cluster.output_bytes"):
        put(name, counts[name])
    put("shuffle.emit_self_s", layer_s("shuffle.emit") - layer_s("hashing.key_of")
        - layer_s("dht.owner_of") - layer_s("shuffle.pair_size"))
    put("shuffle.emit_pairs_per_s", counts["apps.map_pairs"] / layer_s("shuffle.emit"))
    put("shuffle.combine_ratio", counts["combine_out"] / counts["combine_in"])
    put("shuffle.pairs_per_distinct_key",
        counts["apps.map_pairs"] / counts["hashing.distinct_keys"])
    attributed = sum(layer_s(name) for name in layers.ATTRIBUTED)
    put("runtime.attributed_share", attributed / seq.median_s)
    put("runtime.unattributed_s", seq.median_s - attributed)
    input_bytes = len(workload.inputs[workload.input_of(0)])
    put("dfs.upload_mb_per_s", input_bytes / 1e6 / layer_s("dfs.upload"))
    put("cluster.job_wire_bytes", node["job_wire_bytes"])

    # -- the cluster plane, observed from outside ---------------------------------
    hits = sum(s.icache_hits for s in cluster.stats[-jobs:])
    misses = sum(s.icache_misses for s in cluster.stats[-jobs:])
    put("cache.icache_hits", hits)
    put("cache.icache_misses", misses)
    put("cache.icache_hit_ratio", hits / max(1, hits + misses))
    tasks = list(stats.tasks_per_server.values())
    put("scheduler.task_skew", max(tasks) / statistics.mean(tasks))
    for name, value in layers.net_probe(replayed["mean_spill_bytes"],
                                        effort.net_calls).items():
        put(name, value)
    put("net.bytes_sent", delta["net.bytes_sent"])
    put("net.bytes_received", delta["net.bytes_received"])
    put("net.wire_bytes_per_input_byte", delta["net.bytes_sent"] / cluster.input_bytes)
    put("cluster.start_s", plane.start_s * start_scale)
    put("cluster.upload_s", plane.upload_s * start_scale)
    put("cluster.upload_mb_per_s",
        sum(map(len, workload.inputs.values())) / 1e6 / (plane.upload_s * start_scale))
    put("cluster.stop_s", plane.stop_s)
    put("cluster.first_job_s", cluster.first_job_s)
    for name in ("maps_run", "spills_out", "local_spills", "remote_block_reads"):
        put(f"cluster.{name}", delta.get(f"worker.{name}", 0))
    put("jobs.queue_wait_s_p50", statistics.median(cluster.queue_wait_s))
    put("jobs.run_s_p50", statistics.median(cluster.run_s))
    put("jobs.job_p_hi_s", percentile_hi(cluster.job_s))
    put("jobs.samples", jobs)
    put("jobs.jobs_per_s", jobs / cluster.phase_s)
    tenants: dict[str, list[float]] = {}
    first_measured = len(cluster.stats) - jobs
    for i, job_s in enumerate(cluster.job_s, start=first_measured):
        tenants.setdefault(workload.input_of(i), []).append(job_s)
    medians = [statistics.median(v) for v in tenants.values()]
    put("jobs.fairness_spread_s", max(medians) - min(medians))
    put("jobs.tasks_dispatched", delta.get("sched.tasks_dispatched", 0))
    put("jobs.noop_job_s", statistics.median(noop))
    put("jobs.noop_per_task_ms", statistics.median(noop) / maps_per_job * 1e3)

    # -- what tracing itself costs --------------------------------------------------
    mark = len(tracer.spans)
    traced, raw, scale = layers.traced_job(workload, seq_plane, tracer)
    result.attempted += 1
    if not workload.matches(traced.output, expected):
        result.fail("traced job: output differs from the reference")
    put("trace.overhead_x", raw * scale / seq.median_s)
    put("trace.spans", len(tracer.spans))
    tracer.write_chrome(ROOT / "perf" / "results" / f"trace-{workload.name}.json")
    result.info.update(
        workers=workers, cal_ref_s=CAL_REF_S,
        seq_job_s=seq.median_s, cluster_job_s=cluster.median_s,
        seq_job_raw_s=statistics.median(seq.raw_job_s),
        cluster_job_raw_s=statistics.median(cluster.raw_job_s),
        traced_self_s=tracer.self_times(mark),
    )
    return result
