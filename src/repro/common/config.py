"""Configuration dataclasses with the paper's testbed defaults.

The defaults encode the CLUSTER'17 evaluation platform (Section III): a
40-node cluster, 8 map + 8 reduce slots per node, 128 MB blocks, 32 MB spill
buffers, a 5-second delay-scheduling wait, and the LAF weight factor
alpha = 0.001 the authors fix after Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.common.units import GB, MB


@dataclass(frozen=True)
class DFSConfig:
    """DHT file system parameters."""

    block_size: int = 128 * MB
    """Fixed block size files are partitioned into (HDFS default, paper §II-A)."""

    replication: int = 2
    """Extra replicas kept on the predecessor and successor (paper §II-A).

    ``replication = 2`` means primary + predecessor copy + successor copy.
    """

    one_hop_routing: bool = True
    """Store the complete finger table per node ("one hop DHT routing" [13])."""

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ConfigError(f"block_size must be positive, got {self.block_size}")
        if not 0 <= self.replication <= 2:
            raise ConfigError(
                "replication counts neighbor copies; only the predecessor and "
                f"successor hold replicas, so it must be 0..2, got {self.replication}"
            )


@dataclass(frozen=True)
class CacheConfig:
    """Distributed in-memory cache (iCache + oCache) parameters."""

    capacity_per_server: int = 1 * GB
    """Bytes of cache per worker (paper uses 0..8 GB depending on the figure)."""

    icache_fraction: float = 0.5
    """Fraction of capacity reserved for iCache; the rest backs oCache."""

    default_ttl: float | None = None
    """TTL in seconds for oCache entries; ``None`` disables expiry (paper: app-set)."""

    migrate_misplaced: bool = False
    """Migrate cached objects when LAF moves their range to a neighbor.

    The paper implements this option but disables it for the evaluation
    (§II-E), so the default is off.
    """

    spill_store_bytes: int = 1 * GB
    """Per-worker budget for *persisted* spill objects on the cluster
    plane (the durable copies behind oCache replay, paper §II-C step 5).
    Oldest objects are dropped first when the budget is exceeded; a
    dropped object degrades a later ``reuse_intermediates`` job to
    re-executing that map, never to a wrong answer."""

    eviction: str = "lru"
    """Replacement policy for the iCache/oCache partitions: ``lru``
    (recency only, today's behavior) or ``cost`` (GDSF-style
    frequency x recompute-cost score with aging, the H-SVM-LRU framing
    from PAPERS.md) -- keeps hot or expensive-to-recompute objects over
    merely recent ones on skewed workloads."""

    def __post_init__(self) -> None:
        if self.capacity_per_server < 0:
            raise ConfigError("cache capacity must be non-negative")
        if self.spill_store_bytes < 0:
            raise ConfigError("spill_store_bytes must be non-negative")
        if not 0.0 <= self.icache_fraction <= 1.0:
            raise ConfigError(
                f"icache_fraction must be in [0, 1], got {self.icache_fraction}"
            )
        if self.default_ttl is not None and self.default_ttl <= 0:
            raise ConfigError("default_ttl must be positive or None")
        if self.eviction not in ("lru", "cost"):
            raise ConfigError(
                f"eviction must be 'lru' or 'cost', got {self.eviction!r}"
            )


@dataclass(frozen=True)
class NetConfig:
    """Cluster-plane wire parameters (TCP RPC, retries, heartbeats).

    Only the cluster execution plane (:mod:`repro.cluster`) reads these;
    the sequential, thread-pool, and discrete-event planes ignore them.
    """

    host: str = "127.0.0.1"
    """Interface workers and the coordinator bind and advertise."""

    connect_timeout: float = 5.0
    """Seconds to wait for a TCP connect before the dial fails."""

    call_timeout: float = 30.0
    """Default per-call RPC timeout in seconds."""

    max_frame_bytes: int = 256 * MB
    """Largest frame either side accepts; bigger headers are rejected."""

    rpc_concurrency: int = 16
    """Handler threads per accepted connection: how many pipelined
    requests one connection executes concurrently server-side."""

    max_in_flight: int = 64
    """Per-connection in-flight request window: ``call_async`` blocks once
    this many requests are awaiting responses on one connection, so fan-in
    can no longer grow either peer's memory without bound."""

    stream_page_bytes: int = 4 * MB
    """Page threshold for streamed responses: a reduce output whose
    serialized size exceeds this is returned as a sequence of out-of-band
    page frames (each roughly this large) instead of one giant envelope."""

    compression: str = "none"
    """Codec for out-of-band payloads (spill pushes, blob responses,
    stream pages): ``none`` (bit-identical wire, the default), ``zlib``,
    ``lz4`` (errors if the module is missing), or ``auto`` (lz4 when
    importable, else zlib).  The wire stays self-describing -- each
    compressed payload's envelope names its codec -- so mixed configs
    interoperate."""

    compression_level: int = 1
    """zlib level (1..9) when the zlib codec is selected; level 1 favors
    shuffle latency over ratio."""

    compression_min_bytes: int = 4096
    """Payloads smaller than this ship raw without attempting
    compression (the codec overhead dominates tiny frames)."""

    retry_attempts: int = 3
    """Transport attempts per RPC (1 = no retry)."""

    retry_base_delay: float = 0.05
    """Backoff before the first retry, in seconds; doubles per attempt."""

    retry_max_delay: float = 2.0
    """Ceiling on the exponential backoff delay, in seconds."""

    retry_jitter: float = 0.25
    """Jitter fraction: each delay is scaled by ``1 ± jitter``."""

    retry_max_elapsed: float | None = None
    """Total-elapsed deadline across all attempts of one logical call, in
    seconds (``None`` = unbounded).  A flapping peer can otherwise hold a
    caller for up to ``retry_attempts * retry_max_delay`` regardless of
    how long the caller can actually afford to wait."""

    heartbeat_interval: float = 0.25
    """Seconds between a worker's heartbeats to the coordinator."""

    heartbeat_miss_threshold: int = 4
    """Consecutive missed heartbeat intervals before a worker is declared dead."""

    start_timeout: float = 30.0
    """Seconds to wait for every worker process to register at startup."""

    mp_start_method: str = "spawn"
    """``multiprocessing`` start method for worker processes."""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Check every wire parameter; raises :class:`ConfigError`.

        Runs automatically at construction; callable again on a config
        rebuilt from a manifest.
        """
        for name in ("connect_timeout", "call_timeout", "heartbeat_interval",
                     "start_timeout", "retry_base_delay"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.max_frame_bytes < 64:
            raise ConfigError("max_frame_bytes is too small to hold a message")
        if self.max_in_flight < 1:
            raise ConfigError(
                f"max_in_flight must be >= 1, got {self.max_in_flight}"
            )
        if self.stream_page_bytes < 64:
            raise ConfigError("stream_page_bytes is too small to hold a message")
        if self.compression not in ("none", "zlib", "lz4", "auto"):
            raise ConfigError(
                "compression must be one of ('none', 'zlib', 'lz4', 'auto'), "
                f"got {self.compression!r}"
            )
        if not 1 <= self.compression_level <= 9:
            raise ConfigError(
                f"compression_level must be 1..9, got {self.compression_level}"
            )
        if self.compression_min_bytes < 0:
            raise ConfigError("compression_min_bytes must be non-negative")
        if self.retry_attempts < 1:
            raise ConfigError("retry_attempts must be >= 1")
        if self.retry_max_delay < self.retry_base_delay:
            raise ConfigError("retry_max_delay must be >= retry_base_delay")
        if self.retry_max_elapsed is not None and self.retry_max_elapsed <= 0:
            raise ConfigError("retry_max_elapsed must be positive or None")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ConfigError(f"retry_jitter must be in [0, 1], got {self.retry_jitter}")
        if self.heartbeat_miss_threshold < 1:
            raise ConfigError("heartbeat_miss_threshold must be >= 1")
        if self.mp_start_method not in ("spawn", "fork", "forkserver"):
            raise ConfigError(f"unknown start method {self.mp_start_method!r}")


@dataclass(frozen=True)
class SchedulerConfig:
    """LAF / delay scheduler parameters (paper §II-E, §II-F, Algorithm 1)."""

    alpha: float = 0.001
    """Moving-average weight factor; the paper fixes 0.001 after Fig. 7."""

    window_tasks: int = 64
    """N in Algorithm 1: tasks accumulated before re-partitioning ranges."""

    num_bins: int = 1024
    """Fine-grained histogram bins the hash key space is quantized into."""

    kde_bandwidth: int = 8
    """k in the box kernel density estimate: adjacent bins credited 1/k each."""

    delay_wait: float = 5.0
    """Seconds a delay-scheduled task waits for its preferred server (Spark's 5 s)."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.window_tasks < 1:
            raise ConfigError("window_tasks must be >= 1")
        if self.num_bins < 1:
            raise ConfigError("num_bins must be >= 1")
        if self.kde_bandwidth < 1:
            raise ConfigError("kde_bandwidth must be >= 1")
        if self.delay_wait < 0:
            raise ConfigError("delay_wait must be non-negative")


_JOB_POLICIES = ("fifo", "fair", "delay")


@dataclass(frozen=True)
class JobsConfig:
    """Multi-job scheduler parameters (admission control + inter-job sharing).

    Only the cluster plane's :class:`repro.jobs.JobScheduler` reads these;
    single-job ``run()`` calls ride the same scheduler with the defaults.
    """

    max_active_jobs: int = 4
    """Jobs executing concurrently; further submissions wait in the queue."""

    max_queued_jobs: int = 64
    """Bound on the admission queue; a submit past it raises
    :class:`~repro.common.errors.JobRejected` (backpressure, not silent
    unbounded buffering)."""

    policy: str = "fifo"
    """Inter-job sharing policy: ``fifo`` (submission order), ``fair``
    (fair share weighted by outstanding tasks), or ``delay`` (the paper's
    delay-scheduling baseline applied between jobs)."""

    max_inflight_tasks: int = 16
    """Cluster-wide cap on concurrently dispatched tasks across all jobs
    (mirrors the legacy per-phase dispatch pool width)."""

    delay_worker_slots: int = 2
    """Delay policy only: in-flight tasks one worker accepts before a
    task starts waiting for its preferred worker to free up."""

    tick_interval: float = 0.05
    """Scheduler-thread wakeup period while jobs are active, seconds."""

    def __post_init__(self) -> None:
        if self.max_active_jobs < 1:
            raise ConfigError("max_active_jobs must be >= 1")
        if self.max_queued_jobs < 0:
            raise ConfigError("max_queued_jobs must be >= 0")
        if self.policy not in _JOB_POLICIES:
            raise ConfigError(
                f"jobs policy must be one of {_JOB_POLICIES}, got {self.policy!r}"
            )
        if self.max_inflight_tasks < 1:
            raise ConfigError("max_inflight_tasks must be >= 1")
        if self.delay_worker_slots < 1:
            raise ConfigError("delay_worker_slots must be >= 1")
        if self.tick_interval <= 0:
            raise ConfigError("tick_interval must be positive")


_FAULT_OPS = ("drop", "blackhole", "delay", "crash")
_FAULT_SITES = ("send", "serve")


@dataclass(frozen=True)
class FaultRule:
    """One scripted fault at the RPC transport seam.

    A rule matches RPCs by site, endpoint names, and method, then applies
    ``op`` to the ``count`` matches starting at match number ``after_n``
    (every node keeps its own per-rule match counter):

    * ``drop`` -- at ``site="send"`` the call fails with a connection
      error before any byte moves; at ``site="serve"`` the request is
      swallowed without a response (the caller times out), which is what
      a one-way partition looks like from the sender;
    * ``blackhole`` -- (send-side only) the request is admitted but its
      bytes never hit the wire, so the caller waits out its full timeout;
    * ``delay`` -- the call proceeds after ``delay_s`` seconds;
    * ``crash`` -- the matching node exits immediately (SIGKILL-grade:
      no cleanup, heartbeats just stop), for crash-on-Nth-RPC scripts.

    ``src``/``dst`` are node names (worker ids or ``"coordinator"``);
    ``"*"`` matches any.  On the send site ``src`` is the calling node
    and ``dst`` the callee; on the serve site ``dst`` is the serving
    node and ``src`` is unknown (match with ``"*"``).
    """

    op: str
    site: str = "send"
    src: str = "*"
    dst: str = "*"
    method: str = "*"
    after_n: int = 0
    count: int | None = None
    delay_s: float = 0.0
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.op not in _FAULT_OPS:
            raise ConfigError(f"fault op must be one of {_FAULT_OPS}, got {self.op!r}")
        if self.site not in _FAULT_SITES:
            raise ConfigError(f"fault site must be one of {_FAULT_SITES}, got {self.site!r}")
        if self.op == "blackhole" and self.site != "send":
            raise ConfigError("blackhole is a send-side fault (serve-side use drop)")
        if self.after_n < 0:
            raise ConfigError("after_n must be >= 0")
        if self.count is not None and self.count < 1:
            raise ConfigError("count must be >= 1 or None (unbounded)")
        if self.delay_s < 0:
            raise ConfigError("delay_s must be non-negative")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(f"probability must be in [0, 1], got {self.probability}")


@dataclass(frozen=True)
class ChaosConfig:
    """The deterministic fault-injection plane (off by default).

    ``rules`` script faults at the transport seam; ``seed`` pins every
    probabilistic draw (each node derives its RNG from
    ``f"{seed}:{node_id}"``), so the same config replays the same fault
    schedule run after run.  An empty rule list leaves the data plane
    untouched -- no hook is even installed.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise ConfigError(f"rules must be FaultRule instances, got {rule!r}")

    @property
    def active(self) -> bool:
        return bool(self.rules)


@dataclass(frozen=True)
class MembershipConfig:
    """Elastic membership parameters (live join / graceful drain).

    Only the cluster plane's coordinator and job scheduler read these;
    a cluster that never joins or drains a worker never consults them.
    """

    join_register_timeout: float = 30.0
    """Seconds the coordinator waits for a freshly spawned joiner to
    register before the join is aborted and rolled back."""

    drain_timeout: float = 30.0
    """Seconds allowed for a drain's state handoff (block re-replication
    plus spill-object push) before the drain fails."""

    barrier_timeout: float = 60.0
    """Seconds a ``join_worker``/``drain_worker`` caller waits for the
    job scheduler to reach the quiesce barrier (no tasks in flight, no
    live jobs) where membership ops are applied."""

    def __post_init__(self) -> None:
        for name in ("join_register_timeout", "drain_timeout", "barrier_timeout"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class ObserveConfig:
    """Live observability endpoint (Prometheus + dashboard), off by default.

    Only the cluster plane's :class:`~repro.cluster.runtime.ClusterRuntime`
    reads these; with ``enabled=False`` (the default) no server thread,
    socket, or sampling RPC exists at all -- the data plane is untouched.
    """

    enabled: bool = False
    """Start the coordinator-embedded HTTP endpoint with the runtime."""

    host: str = "127.0.0.1"
    """Interface the observability HTTP server binds."""

    port: int = 0
    """TCP port for the endpoint; ``0`` picks an ephemeral port
    (read it back from ``runtime.observer.port``)."""

    sample_interval: float = 1.0
    """Minimum seconds between per-worker ``get_stats`` sampling rounds.
    Scrapes arriving faster than this are served from the last sample,
    so an aggressive scraper cannot amplify RPC load on the workers."""

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must be 0..65535, got {self.port}")
        if self.sample_interval <= 0:
            raise ConfigError("sample_interval must be positive")


@dataclass(frozen=True)
class SpecConfig:
    """Speculative execution of straggling map attempts (off by default).

    Only the cluster plane's :class:`repro.jobs.JobScheduler` reads
    these.  With ``enabled=False`` (the default) no service-time
    tracking, duplicate dispatch, or attempt-race bookkeeping runs and a
    lone submitted job stays bit-equal to the sequential plane.
    """

    enabled: bool = False
    """Launch duplicate attempts for map tasks that run far past the
    job's median map service time (first finisher wins)."""

    slow_factor: float = 2.0
    """A running attempt is a straggler once its elapsed time exceeds
    ``slow_factor x p50`` of the job's settled map attempts."""

    min_samples: int = 3
    """Settled map attempts required before the p50 is trusted; no
    speculation fires earlier."""

    min_runtime_s: float = 0.25
    """Floor on the straggler threshold, seconds: tiny tasks never
    speculate on scheduling jitter alone."""

    max_copies: int = 2
    """Total concurrent attempts per task, the original included."""

    def __post_init__(self) -> None:
        if self.slow_factor < 1.0:
            raise ConfigError(
                f"slow_factor must be >= 1, got {self.slow_factor}"
            )
        if self.min_samples < 1:
            raise ConfigError("min_samples must be >= 1")
        if self.min_runtime_s < 0:
            raise ConfigError("min_runtime_s must be non-negative")
        if self.max_copies < 2:
            raise ConfigError(
                f"max_copies must be >= 2 (the original plus at least one"
                f" duplicate), got {self.max_copies}"
            )


@dataclass(frozen=True)
class HealthConfig:
    """Gray-failure detection and dispatch quarantine (off by default).

    The coordinator keeps a leaky health score per worker, fed by
    heartbeat round-trip latency, task service times, and RPC
    timeout/retry evidence.  A worker whose score crosses
    ``quarantine_threshold`` receives no *new* task dispatches -- it
    still serves block fetches, spill pushes, and heartbeats, and is
    never failed over -- and recovers once the score decays below
    ``recover_threshold`` (hysteresis, so a borderline worker does not
    flap in and out of the dispatch pool).
    """

    enabled: bool = False
    """Track per-worker health scores and quarantine gray workers."""

    quarantine_threshold: float = 2.0
    """Score at or above which a worker stops receiving new dispatches."""

    recover_threshold: float = 0.5
    """Score a quarantined worker must decay to before dispatch resumes;
    must be below ``quarantine_threshold``."""

    decay_halflife_s: float = 5.0
    """Half-life of the exponential score decay, seconds: how fast a
    recovered worker earns its way back."""

    rtt_slow_s: float = 0.25
    """Heartbeat round trips above this are penalized in proportion to
    how far they exceed it."""

    timeout_penalty: float = 1.0
    """Score added per RPC timeout or transport retry against a worker."""

    slow_task_penalty: float = 0.5
    """Score added per task that finishes beyond the straggler threshold
    (``spec.slow_factor x p50``) on a worker."""

    def __post_init__(self) -> None:
        if self.quarantine_threshold <= 0:
            raise ConfigError("quarantine_threshold must be positive")
        if not 0 <= self.recover_threshold < self.quarantine_threshold:
            raise ConfigError(
                "recover_threshold must be in [0, quarantine_threshold); got "
                f"{self.recover_threshold} vs {self.quarantine_threshold}"
            )
        if self.decay_halflife_s <= 0:
            raise ConfigError("decay_halflife_s must be positive")
        if self.rtt_slow_s <= 0:
            raise ConfigError("rtt_slow_s must be positive")
        if self.timeout_penalty < 0 or self.slow_task_penalty < 0:
            raise ConfigError("health penalties must be non-negative")


@dataclass(frozen=True)
class ClusterConfig:
    """The simulated hardware platform (paper §III testbed)."""

    num_nodes: int = 40
    map_slots_per_node: int = 8
    reduce_slots_per_node: int = 8
    memory_per_node: int = 20 * GB

    disk_bandwidth: float = 140 * MB
    """Sequential HDD throughput in bytes/s (7200 rpm 2 TB data disk)."""

    disk_seek_time: float = 0.008
    """Average seek+rotational latency per random access, seconds."""

    network_bandwidth: float = 117 * MB
    """1 GbE payload throughput in bytes/s per link."""

    network_latency: float = 0.0002
    """Per-message one-way latency in seconds."""

    rack_size: int = 20
    """Nodes per top-of-rack switch (the paper wires 20+20 through 2 switches)."""

    uplink_bandwidth: float = 117 * MB
    """Switch-to-switch (core) link bandwidth in bytes/s."""

    page_cache_per_node: int = 12 * GB
    """Memory the OS page cache can use (20 GB minus heap/working memory)."""

    dfs: DFSConfig = field(default_factory=DFSConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    net: NetConfig = field(default_factory=NetConfig)
    jobs: JobsConfig = field(default_factory=JobsConfig)
    chaos: ChaosConfig = field(default_factory=ChaosConfig)
    membership: MembershipConfig = field(default_factory=MembershipConfig)
    observe: ObserveConfig = field(default_factory=ObserveConfig)
    spec: SpecConfig = field(default_factory=SpecConfig)
    health: HealthConfig = field(default_factory=HealthConfig)

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigError("num_nodes must be >= 1")
        if self.map_slots_per_node < 1 or self.reduce_slots_per_node < 0:
            raise ConfigError("slot counts invalid")
        if self.rack_size < 1:
            raise ConfigError("rack_size must be >= 1")
        for name in ("disk_bandwidth", "network_bandwidth", "uplink_bandwidth"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.disk_seek_time < 0 or self.network_latency < 0:
            raise ConfigError("latencies must be non-negative")

    @property
    def total_map_slots(self) -> int:
        return self.num_nodes * self.map_slots_per_node

    def rack_of(self, node_index: int) -> int:
        """Which rack (top-of-rack switch) a node hangs off."""
        if not 0 <= node_index < self.num_nodes:
            raise ConfigError(f"node index {node_index} out of range")
        return node_index // self.rack_size
