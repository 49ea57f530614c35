"""Heartbeat-based liveness.

Workers push a small heartbeat RPC to the coordinator on a fixed
interval; the coordinator's :class:`LivenessTracker` stamps each arrival
and declares a worker dead once it has been silent for
``miss_threshold`` intervals.  The tracker takes an injectable clock so
failure detection is unit-testable without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.common.config import NetConfig
from repro.common.errors import ClusterError, NetworkError
from repro.cluster.messages import heartbeat_args
from repro.net.rpc import RpcClient

__all__ = ["LivenessTracker", "HeartbeatSender"]


class LivenessTracker:
    """Last-seen timestamps plus the miss-threshold liveness judgment."""

    def __init__(
        self,
        interval: float,
        miss_threshold: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval <= 0:
            raise ClusterError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ClusterError("miss threshold must be >= 1")
        self.interval = float(interval)
        self.miss_threshold = int(miss_threshold)
        self.clock = clock
        self._last_seen: dict[str, float] = {}
        self._beats: dict[str, int] = {}
        self._rtts: dict[str, float] = {}
        self._lock = threading.Lock()

    @property
    def deadline(self) -> float:
        """Silence longer than this means dead."""
        return self.interval * self.miss_threshold

    def register(self, worker_id: str) -> None:
        """Start tracking a worker (registration counts as a first beat)."""
        with self._lock:
            self._last_seen[worker_id] = self.clock()
            self._beats.setdefault(worker_id, 0)

    def beat(self, worker_id: str, rtt_s: Optional[float] = None) -> None:
        with self._lock:
            if worker_id not in self._last_seen:
                return  # late heartbeat from a worker already declared dead
            self._last_seen[worker_id] = self.clock()
            self._beats[worker_id] += 1
            if rtt_s is not None and rtt_s >= 0:
                self._rtts[worker_id] = float(rtt_s)

    def remove(self, worker_id: str) -> None:
        with self._lock:
            self._last_seen.pop(worker_id, None)
            self._beats.pop(worker_id, None)
            self._rtts.pop(worker_id, None)

    def age(self, worker_id: str) -> float:
        """Seconds since the worker's last heartbeat."""
        with self._lock:
            if worker_id not in self._last_seen:
                raise ClusterError(f"worker {worker_id!r} is not tracked")
            return self.clock() - self._last_seen[worker_id]

    def alive(self, worker_id: str) -> bool:
        return self.age(worker_id) <= self.deadline

    def dead_workers(self) -> list[str]:
        """Workers whose silence has crossed the miss threshold."""
        now = self.clock()
        with self._lock:
            return [
                wid
                for wid, last in self._last_seen.items()
                if now - last > self.deadline
            ]

    def beats_of(self, worker_id: str) -> int:
        with self._lock:
            return self._beats.get(worker_id, 0)

    def rtt_of(self, worker_id: str) -> Optional[float]:
        """Latest heartbeat round-trip latency a worker reported, or
        ``None`` before its first measured beat arrives."""
        with self._lock:
            return self._rtts.get(worker_id)

    def tracked(self) -> list[str]:
        with self._lock:
            return list(self._last_seen)


class HeartbeatSender:
    """Worker-side thread pushing heartbeats to the coordinator.

    Reconnects on failure; after ``max_consecutive_failures`` straight
    misses it assumes the coordinator is gone and fires
    ``on_coordinator_lost`` so the orphaned worker process can exit
    instead of lingering forever.
    """

    def __init__(
        self,
        worker_id: str,
        coordinator: tuple[str, int],
        net: NetConfig,
        on_coordinator_lost: Optional[Callable[[], None]] = None,
        fault_hook: Optional[Callable] = None,
    ) -> None:
        self.worker_id = worker_id
        self.coordinator = coordinator
        self.net = net
        self.on_coordinator_lost = on_coordinator_lost
        #: Chaos seam (see ``RpcClient.fault_hook``): heartbeats go over
        #: their own connection, so partitioning data traffic away from a
        #: worker can leave its heartbeats flowing -- or vice versa.
        self.fault_hook = fault_hook
        self.max_consecutive_failures = max(2, 2 * net.heartbeat_miss_threshold)
        self.sent = 0
        self.last_rtt: float | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat:{worker_id}", daemon=True
        )
        self._client: RpcClient | None = None

    def start(self) -> "HeartbeatSender":
        self._thread.start()
        return self

    def _run(self) -> None:
        failures = 0
        rtt: float | None = None  # previous beat's round trip, shipped one late
        while not self._stop.wait(self.net.heartbeat_interval):
            try:
                if self._client is None:
                    self._client = RpcClient(*self.coordinator, net=self.net)
                    self._client.fault_hook = self.fault_hook
                started = time.monotonic()
                self._client.call(
                    "heartbeat",
                    heartbeat_args(self.worker_id, self.sent, rtt),
                    timeout=max(self.net.heartbeat_interval, 1.0),
                )
                rtt = time.monotonic() - started
                self.last_rtt = rtt
                self.sent += 1
                failures = 0
            except NetworkError:
                failures += 1
                rtt = None  # a reconnect's first beat carries no sample
                if self._client is not None:
                    self._client.close()
                    self._client = None
                if failures >= self.max_consecutive_failures:
                    if self.on_coordinator_lost is not None:
                        self.on_coordinator_lost()
                    return

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():  # never started when start-up failed
            self._thread.join(timeout=2.0)
        if self._client is not None:
            self._client.close()
            self._client = None
