"""Tests for the RPC layer: server, client, pool, retry policy."""

import random
import socket
import threading
import time

import pytest

from repro.common.config import NetConfig
from repro.common.errors import (
    ConfigError,
    RpcConnectionError,
    RpcRemoteError,
    RpcTimeout,
)
from repro.net.retry import RetryPolicy
from repro.net.rpc import AfterReply, ConnectionPool, RpcClient, RpcServer
from repro.sim.metrics import MetricsRegistry


@pytest.fixture()
def server():
    events = []

    def echo(value):
        return value

    def boom():
        raise ValueError("it broke")

    def boom_with_data():
        exc = RuntimeError("peer gone")
        exc.rpc_data = {"target": "worker-3"}
        raise exc

    def slow(duration):
        time.sleep(duration)
        return "done"

    srv = RpcServer(
        {"echo": echo, "boom": boom, "boom_with_data": boom_with_data, "slow": slow},
        net=NetConfig(),
    ).start()
    yield srv
    srv.stop()


class TestRpcClientServer:
    def test_echo_round_trip(self, server):
        client = RpcClient(server.host, server.port)
        try:
            assert client.call("echo", {"value": {"k": [1, 2, 3]}}) == {"k": [1, 2, 3]}
        finally:
            client.close()

    def test_sequential_calls_reuse_connection(self, server):
        client = RpcClient(server.host, server.port)
        try:
            for i in range(20):
                assert client.call("echo", {"value": i}) == i
        finally:
            client.close()

    def test_remote_error_propagates_type_and_message(self, server):
        client = RpcClient(server.host, server.port)
        try:
            with pytest.raises(RpcRemoteError) as err:
                client.call("boom")
            assert err.value.etype == "ValueError"
            assert "it broke" in err.value.message
        finally:
            client.close()

    def test_remote_error_carries_rpc_data(self, server):
        client = RpcClient(server.host, server.port)
        try:
            with pytest.raises(RpcRemoteError) as err:
                client.call("boom_with_data")
            assert err.value.data == {"target": "worker-3"}
        finally:
            client.close()

    def test_unknown_method(self, server):
        client = RpcClient(server.host, server.port)
        try:
            with pytest.raises(RpcRemoteError, match="no handler"):
                client.call("does_not_exist")
        finally:
            client.close()

    def test_per_call_timeout(self, server):
        client = RpcClient(server.host, server.port)
        try:
            with pytest.raises(RpcTimeout):
                client.call("slow", {"duration": 5.0}, timeout=0.1)
        finally:
            client.close()

    def test_connect_refused(self):
        # Grab a port that is definitely not listening.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(RpcConnectionError):
            RpcClient("127.0.0.1", port)

    def test_concurrent_clients(self, server):
        errors = []

        def worker(n):
            try:
                client = RpcClient(server.host, server.port)
                try:
                    for i in range(10):
                        assert client.call("echo", {"value": (n, i)}) == (n, i)
                finally:
                    client.close()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_stop_wakes_an_idle_accept_at_once(self):
        """Closing a listening socket does not wake a thread blocked in
        ``accept()`` on Linux; ``stop()`` used to sit out its 2 s join."""
        idle = RpcServer({}).start()
        time.sleep(0.05)  # let the accept thread block
        start = time.monotonic()
        idle.stop()
        assert time.monotonic() - start < 0.5
        assert not idle._accept_thread.is_alive()

    def test_after_reply_runs_once_the_answer_is_out(self):
        """A handler that stops its own server must not cut off its own
        answer: ``then`` runs after the reply was written."""
        for _ in range(20):
            stopped = threading.Event()
            srv = RpcServer({}).start()

            def stop_server():
                srv.stop()
                stopped.set()

            srv.register("quit", lambda: AfterReply("bye", stop_server))
            client = RpcClient(srv.host, srv.port)
            assert client.call("quit", timeout=2.0) == "bye"
            assert stopped.wait(2.0)
            client.close()


class TestRetryPolicy:
    def test_backoff_sequence_is_deterministic_with_pinned_rng(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.1, max_delay=1.0, jitter=0.0, rng=random.Random(7)
        )
        assert [policy.backoff(i) for i in range(5)] == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.8),
            pytest.approx(1.0),  # capped
        ]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.5,
                             rng=random.Random(3))
        for attempt in range(8):
            base = min(10.0, 0.1 * 2**attempt)
            delay = policy.backoff(attempt)
            assert base * 0.5 <= delay <= base * 1.5

    def test_call_retries_then_succeeds(self):
        sleeps = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ConnectionError("nope")
            return "ok"

        policy = RetryPolicy(attempts=4, base_delay=0.5, max_delay=8.0, jitter=0.0,
                             sleep=sleeps.append)
        assert policy.call(flaky, retry_on=(ConnectionError,)) == "ok"
        assert len(calls) == 3
        assert sleeps == [pytest.approx(0.5), pytest.approx(1.0)]

    def test_call_exhausts_attempts(self):
        sleeps = []

        def always_fails():
            raise ConnectionError("still down")

        policy = RetryPolicy(attempts=3, base_delay=0.2, max_delay=1.0, jitter=0.0,
                             sleep=sleeps.append)
        with pytest.raises(ConnectionError):
            policy.call(always_fails, retry_on=(ConnectionError,))
        assert sleeps == [pytest.approx(0.2), pytest.approx(0.4)]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_elapsed=0.0)


class TestRetryDeadline:
    """``max_elapsed``: a total-elapsed budget across one logical call."""

    def test_give_up_sequence_is_pinned_by_the_injected_clock(self):
        """attempts=10 would sleep 1+2+4+8... seconds; a 5 s elapsed budget
        with each attempt burning 1 s stops after sleeps [1, 2] -- the
        third backoff (4 s from t=3) would end past the deadline."""
        now = [0.0]
        sleeps = []
        calls = []

        def failing():
            calls.append(1)
            now[0] += 1.0
            raise ConnectionError("down")

        policy = RetryPolicy(attempts=10, base_delay=1.0, max_delay=8.0,
                             jitter=0.0, max_elapsed=5.0,
                             sleep=sleeps.append, clock=lambda: now[0])
        with pytest.raises(ConnectionError):
            policy.call(failing, retry_on=(ConnectionError,))
        assert sleeps == [pytest.approx(1.0), pytest.approx(2.0)]
        assert len(calls) == 3  # far short of the 10-attempt budget

    def test_gives_up_is_checked_before_sleeping(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=8.0, jitter=0.0,
                             max_elapsed=2.0, clock=lambda: 0.0)
        assert not policy.gives_up(started=0.0, next_delay=2.0)  # lands on it
        assert policy.gives_up(started=0.0, next_delay=2.1)  # would cross it
        unbounded = RetryPolicy(jitter=0.0)
        assert not unbounded.gives_up(started=0.0, next_delay=1e9)

    def test_from_config_carries_the_deadline(self):
        assert RetryPolicy.from_config(NetConfig()).max_elapsed is None
        policy = RetryPolicy.from_config(NetConfig(retry_max_elapsed=1.5))
        assert policy.max_elapsed == pytest.approx(1.5)

    def test_net_config_validates_the_knob(self):
        assert NetConfig(retry_max_elapsed=None).retry_max_elapsed is None
        with pytest.raises(ConfigError):
            NetConfig(retry_max_elapsed=0.0)
        with pytest.raises(ConfigError):
            NetConfig(retry_max_elapsed=-1.0)


class TestConnectionPool:
    def test_a_dial_waits_no_longer_than_the_call_timeout(self, unanswered_address):
        pool = ConnectionPool(NetConfig(connect_timeout=5.0),
                              policy=RetryPolicy(attempts=1))
        start = time.monotonic()
        try:
            with pytest.raises(RpcConnectionError):
                pool.call(unanswered_address, "echo", {"value": 1}, timeout=0.5)
        finally:
            pool.close_all()
        assert time.monotonic() - start < 1.0

    def test_reuses_idle_connections(self, server):
        metrics = MetricsRegistry()
        pool = ConnectionPool(metrics=metrics)
        addr = server.address
        try:
            for i in range(5):
                assert pool.call(addr, "echo", {"value": i}) == i
            assert metrics.counter("net.connections_opened").value == 1
            assert metrics.counter("rpc.calls").value == 5
            assert pool.idle_connections(addr) == 1
        finally:
            pool.close_all()

    def test_retries_transport_failures_with_backoff(self, server):
        sleeps = []
        metrics = MetricsRegistry()
        policy = RetryPolicy(attempts=3, base_delay=0.1, max_delay=1.0, jitter=0.0,
                             sleep=sleeps.append)
        pool = ConnectionPool(metrics=metrics, policy=policy)
        # First two attempts hit a dead port; then we "repair" by pointing at
        # the live server via a tiny TCP forwarder that comes up mid-retry.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_addr = probe.getsockname()[:2]
        probe.close()

        attempts = []

        def sleep_and_revive(delay):
            sleeps.append(delay)
            if len(sleeps) == 2:
                # Third attempt must succeed: start listening on the dead port.
                revive = RpcServer({"echo": lambda value: value},
                                   host=dead_addr[0], port=dead_addr[1])
                revive.start()
                attempts.append(revive)

        policy.sleep = sleep_and_revive
        try:
            assert pool.call(tuple(dead_addr), "echo", {"value": 42}) == 42
            assert sleeps[:2] == [pytest.approx(0.1), pytest.approx(0.2)]
            assert metrics.counter("rpc.retries").value == 2
        finally:
            pool.close_all()
            for srv in attempts:
                srv.stop()

    def test_gives_up_after_attempts(self):
        sleeps = []
        policy = RetryPolicy(attempts=2, base_delay=0.01, max_delay=0.02, jitter=0.0,
                             sleep=sleeps.append)
        metrics = MetricsRegistry()
        pool = ConnectionPool(metrics=metrics, policy=policy)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        addr = probe.getsockname()[:2]
        probe.close()
        try:
            with pytest.raises(RpcConnectionError, match=r"after 2 attempt\(s\)"):
                pool.call(tuple(addr), "echo", {"value": 1})
            assert len(sleeps) == 1
            assert metrics.counter("rpc.failures").value == 1
        finally:
            pool.close_all()

    def test_abandons_retries_past_the_elapsed_deadline(self):
        """A backoff the deadline cannot absorb is never slept: the pool
        gives up immediately and counts the abandonment."""
        sleeps = []
        policy = RetryPolicy(attempts=5, base_delay=10.0, max_delay=10.0,
                             jitter=0.0, max_elapsed=0.05, sleep=sleeps.append)
        metrics = MetricsRegistry()
        pool = ConnectionPool(metrics=metrics, policy=policy)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        addr = probe.getsockname()[:2]
        probe.close()
        try:
            with pytest.raises(RpcConnectionError, match=r"after 1 attempt\(s\)"):
                pool.call(tuple(addr), "echo", {"value": 1})
            assert sleeps == []  # the 10 s backoff was never started
            assert metrics.counter("rpc.retries_abandoned").value == 1
            assert metrics.counter("rpc.retries").value == 0
            assert metrics.counter("rpc.failures").value == 1
        finally:
            pool.close_all()

    def test_timeout_is_not_retried(self, server):
        sleeps = []
        policy = RetryPolicy(attempts=5, base_delay=0.01, max_delay=0.1, jitter=0.0,
                             sleep=sleeps.append)
        pool = ConnectionPool(policy=policy)
        try:
            with pytest.raises(RpcTimeout):
                pool.call(server.address, "slow", {"duration": 5.0}, timeout=0.1)
            assert sleeps == []  # a timed-out call may still execute remotely
        finally:
            pool.close_all()

    def test_remote_error_keeps_connection(self, server):
        metrics = MetricsRegistry()
        pool = ConnectionPool(metrics=metrics)
        try:
            with pytest.raises(RpcRemoteError):
                pool.call(server.address, "boom")
            # The transport is fine; the same connection serves the next call.
            assert pool.call(server.address, "echo", {"value": "ok"}) == "ok"
            assert metrics.counter("net.connections_opened").value == 1
        finally:
            pool.close_all()

    def test_close_address_drops_idle(self, server):
        pool = ConnectionPool()
        try:
            pool.call(server.address, "echo", {"value": 1})
            assert pool.idle_connections(server.address) == 1
            pool.close_address(server.address)
            assert pool.idle_connections(server.address) == 0
        finally:
            pool.close_all()
