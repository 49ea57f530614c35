"""Stress tests for the multiplexed, pipelined RPC data plane.

These pin the three guarantees the cluster layer builds on:

* many concurrent ``call_async`` calls share one connection and complete
  out of order without ever mixing up responses;
* a connection that dies mid-pipeline fails *every* in-flight future
  with a transport error (the ``WorkerLost`` signal);
* oversized payloads are rejected on the send side, before any bytes
  reach the socket, leaving the connection healthy.
"""

import threading
import time
from concurrent.futures import wait

import pytest

from repro.common.config import NetConfig
from repro.common.errors import (
    FramingError,
    NetworkError,
    RpcConnectionError,
)
from repro.net.rpc import Blob, ConnectionPool, RpcClient, RpcServer, fan_out
from repro.sim.metrics import MetricsRegistry


@pytest.fixture()
def server():
    gate = threading.Event()

    def echo(value):
        return value

    def tagged_sleep(tag, duration):
        time.sleep(duration)
        return tag

    def wait_for_gate(tag):
        gate.wait(10.0)
        return tag

    def echo_blob(payload):
        # payload arrives as a memoryview over the frame buffer
        return Blob(bytes(payload))

    def blob_len(payload):
        return len(payload)

    srv = RpcServer(
        {
            "echo": echo,
            "tagged_sleep": tagged_sleep,
            "wait_for_gate": wait_for_gate,
            "echo_blob": echo_blob,
            "blob_len": blob_len,
        },
        net=NetConfig(),
    ).start()
    srv.gate = gate
    yield srv
    gate.set()
    srv.stop()


class TestPipelining:
    def test_many_async_calls_on_one_connection(self, server):
        client = RpcClient(server.host, server.port)
        try:
            futures = [client.call_async("echo", {"value": i}) for i in range(100)]
            assert [f.result(10.0) for f in futures] == list(range(100))
        finally:
            client.close()

    def test_responses_complete_out_of_order(self, server):
        """A slow early request must not block fast later ones."""
        client = RpcClient(server.host, server.port)
        try:
            order: list[str] = []
            slow = client.call_async("tagged_sleep", {"tag": "slow", "duration": 0.4})
            fast = client.call_async("tagged_sleep", {"tag": "fast", "duration": 0.0})
            slow.add_done_callback(lambda f: order.append(f.result()))
            fast.add_done_callback(lambda f: order.append(f.result()))
            wait([slow, fast], timeout=10.0)
            assert order == ["fast", "slow"]
        finally:
            client.close()

    def test_no_response_crosses_callers(self, server):
        """Interleaved calls from many threads each get their own value back."""
        client = RpcClient(server.host, server.port)
        mismatches: list[tuple[int, int]] = []

        def caller(base: int) -> None:
            for i in range(50):
                value = base * 1000 + i
                got = client.call("echo", {"value": value}, timeout=10.0)
                if got != value:
                    mismatches.append((value, got))

        try:
            threads = [threading.Thread(target=caller, args=(t,)) for t in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30.0)
            assert mismatches == []
        finally:
            client.close()

    def test_pipelined_is_concurrent_server_side(self, server):
        """N sleeps pipelined on one connection overlap, not serialize."""
        client = RpcClient(server.host, server.port)
        try:
            started = time.perf_counter()
            futures = [
                client.call_async("tagged_sleep", {"tag": i, "duration": 0.2})
                for i in range(8)
            ]
            assert sorted(f.result(10.0) for f in futures) == list(range(8))
            elapsed = time.perf_counter() - started
            assert elapsed < 8 * 0.2 * 0.75  # far below the serial sum
        finally:
            client.close()


class TestConnectionDeath:
    def test_death_mid_pipeline_fails_every_future(self, server):
        client = RpcClient(server.host, server.port)
        futures = [client.call_async("wait_for_gate", {"tag": i}) for i in range(10)]
        assert client.in_flight == 10
        client.close()  # dies with all 10 in flight
        for future in futures:
            with pytest.raises(NetworkError):
                future.result(5.0)
        server.gate.set()

    def test_server_drop_fails_in_flight(self, server):
        client = RpcClient(server.host, server.port)
        try:
            futures = [client.call_async("wait_for_gate", {"tag": i}) for i in range(5)]
            server.stop()  # coordinator side goes away mid-call
            for future in futures:
                with pytest.raises(RpcConnectionError):
                    future.result(5.0)
            assert client.closed
        finally:
            server.gate.set()
            client.close()

    def test_call_async_after_close_raises(self, server):
        client = RpcClient(server.host, server.port)
        client.close()
        with pytest.raises(RpcConnectionError):
            client.call_async("echo", {"value": 1})


class TestBlobs:
    def test_request_blob_round_trip(self, server):
        client = RpcClient(server.host, server.port)
        try:
            payload = bytes(range(256)) * 1024  # 256 KiB
            assert client.call(
                "blob_len", {}, blob=payload, blob_arg="payload"
            ) == len(payload)
        finally:
            client.close()

    def test_response_blob_round_trip(self, server):
        client = RpcClient(server.host, server.port)
        try:
            payload = b"\x00\x01\x02" * 100_000
            got = client.call("echo_blob", {}, blob=payload, blob_arg="payload")
            assert bytes(got) == payload
        finally:
            client.close()

    def test_pipelined_blobs_do_not_interleave(self, server):
        """Envelope+blob pairs from concurrent senders stay paired."""
        client = RpcClient(server.host, server.port)
        errors: list[str] = []

        def pusher(seed: int) -> None:
            for i in range(20):
                payload = bytes([seed]) * (1000 + i)
                got = client.call("echo_blob", {}, blob=payload, blob_arg="payload",
                                  timeout=10.0)
                if bytes(got) != payload:
                    errors.append(f"seed {seed} iteration {i}")

        try:
            threads = [threading.Thread(target=pusher, args=(s,)) for s in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30.0)
            assert errors == []
        finally:
            client.close()


class TestSendSideLimits:
    def test_oversized_blob_rejected_before_send(self):
        net = NetConfig(max_frame_bytes=4096)
        metrics = MetricsRegistry()
        srv = RpcServer({"blob_len": lambda payload: len(payload)}, net=net).start()
        client = RpcClient(srv.host, srv.port, net=net, metrics=metrics)
        try:
            with pytest.raises(FramingError):
                client.call("blob_len", {}, blob=b"x" * 8192, blob_arg="payload")
            assert metrics.counter("net.frames_rejected").value == 1
            # No bytes hit the socket: the connection is still usable.
            assert not client.closed
            assert client.call("blob_len", {}, blob=b"y" * 100,
                               blob_arg="payload") == 100
        finally:
            client.close()
            srv.stop()

    def test_pool_does_not_retry_send_side_framing_error(self):
        net = NetConfig(max_frame_bytes=4096, retry_attempts=3)
        metrics = MetricsRegistry()
        srv = RpcServer({"blob_len": lambda payload: len(payload)}, net=net).start()
        pool = ConnectionPool(net, metrics=metrics)
        try:
            with pytest.raises(FramingError):
                pool.call(srv.address, "blob_len", {}, blob=b"x" * 8192,
                          blob_arg="payload")
            assert metrics.counter("rpc.retries").value == 0
        finally:
            pool.close_all()
            srv.stop()


class TestPoolFanOut:
    def test_call_many_pipelines_one_peer(self, server):
        pool = ConnectionPool(NetConfig(), metrics=MetricsRegistry())
        try:
            calls = [("echo", {"value": i}) for i in range(30)]
            assert pool.call_many(server.address, calls) == list(range(30))
        finally:
            pool.close_all()

    def test_fan_out_reaches_every_peer(self):
        net = NetConfig()
        servers = [
            RpcServer({"echo": lambda value, t=tag: (t, value)}, net=net).start()
            for tag in range(4)
        ]
        pool = ConnectionPool(net)
        try:
            results = fan_out(lambda addr: pool.call(addr, "echo", {"value": 7}),
                              [s.address for s in servers])
            assert results == [(t, 7) for t in range(4)]
        finally:
            pool.close_all()
            for srv in servers:
                srv.stop()

    def test_fan_out_drains_every_peer_then_raises(self):
        net = NetConfig(retry_attempts=1)
        answered = []

        def slow_echo(value):
            time.sleep(0.1)
            answered.append(value)
            return value

        alive = RpcServer({"echo": slow_echo}, net=net).start()
        dead = RpcServer({"echo": slow_echo}, net=net).start()
        dead_addr = dead.address
        dead.stop()
        pool = ConnectionPool(net)
        try:
            with pytest.raises(NetworkError):
                fan_out(lambda addr: pool.call(addr, "echo", {"value": 1}),
                        [dead_addr, alive.address])
            # The dead peer failed at once; the slow live one still
            # finished before the error surfaced.
            assert answered == [1]
        finally:
            pool.close_all()
            alive.stop()
