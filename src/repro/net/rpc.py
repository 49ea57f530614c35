"""A multiplexed, pipelined request/response RPC layer over framed TCP.

Requests and responses are pickled envelopes sharing one connection::

    {"id": 7, "method": "push_spill", "args": {...}}
    {"id": 7, "ok": True, "value": ...}
    {"id": 7, "ok": False, "etype": "BlockNotFound", "error": "...", "data": ...}

Envelope ids let *many* calls share one connection concurrently: a
:class:`RpcClient` owns a reader thread that matches response ids to
pending futures, so ``call_async`` returns immediately and responses may
complete out of order.  A transport failure fails every in-flight future
with :class:`RpcConnectionError` -- no future is ever resolved with
another call's response.

Bulk bytes travel *out of band*: an envelope carrying ``"blob_arg"``
(request) or ``"blob": True`` (response) is immediately followed by one
raw frame holding the payload.  The payload is never pickled into the
envelope and never concatenated with it -- the sender validates both
frame lengths up front and puts header + envelope + header + payload on
the wire in one vectored ``sendmsg``; the receiver's
:class:`~repro.net.framing.FrameDecoder` hands the payload back as a
``memoryview`` over its own buffer.  That removes the pickle copy and
the frame-assembly copy on every block upload, block fetch, and spill
push (the paper's proactive shuffle lives and dies on this path, §II-D).

Responses larger than one frame *stream*: a handler that returns
:class:`Stream` ships its payload as a paged sequence of out-of-band raw
frames bracketed by ``stream begin`` / ``stream end`` envelopes, each
``stream chunk`` envelope announcing the page frame that follows it.
Chunk pairs are sent atomically but independently, so pages of two
concurrent streams (and ordinary responses) interleave freely on one
connection; the client buffers pages by envelope id and resolves the
call's future with a :class:`StreamResult` only at ``stream end``.  A
transport death mid-stream discards the partial page buffer (counted in
``rpc.streams_aborted``) and fails the future like any other in-flight
call -- the caller re-executes, it never sees half a stream.

The transport also applies **backpressure**: each connection admits at
most ``net.max_in_flight`` requests awaiting responses; ``call_async``
blocks (it does not queue) until a response frees a window slot, so
fan-in can no longer grow either peer's memory without bound.  The
current window occupancy is exported as the ``rpc.in_flight`` gauge
(its ``max_seen`` is the observed peak).

:class:`RpcServer` reads each connection's stream through a long-lived
decoder and dispatches every request to a per-connection thread pool, so
pipelined requests execute concurrently and responses are written (under
a send lock) as they finish.  :class:`ConnectionPool` keeps **one
multiplexed connection per address** shared by all callers, layers
:class:`~repro.net.retry.RetryPolicy` over transport failures, and
offers ``call_many`` (pipelined batch to one peer); :func:`fan_out` runs
a call over many peers concurrently.  Remote application errors are *not*
retried.  All sides count traffic into an optional
:class:`~repro.sim.metrics.MetricsRegistry`; the pool also records a
per-call latency histogram (``rpc.latency_s``).

Both ends expose a **fault hook** for the deterministic chaos plane
(:mod:`repro.chaos`): ``fault_hook`` on a client/pool runs before a
request's bytes hit the wire and may *drop* the call (raises
:class:`RpcConnectionError` -- a synthetic transport failure, retried
like a real one), *black-hole* it (the request is admitted and its
future registered, but nothing is sent, so the caller waits out its
timeout), or *delay* it (a ``("delay", seconds)`` action: the request
is admitted and registered immediately, and its bytes hit the wire from
a timer thread after the scripted latency -- the caller's thread never
blocks, so a delayed send cannot stall an unrelated caller sharing it);
``fault_hook`` on a server runs before dispatch and may
swallow the request whole (no response -- what a one-way partition looks
like).  With no hook installed, none of these paths execute.
"""

from __future__ import annotations

import dataclasses
import pickle
import socket
import struct
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Any, Callable, Optional, Sequence

from repro.common.config import NetConfig
from repro.common.errors import (
    FramingError,
    NetworkError,
    RpcConnectionError,
    RpcRemoteError,
    RpcTimeout,
)
from repro.net.codec import Codec, decode_payload, encode_payload, resolve_codec
from repro.net.framing import FrameDecoder, encode_header, sendv
from repro.net.retry import RetryPolicy

__all__ = ["AfterReply", "Blob", "Stream", "StreamResult", "RpcServer", "RpcClient",
           "ConnectionPool", "fan_out"]

Handler = Callable[..., Any]

_TRANSPORT_ERRORS = (RpcConnectionError, ConnectionError, FramingError, OSError)

_RECV_CHUNK = 256 * 1024


class Blob:
    """Marks a bytes-like value for out-of-band (zero-copy) transport.

    A handler that returns ``Blob(data)`` ships ``data`` as a raw frame
    beside the response envelope instead of pickling it; the caller
    receives the raw bytes-like object as the call's value.
    """

    __slots__ = ("data",)

    def __init__(self, data) -> None:
        self.data = data

    def __len__(self) -> int:
        return len(self.data)


class Stream:
    """Marks an iterable of bytes-like pages for streamed transport.

    A handler that returns ``Stream(pages)`` ships each page as its own
    out-of-band raw frame (a ``stream chunk``), bracketed by ``begin`` /
    ``end`` envelopes; the caller's future resolves to a
    :class:`StreamResult` holding every page in order.  ``pages`` may be
    a generator -- the server pulls pages one at a time while sending, so
    a response far larger than ``max_frame_bytes`` crosses the wire
    without either side materializing it as one buffer.  ``value`` is a
    small picklable header (metadata about the stream) carried in the
    ``begin`` envelope.
    """

    __slots__ = ("pages", "value")

    def __init__(self, pages, value: Any = None) -> None:
        self.pages = pages
        self.value = value


class AfterReply:
    """Marks a value whose ``then`` must run only once the reply is written.

    A handler that returns ``AfterReply(value, then)`` answers ``value``
    like any other handler; the server calls ``then()`` from the same
    connection thread after the reply has been handed to the socket (or
    the connection turned out to be dead).  This is how a handler asks
    for the server itself to be stopped without racing its own answer.
    """

    __slots__ = ("value", "then")

    def __init__(self, value: Any, then: Callable[[], None]) -> None:
        self.value = value
        self.then = then


class StreamResult:
    """What a streamed call resolves to: the header plus the page frames.

    ``pages`` are bytes-like objects (memoryviews over per-frame buffers
    on the zero-copy receive path) in send order; ``join()`` concatenates
    them for callers that want the flat payload back.
    """

    __slots__ = ("value", "pages")

    def __init__(self, value: Any, pages: list) -> None:
        self.value = value
        self.pages = pages

    def join(self) -> bytes:
        return b"".join(bytes(p) for p in self.pages)

    def __len__(self) -> int:
        return len(self.pages)


def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


class _Channel:
    """Framed envelope+blob I/O shared by both ends of a connection.

    Owns the send lock and the stream state machine that pairs an
    envelope announcing a blob with the raw frame that follows it.
    """

    def __init__(self, sock: socket.socket, max_frame_bytes: int,
                 codec: Optional[Codec] = None, compress_min_bytes: int = 0,
                 metrics=None) -> None:
        self.sock = sock
        self.max_frame_bytes = max_frame_bytes
        self.codec = codec
        self.compress_min_bytes = compress_min_bytes
        self._metrics = metrics
        self.send_lock = threading.Lock()
        self.decoder = FrameDecoder(max_frame_bytes, copy=False)
        self._awaiting_blob: dict | None = None

    def send_envelope(self, envelope: dict, blob=None) -> int:
        """Pickle + send one envelope (and its optional out-of-band blob).

        Both frame lengths are validated before any byte is written, so
        an oversized payload raises :class:`FramingError` with the
        connection still healthy at a frame boundary.

        With a codec configured, the blob is compressed here -- this is
        the single choke point every out-of-band payload crosses (request
        blobs, blob responses, stream pages) -- and the envelope gains an
        ``"enc"`` tag naming the codec.  An incompressible payload ships
        raw with no tag, bit-identical to the codec-less wire.
        """
        if blob is not None and self.codec is not None:
            logical = len(blob)
            blob, enc = encode_payload(blob, self.codec, self.compress_min_bytes)
            if enc is not None:
                envelope["enc"] = enc
                self._count("net.pages_compressed", 1)
            else:
                self._count("net.pages_raw", 1)
            self._count("net.bytes_logical", logical)
            self._count("net.bytes_wire", len(blob))
        raw = _dumps(envelope)
        buffers = [encode_header(len(raw), self.max_frame_bytes), raw]
        if blob is not None:
            buffers.append(encode_header(len(blob), self.max_frame_bytes))
            buffers.append(blob)
        with self.send_lock:
            return sendv(self.sock, buffers)

    def feed(self, chunk) -> list[dict]:
        """Decode a recv'd chunk into completed envelopes.

        A blob frame is attached to its announcing envelope under the
        ``"__blob__"`` key; the envelope is only surfaced once its blob
        has fully arrived.  A payload whose envelope carries an ``enc``
        tag is decompressed here, by the sender's declared codec --
        decoding never consults local config, so mixed-compression peers
        interoperate.
        """
        out: list[dict] = []
        for frame in self.decoder.feed(chunk):
            if self._awaiting_blob is not None:
                envelope = self._awaiting_blob
                self._awaiting_blob = None
                envelope["__blob__"] = decode_payload(frame, envelope.get("enc"))
                out.append(envelope)
                continue
            envelope = pickle.loads(frame)
            if envelope.get("blob_arg") is not None or envelope.get("blob"):
                self._awaiting_blob = envelope
            else:
                out.append(envelope)
        return out

    def _count(self, name: str, amount: float) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(amount)


class RpcServer:
    """A threaded TCP server dispatching framed requests to named handlers.

    Each accepted connection gets a reader thread plus a small executor:
    pipelined requests on one connection run concurrently and responses
    go out in completion order (ids restore the pairing client-side).
    """

    def __init__(
        self,
        handlers: dict[str, Handler] | None = None,
        net: NetConfig | None = None,
        host: str | None = None,
        port: int = 0,
        metrics=None,
    ) -> None:
        self.net = net or NetConfig()
        self._handlers: dict[str, Handler] = dict(handlers or {})
        self._metrics = metrics
        self._codec = resolve_codec(self.net.compression, self.net.compression_level)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host or self.net.host, port))
        self._sock.listen(128)
        self.host, self.port = self._sock.getsockname()[:2]
        self._running = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._conns: set[socket.socket] = set()
        self._lock = threading.Lock()
        #: Chaos seam: ``hook(method) -> "drop" | None`` runs before each
        #: request is handled; ``"drop"`` swallows it (no response).
        self.fault_hook: Optional[Callable[[str], Optional[str]]] = None

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def register(self, name: str, handler: Handler) -> None:
        self._handlers[name] = handler

    def start(self) -> "RpcServer":
        self._running.set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"rpc-accept:{self.port}", daemon=True
        )
        self._accept_thread.start()
        return self

    # -- serving ----------------------------------------------------------------

    def _accept_loop(self) -> None:
        while self._running.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # listener closed by stop()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name=f"rpc-conn:{self.port}", daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        channel = _Channel(conn, self.net.max_frame_bytes, self._codec,
                           self.net.compression_min_bytes, self._metrics)
        pool = ThreadPoolExecutor(
            max_workers=self.net.rpc_concurrency,
            thread_name_prefix=f"rpc-handler:{self.port}",
        )
        try:
            while self._running.is_set():
                try:
                    chunk = conn.recv(_RECV_CHUNK)
                except OSError:
                    return
                if not chunk:
                    return  # peer closed
                self._count("net.bytes_received", len(chunk))
                try:
                    requests = channel.feed(chunk)
                except (FramingError, pickle.UnpicklingError, struct.error):
                    return  # garbage on the wire; drop the connection
                for request in requests:
                    pool.submit(self._serve_request, channel, request)
        finally:
            pool.shutdown(wait=False)
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _serve_request(self, channel: _Channel, request: dict) -> None:
        hook = self.fault_hook
        if hook is not None and hook(request.get("method", "")) == "drop":
            self._count("rpc.requests_swallowed", 1)
            return  # scripted one-way partition: the caller times out
        response, blob = self._handle(request)
        if isinstance(blob, Stream):
            self._serve_stream(channel, response, blob)
            return
        if isinstance(blob, AfterReply):
            try:
                self._send_reply(channel, response, None)
            finally:
                blob.then()
            return
        self._send_reply(channel, response, blob)

    def _send_reply(self, channel: _Channel, response: dict, blob: Any) -> None:
        try:
            sent = channel.send_envelope(response, blob)
        except FramingError:
            # The response does not fit in a frame; the connection is
            # still at a boundary, so report the failure in-band.
            self._count("net.frames_rejected", 1)
            err = {"id": response.get("id"), "ok": False, "etype": "FramingError",
                   "error": "response exceeds the frame size limit", "data": None}
            try:
                sent = channel.send_envelope(err)
            except OSError:
                return
        except OSError:
            return
        self._count("net.bytes_sent", sent)

    def _serve_stream(self, channel: _Channel, begin: dict, stream: Stream) -> None:
        """Send one streamed response: begin, page chunks, end.

        Each chunk (envelope + page frame) is sent atomically but
        independently, so other responses -- and other streams -- may
        interleave between pages on the same connection.  Pages are
        pulled from the (possibly lazy) iterable one at a time, so the
        server never holds more than one encoded page of a large
        response.  A failure mid-iteration (oversized page, handler
        exception inside a generator) is reported by a failing ``end``
        envelope: the client discards the partial page buffer and raises,
        with the connection still healthy at a frame boundary.
        """
        rid = begin.get("id")
        try:
            sent = channel.send_envelope(begin)
        except OSError:
            return
        self._count("net.bytes_sent", sent)
        pages_sent = 0
        error: tuple[str, str] | None = None
        try:
            for page in stream.pages:
                chunk = {"id": rid, "stream": "chunk", "seq": pages_sent, "blob": True}
                sent = channel.send_envelope(chunk, page)
                self._count("net.bytes_sent", sent)
                pages_sent += 1
        except FramingError as exc:
            # The oversized page was rejected before any of its bytes hit
            # the wire, so the stream can still end cleanly in-band.
            self._count("net.frames_rejected", 1)
            error = ("FramingError", str(exc))
        except OSError:
            return
        except Exception as exc:  # the pages iterable failed mid-stream
            self._count("rpc.handler_errors", 1)
            error = (type(exc).__name__, str(exc))
        if error is None:
            end = {"id": rid, "ok": True, "stream": "end", "pages": pages_sent}
            self._count("rpc.streams_served", 1)
            self._count("rpc.stream_pages_sent", pages_sent)
        else:
            end = {"id": rid, "ok": False, "stream": "end",
                   "etype": error[0], "error": error[1], "data": None}
        try:
            sent = channel.send_envelope(end)
        except OSError:
            return
        self._count("net.bytes_sent", sent)

    def _handle(self, request: dict) -> tuple[dict, Any]:
        rid = request.get("id")
        try:
            method = request["method"]
            handler = self._handlers[method]
        except KeyError as exc:
            return ({"id": rid, "ok": False, "etype": "UnknownMethod",
                     "error": f"no handler for {exc}", "data": None}, None)
        args = dict(request.get("args") or {})
        blob_arg = request.get("blob_arg")
        if blob_arg is not None:
            args[blob_arg] = request.get("__blob__")
        self._count("rpc.served", 1)
        try:
            value = handler(**args)
        except Exception as exc:
            self._count("rpc.handler_errors", 1)
            return ({
                "id": rid,
                "ok": False,
                "etype": type(exc).__name__,
                "error": str(exc),
                "data": getattr(exc, "rpc_data", None),
            }, None)
        if isinstance(value, Blob):
            return ({"id": rid, "ok": True, "value": None, "blob": True}, value.data)
        if isinstance(value, Stream):
            return ({"id": rid, "ok": True, "stream": "begin",
                     "value": value.value}, value)
        if isinstance(value, AfterReply):
            return ({"id": rid, "ok": True, "value": value.value}, value)
        return ({"id": rid, "ok": True, "value": value}, None)

    def stop(self) -> None:
        self._running.clear()
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so the join below returns at once.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def _count(self, name: str, amount: float) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(amount)


class RpcClient:
    """One TCP connection multiplexing many concurrent in-flight calls.

    ``call_async`` assigns an envelope id, registers a future, and
    returns; a dedicated reader thread completes futures as responses
    arrive (in any order).  ``call`` is the blocking convenience wrapper.
    When the transport dies, every in-flight future fails with
    :class:`RpcConnectionError` -- exactly the signal the cluster layer
    converts into ``WorkerLost``.

    At most ``net.max_in_flight`` requests may await responses at once:
    ``call_async`` blocks on the window semaphore until a slot frees
    (a response arrives, a call is cancelled, or the transport dies), so
    a caller cannot pipeline unbounded state onto one connection.  The
    occupancy is exported as the ``rpc.in_flight`` gauge.

    Streamed responses are reassembled here: pages announced by ``stream
    chunk`` envelopes are buffered per request id (``rpc.stream_pages``
    gauge tracks the buffered count) and handed to the future as a
    :class:`StreamResult` at ``stream end``.  ``stream_page_hook``, when
    set, is invoked as ``hook(address, pages_so_far)`` after each page
    arrives -- the fault-injection tests use it to kill a peer
    mid-stream at a deterministic point.
    """

    def __init__(self, host: str, port: int, net: NetConfig | None = None, metrics=None) -> None:
        self.net = net or NetConfig()
        self.address = (host, port)
        self._metrics = metrics
        self._lock = threading.Lock()
        self._next_id = 0
        self._pending: dict[int, Future] = {}
        self._streams: dict[int, list] = {}
        self._window = threading.Semaphore(self.net.max_in_flight)
        self._admitted = 0
        self._closed = False
        self.stream_page_hook: Optional[Callable[[tuple[str, int], int], None]] = None
        #: Chaos seam: ``hook(addr, method) -> "drop" | "blackhole" | None``
        #: runs before each request is sent (see the module docstring).
        self.fault_hook: Optional[Callable[[tuple[str, int], str], Optional[str]]] = None
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=self.net.connect_timeout
            )
        except OSError as exc:
            raise RpcConnectionError(f"cannot connect to {host}:{port}: {exc}") from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(None)  # the reader blocks; per-call timeouts are future-side
        self._channel = _Channel(
            self._sock, self.net.max_frame_bytes,
            resolve_codec(self.net.compression, self.net.compression_level),
            self.net.compression_min_bytes, self._metrics,
        )
        self._reader = threading.Thread(
            target=self._read_loop, name=f"rpc-reader:{host}:{port}", daemon=True
        )
        self._reader.start()

    # -- issuing calls ---------------------------------------------------------

    def call_async(self, method: str, args: dict[str, Any] | None = None,
                   blob=None, blob_arg: str | None = None) -> Future:
        """Pipeline one request; the returned future resolves to its value.

        ``blob`` ships out-of-band as a raw frame; ``blob_arg`` names the
        handler keyword it binds to.  Frame-size violations raise
        :class:`FramingError` here, before any bytes are sent.

        Blocks while ``net.max_in_flight`` requests are already awaiting
        responses on this connection -- the transport's backpressure
        window.  The slot is held until the call's future completes
        (response, cancellation, or transport death).
        """
        action: Any = None
        delay_s = 0.0
        hook = self.fault_hook
        if hook is not None:
            action = hook(self.address, method)
            if action == "drop":
                self._count("net.sends_dropped", 1)
                raise RpcConnectionError(
                    f"{method} to {self.address} dropped by fault injection"
                )
            if isinstance(action, tuple) and action[0] == "delay":
                delay_s = float(action[1])
                action = None  # the send still happens, just later
        self._window_acquire()
        admitted = False
        try:
            future: Future = Future()
            with self._lock:
                if self._closed:
                    raise RpcConnectionError(f"connection to {self.address} is closed")
                self._next_id += 1
                rid = self._next_id
                self._pending[rid] = future
            envelope: dict[str, Any] = {"id": rid, "method": method, "args": args or {}}
            if blob is not None:
                if blob_arg is None:
                    raise ValueError("blob requires blob_arg naming the handler keyword")
                envelope["blob_arg"] = blob_arg
                if len(blob) > self.net.max_frame_bytes:
                    self._forget(rid)
                    self._count("net.frames_rejected", 1)
                    raise FramingError(
                        f"blob of {len(blob)} bytes exceeds the "
                        f"{self.net.max_frame_bytes}-byte frame limit"
                    )
            try:
                if action == "blackhole":
                    # Admitted and registered, but nothing hits the wire:
                    # the caller waits out its timeout, exactly like a
                    # request lost inside a partitioned network.
                    self._count("net.sends_blackholed", 1)
                    sent = 0
                elif delay_s > 0.0:
                    # Scripted latency: admitted and registered now, bytes
                    # on the wire later from a timer thread.  The caller's
                    # per-call deadline keeps running, so a delay longer
                    # than the timeout looks exactly like a straggling
                    # link; crucially, the *calling thread* never sleeps.
                    self._count("net.sends_delayed", 1)
                    self._defer_send(rid, future, envelope, blob, delay_s)
                    sent = 0
                else:
                    sent = self._channel.send_envelope(envelope, blob)
            except FramingError:
                self._forget(rid)
                self._count("net.frames_rejected", 1)
                raise
            except OSError as exc:
                self._forget(rid)
                self._teardown(RpcConnectionError(f"send to {self.address} failed: {exc}"))
                raise RpcConnectionError(f"{method} to {self.address}: {exc}") from exc
            admitted = True
        finally:
            if not admitted:
                self._window_release()
        # If the response already arrived, the callback fires immediately.
        future.add_done_callback(self._window_done)
        self._count("net.bytes_sent", sent)
        return future

    def _defer_send(self, rid: int, future: Future, envelope: dict,
                    blob, delay_s: float) -> None:
        """Put a chaos-delayed request on the wire after ``delay_s``.

        Runs on a daemon :class:`threading.Timer` thread;
        ``_Channel.send_envelope`` takes the channel's own send lock, so
        the late send interleaves safely with concurrent normal sends.
        A connection torn down in the meantime surfaces as ``OSError``
        and fails over exactly like a live send failure.
        """
        def fire() -> None:
            try:
                sent = self._channel.send_envelope(envelope, blob)
            except FramingError as exc:
                self._forget(rid)
                self._count("net.frames_rejected", 1)
                if not future.done():
                    future.set_exception(exc)
                return
            except OSError as exc:
                self._teardown(
                    RpcConnectionError(f"send to {self.address} failed: {exc}")
                )
                return
            self._count("net.bytes_sent", sent)

        timer = threading.Timer(delay_s, fire)
        timer.daemon = True
        timer.start()

    # -- the in-flight window ---------------------------------------------------

    def _window_acquire(self) -> None:
        """Take one in-flight slot; block while the window is full.

        Polls so a connection closed underneath a blocked caller raises
        instead of hanging (teardown cannot know how many callers wait).
        """
        while not self._window.acquire(timeout=0.05):
            with self._lock:
                if self._closed:
                    raise RpcConnectionError(
                        f"connection to {self.address} is closed"
                    )
        with self._lock:
            self._admitted += 1
            occupancy = self._admitted
        self._gauge("rpc.in_flight", occupancy)

    def _window_release(self) -> None:
        with self._lock:
            self._admitted -= 1
            occupancy = self._admitted
        self._gauge("rpc.in_flight", occupancy)
        self._window.release()

    def _window_done(self, _future: Future) -> None:
        self._window_release()

    def call(self, method: str, args: dict[str, Any] | None = None,
             timeout: float | None = None, blob=None, blob_arg: str | None = None) -> Any:
        """Send one request and wait for its response (per-call timeout)."""
        future = self.call_async(method, args, blob=blob, blob_arg=blob_arg)
        try:
            return future.result(timeout if timeout is not None else self.net.call_timeout)
        except FutureTimeout:
            # The call may still be executing remotely; the reader will
            # discard its (now orphaned) response when it arrives.
            future.cancel()
            raise RpcTimeout(f"{method} to {self.address} timed out") from None

    # -- the reader ------------------------------------------------------------

    def _read_loop(self) -> None:
        error: NetworkError
        try:
            while True:
                chunk = self._sock.recv(_RECV_CHUNK)
                if not chunk:
                    error = RpcConnectionError(
                        f"{self.address} closed the connection mid-call"
                    )
                    break
                self._count("net.bytes_received", len(chunk))
                for envelope in self._channel.feed(chunk):
                    self._complete(envelope)
        except (FramingError, pickle.UnpicklingError, struct.error) as exc:
            # Garbage from the peer is a transport failure (retryable),
            # unlike a send-side FramingError raised before any bytes move.
            error = RpcConnectionError(f"garbage from {self.address}: {exc}")
        except OSError as exc:
            error = RpcConnectionError(f"connection to {self.address} died: {exc}")
        self._teardown(error)

    def _complete(self, response: dict) -> None:
        rid = response.get("id")
        stream = response.get("stream")
        if stream == "begin":
            with self._lock:
                # Only open a buffer for a call someone still waits on; a
                # cancelled call's stream is discarded page by page.
                if rid in self._pending:
                    self._streams[rid] = StreamResult(response.get("value"), [])
            return
        if stream == "chunk":
            with self._lock:
                partial = self._streams.get(rid)
                if partial is not None:
                    partial.pages.append(response.get("__blob__"))
                    pages = len(partial.pages)
                    buffered = sum(len(s.pages) for s in self._streams.values())
            if partial is None:
                self._count("rpc.orphan_responses", 1)
                return
            self._gauge("rpc.stream_pages", buffered)
            hook = self.stream_page_hook
            if hook is not None:
                try:
                    hook(self.address, pages)
                except Exception:
                    pass  # a chaos hook must not take down the reader
            return
        if stream == "end":
            with self._lock:
                partial = self._streams.pop(rid, None)
                future = self._pending.pop(rid, None)
                buffered = sum(len(s.pages) for s in self._streams.values())
            self._gauge("rpc.stream_pages", buffered)
            if future is None:
                self._count("rpc.orphan_responses", 1)
                return
            if not future.set_running_or_notify_cancel():
                return  # caller timed out and cancelled
            if response.get("ok"):
                self._count("rpc.streams_completed", 1)
                future.set_result(partial if partial is not None
                                  else StreamResult(None, []))
            else:
                self._count("rpc.streams_aborted", 1)
                future.set_exception(RpcRemoteError(
                    response.get("etype", "Exception"),
                    response.get("error", ""),
                    response.get("data"),
                ))
            return
        with self._lock:
            future = self._pending.pop(rid, None)
        if future is None:
            self._count("rpc.orphan_responses", 1)  # abandoned after a timeout
            return
        if response.get("ok"):
            value = response.get("__blob__") if response.get("blob") else response.get("value")
            if not future.set_running_or_notify_cancel():
                return  # caller timed out and cancelled
            future.set_result(value)
        else:
            err = RpcRemoteError(
                response.get("etype", "Exception"),
                response.get("error", ""),
                response.get("data"),
            )
            if not future.set_running_or_notify_cancel():
                return
            future.set_exception(err)

    def _forget(self, rid: int) -> None:
        with self._lock:
            self._pending.pop(rid, None)

    def _teardown(self, error: NetworkError) -> None:
        """Fail every in-flight future; no response can ever arrive now.

        Partial streams are discarded whole (counted in
        ``rpc.streams_aborted``) -- their futures fail like any other
        in-flight call, so a caller never observes half a stream.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            pending = list(self._pending.values())
            self._pending.clear()
            aborted_streams = len(self._streams)
            self._streams.clear()
        if aborted_streams:
            self._count("rpc.streams_aborted", aborted_streams)
            self._gauge("rpc.stream_pages", 0)
        for future in pending:
            if future.set_running_or_notify_cancel():
                future.set_exception(error)
        if not already:
            # shutdown() before close(): closing an fd does not wake a
            # thread blocked in recv(), so the reader would hang (and
            # close() would stall on the join) until the peer spoke.
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:
                pass

    # -- state -----------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        self._teardown(RpcConnectionError(f"connection to {self.address} was closed"))
        if threading.current_thread() is not self._reader:
            self._reader.join(timeout=2.0)

    def _count(self, name: str, amount: float) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(amount)

    def _gauge(self, name: str, value: float) -> None:
        if self._metrics is not None:
            self._metrics.gauge(name).set(value)


class ConnectionPool:
    """One shared multiplexed connection per address, with retries.

    Any number of threads may call concurrently; their requests pipeline
    onto the address's single connection and complete independently.
    Transport failures close the shared connection and retry per the
    policy; remote errors and timeouts are surfaced immediately (a timed
    out call may still be executing remotely, so the connection is *not*
    torn down -- the late response is discarded by id).
    """

    def __init__(self, net: NetConfig | None = None, metrics=None,
                 policy: RetryPolicy | None = None) -> None:
        self.net = net or NetConfig()
        self._metrics = metrics
        self.policy = policy or RetryPolicy.from_config(self.net)
        self._conns: dict[tuple[str, int], RpcClient] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: Propagated to every connection (see RpcClient.stream_page_hook);
        #: the fault-injection tests use it to act mid-stream.
        self.stream_page_hook: Optional[Callable[[tuple[str, int], int], None]] = None
        #: Propagated to every connection (see RpcClient.fault_hook); the
        #: chaos plane's send seam for every call issued through the pool.
        self.fault_hook: Optional[Callable[[tuple[str, int], str], Optional[str]]] = None

    # -- connection management -----------------------------------------------------

    def _connection(self, addr: tuple[str, int],
                    timeout: float | None = None) -> RpcClient:
        """The shared connection to ``addr``, dialled if there is none.

        A dial waits at most ``timeout`` when that is shorter than
        ``net.connect_timeout``: a call never waits longer for its
        connection than it would for its answer."""
        with self._lock:
            if self._closed:
                raise RpcConnectionError("connection pool is closed")
            client = self._conns.get(addr)
            if client is not None and not client.closed:
                client.stream_page_hook = self.stream_page_hook
                client.fault_hook = self.fault_hook
                return client
            if client is not None:
                del self._conns[addr]
        net = self.net
        if timeout is not None and 0 < timeout < net.connect_timeout:
            net = dataclasses.replace(net, connect_timeout=timeout)
        dialed = RpcClient(addr[0], addr[1], net, self._metrics)
        dialed.stream_page_hook = self.stream_page_hook
        dialed.fault_hook = self.fault_hook
        self._count("net.connections_opened", 1)
        with self._lock:
            if self._closed:
                dialed.close()
                raise RpcConnectionError("connection pool is closed")
            current = self._conns.get(addr)
            if current is not None and not current.closed:
                dialed.close()  # lost a dial race; share the winner
                return current
            self._conns[addr] = dialed
        return dialed

    def _discard(self, addr: tuple[str, int], client: RpcClient) -> None:
        with self._lock:
            if self._conns.get(addr) is client:
                del self._conns[addr]
        client.close()

    # -- calls ---------------------------------------------------------------------

    def call(
        self,
        addr: tuple[str, int],
        method: str,
        args: dict[str, Any] | None = None,
        timeout: float | None = None,
        policy: RetryPolicy | None = None,
        blob=None,
        blob_arg: str | None = None,
    ) -> Any:
        policy = policy or self.policy
        last: NetworkError | None = None
        first_try = policy.clock()
        for attempt in range(policy.attempts):
            self._count("rpc.calls", 1)
            client: RpcClient | None = None
            started = time.perf_counter()
            try:
                client = self._connection(addr, timeout)
                future = client.call_async(method, args, blob=blob, blob_arg=blob_arg)
                value = future.result(
                    timeout if timeout is not None else self.net.call_timeout
                )
            except FutureTimeout:
                future.cancel()
                self._count("rpc.failures", 1)
                raise RpcTimeout(f"{method} to {addr} timed out") from None
            except RpcRemoteError:
                raise  # the transport worked; the connection is still good
            except FramingError:
                raise  # send-side size rejection: no bytes hit the socket
            except _TRANSPORT_ERRORS as exc:
                if client is not None:
                    self._discard(addr, client)
                last = exc if isinstance(exc, NetworkError) else RpcConnectionError(str(exc))
                if attempt + 1 < policy.attempts:
                    delay = policy.backoff(attempt)
                    if policy.gives_up(first_try, delay):
                        self._count("rpc.retries_abandoned", 1)
                        break  # the elapsed budget cannot absorb another sleep
                    self._count("rpc.retries", 1)
                    policy.sleep(delay)
                continue
            else:
                self._observe_latency(time.perf_counter() - started)
                return value
        self._count("rpc.failures", 1)
        raise RpcConnectionError(
            f"{method} to {addr} failed after {attempt + 1} attempt(s): {last}"
        )

    def call_async(self, addr: tuple[str, int], method: str,
                   args: dict[str, Any] | None = None,
                   blob=None, blob_arg: str | None = None) -> Future:
        """Pipeline one call on the shared connection (no retries)."""
        self._count("rpc.calls", 1)
        return self._connection(addr).call_async(method, args, blob=blob, blob_arg=blob_arg)

    def call_many(
        self,
        addr: tuple[str, int],
        calls: Sequence[tuple],
        timeout: float | None = None,
        policy: RetryPolicy | None = None,
    ) -> list[Any]:
        """Pipeline a batch of calls to one peer.

        Each entry is ``(method, args)`` or ``(method, args, blob,
        blob_arg)`` -- the long form ships its payload out-of-band beside
        the envelope, so a batch of block copies (failover re-replication)
        pipelines without a pickle copy per block.  All requests go out
        back-to-back on the shared connection and execute concurrently
        server-side; results come back in request order.  Calls that fail
        in transport are retried individually, payload included (remote
        errors propagate immediately, like :meth:`call`).
        """
        unpacked = [
            (c[0], c[1], c[2] if len(c) > 2 else None, c[3] if len(c) > 3 else None)
            for c in calls
        ]
        futures: list[Future | None] = []
        try:
            client = self._connection(addr, timeout)
            for method, args, blob, blob_arg in unpacked:
                self._count("rpc.calls", 1)
                futures.append(client.call_async(method, args, blob=blob,
                                                 blob_arg=blob_arg))
        except _TRANSPORT_ERRORS:
            futures.extend([None] * (len(unpacked) - len(futures)))
        results: list[Any] = []
        deadline = timeout if timeout is not None else self.net.call_timeout
        for future, (method, args, blob, blob_arg) in zip(futures, unpacked):
            value = None
            retry = future is None
            if future is not None:
                try:
                    value = future.result(deadline)
                except FutureTimeout:
                    future.cancel()
                    self._count("rpc.failures", 1)
                    raise RpcTimeout(f"{method} to {addr} timed out") from None
                except RpcRemoteError:
                    raise
                except _TRANSPORT_ERRORS:
                    retry = True
            if retry:
                value = self.call(addr, method, args, timeout=timeout, policy=policy,
                                  blob=blob, blob_arg=blob_arg)
            results.append(value)
        return results

    # -- teardown --------------------------------------------------------------------

    def close_address(self, addr: tuple[str, int]) -> None:
        """Drop the connection to one peer (it left the cluster)."""
        with self._lock:
            client = self._conns.pop(addr, None)
        if client is not None:
            client.close()

    def close_all(self) -> None:
        with self._lock:
            self._closed = True
            clients = list(self._conns.values())
            self._conns.clear()
        for client in clients:
            client.close()

    def idle_connections(self, addr: tuple[str, int]) -> int:
        """Live shared connections to ``addr`` with nothing in flight."""
        with self._lock:
            client = self._conns.get(addr)
        if client is None or client.closed:
            return 0
        return 1 if client.in_flight == 0 else 0

    def _observe_latency(self, seconds: float) -> None:
        if self._metrics is not None:
            self._metrics.histogram("rpc.latency_s").record(seconds)

    def _count(self, name: str, amount: float) -> None:
        if self._metrics is not None:
            self._metrics.counter(name).inc(amount)


def fan_out(fn: Callable[[Any], Any], items: Sequence, max_workers: int = 16) -> list:
    """Run ``fn`` over ``items`` concurrently; results keep item order.

    The calls run on a throw-away thread pool (one item runs inline).
    Every call is drained before the first raised error propagates, so
    no thread is abandoned mid-RPC.
    """
    items = list(items)
    if not items:
        return []
    if len(items) == 1:
        return [fn(items[0])]
    results: list = []
    first_error: Exception | None = None
    with ThreadPoolExecutor(max_workers=min(max_workers, len(items)),
                            thread_name_prefix="fan-out") as pool:
        for future in [pool.submit(fn, item) for item in items]:
            try:
                results.append(future.result())
            except Exception as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
    if first_error is not None:
        raise first_error
    return results
