"""The cluster plane's wire layer.

Four small, separately testable pieces:

* :mod:`repro.net.framing` -- length-prefixed binary frames over a byte
  stream (the only thing that ever touches raw sockets);
* :mod:`repro.net.codec` -- pluggable page-level compression for
  out-of-band payloads (``NetConfig.compression``), with an
  incompressible bail-out that ships raw frames unchanged;
* :mod:`repro.net.retry` -- exponential backoff with jitter, with
  injectable sleep/rng so policies unit-test deterministically;
* :mod:`repro.net.rpc` -- a request/response RPC layer (threaded TCP
  server, pooled client connections, per-call timeouts).

Everything above this package (:mod:`repro.cluster`) talks in terms of
named methods and plain-dict arguments; everything below is bytes.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FrameDecoder",
    "encode_frame",
    "read_frame",
    "write_frame",
    "Codec",
    "encode_payload",
    "decode_payload",
    "resolve_codec",
    "lz4_available",
    "RetryPolicy",
    "ConnectionPool",
    "RpcClient",
    "RpcServer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.codec": (
        "Codec",
        "decode_payload",
        "encode_payload",
        "lz4_available",
        "resolve_codec",
    ),
    "repro.net.framing": ("FrameDecoder", "encode_frame", "read_frame", "write_frame"),
    "repro.net.retry": ("RetryPolicy",),
    "repro.net.rpc": ("ConnectionPool", "RpcClient", "RpcServer"),
})
