"""Pluggable worker transports for the parallel backend.

The :class:`~repro.streaming.transport.base.Transport` /
:class:`~repro.streaming.transport.base.WorkerLink` pair is the seam
between :class:`~repro.streaming.parallel.ParallelCluster` (batching,
journals, supervision) and the mechanics of running workers.  Two
implementations ship: ``"pipe"`` (fork + duplex pipe) and ``"socket"``
(length-prefixed frames over TCP to ``python -m repro.worker``
processes).  See ``docs/distributed.md`` for the contract.
"""

from repro._lazy import lazy_exports

# A socket worker imports this package for framing and the session; the
# pipe implementation (and multiprocessing.shared_memory with it) loads
# only where it is used.  ``make_transport`` imports the implementations,
# which registers them under their names.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.streaming.transport.base": (
            "IDENTITY_CODEC",
            "LinkDown",
            "Transport",
            "TRANSPORTS",
            "WorkerInit",
            "WorkerLink",
            "available_transports",
            "make_transport",
            "register_transport",
        ),
        "repro.streaming.transport.session": ("WorkerCollector", "WorkerSession"),
        "repro.streaming.transport.pipe": ("PipeTransport",),
        "repro.streaming.transport.tcp": ("SocketTransport",),
    },
)

__all__ = [
    "IDENTITY_CODEC",
    "LinkDown",
    "PipeTransport",
    "SocketTransport",
    "Transport",
    "TRANSPORTS",
    "WorkerCollector",
    "WorkerInit",
    "WorkerLink",
    "WorkerSession",
    "available_transports",
    "make_transport",
    "register_transport",
]
