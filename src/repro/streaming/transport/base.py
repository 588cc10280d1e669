"""The Transport/WorkerLink seam between the cluster and its workers.

:class:`~repro.streaming.parallel.ParallelCluster` owns *what* to ship
(batching, journals, restart policy, ack bookkeeping); a
:class:`Transport` owns *how*: starting worker processes and moving
messages to and from them.  The contract, which the conformance suite
in ``tests/streaming/test_transport.py`` pins for every implementation:

* :meth:`Transport.spawn` takes a :class:`WorkerInit` — the complete,
  self-contained worker bootstrap (task instances, codecs, registry,
  fault plan) — and returns a live :class:`WorkerLink`.  Respawning a
  worker slot is just another ``spawn`` with a bumped incarnation.
* :meth:`WorkerLink.send` preserves order per link and raises
  :class:`LinkDown` once the worker is unreachable; the cluster reacts
  by replaying the journal into a fresh link, so a transport never
  retries or buffers across worker deaths itself.
* :meth:`Transport.recv` multiplexes worker→parent messages from all
  links into one stream.  Messages self-identify their worker index,
  so no transport-level tagging is needed; cross-link interleaving is
  allowed (the cluster's bookkeeping is order-insensitive across
  workers, strict FIFO is only required per link).
* :meth:`Transport.stats` reports the unified observability keys:
  ``transport`` (the implementation name) and ``reconnects`` (links
  established beyond the first per worker slot).

Implementations: :class:`~repro.streaming.transport.pipe.PipeTransport`
(fork + duplex pipe, single host) and
:class:`~repro.streaming.transport.tcp.SocketTransport` (length-prefixed
frames over TCP to ``python -m repro.worker`` processes).
"""

from __future__ import annotations

import importlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.exceptions import TopologyError
from repro.faults import FaultPlan
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry


class LinkDown(Exception):
    """Raised by :meth:`WorkerLink.send` once the worker is unreachable."""


class _IdentityCodec:
    """Pass-through wire codec (payloads pickle as-is)."""

    def encode(self, stream: str, values: tuple) -> tuple:
        return values

    def decode(self, stream: str, values: tuple) -> tuple:
        return values


IDENTITY_CODEC = _IdentityCodec()


@dataclass
class WorkerInit:
    """Everything a worker needs to serve one link, in one shippable blob.

    The pipe transport hands this object to a forked child by reference;
    the socket transport pickles it as the connection's first frame.
    Pickling everything together preserves object identity *within* the
    blob — a task's reference to ``registry`` stays a reference to the
    shipped registry — so a fresh-interpreter worker sees the same
    object graph a forked one inherits.

    ``link_codec`` decodes parent→worker traffic and must start from
    state identical to the parent-side encoder of this link (the cluster
    creates the pair before spawning); ``emit_codec`` encodes
    worker→parent emissions and must be stateless.
    """

    worker_index: int
    incarnation: int
    #: (component, task_index) → prepared task instance
    tasks: dict[tuple[str, int], Any]
    link_codec: Any = IDENTITY_CODEC
    emit_codec: Any = IDENTITY_CODEC
    registry: MetricsRegistry = field(default_factory=lambda: NULL_REGISTRY)
    max_retries: int = 0
    quarantine: bool = False
    fault_plan: Optional[FaultPlan] = None


class WorkerLink(ABC):
    """Parent-side handle of one live worker connection."""

    #: worker slot this link serves
    index: int

    @abstractmethod
    def send(self, message: tuple) -> int:
        """Ship one message, FIFO per link; :class:`LinkDown` if gone.

        ``send`` may buffer: a transport with a non-blocking write path
        queues whatever the kernel would not accept and returns, so the
        parent keeps routing while a busy worker drains its end.  The
        cluster calls :meth:`pump` opportunistically to finish such
        writes; FIFO order still holds because every send enters the
        same buffer.

        Returns the serialized payload size in bytes — the cluster
        accounts journal bytes per batch with it, feeding the
        ``journal_bytes`` load signal the elastic controller watches.
        """

    def stage(self, message: tuple) -> int:
        """Queue a message for shipping without touching the wire.

        The cluster stages a window's batches while it routes and
        releases the bytes at the window barrier (:meth:`pump`), so
        workers receive a window's work in one burst and spend their
        CPU while the parent is busy elsewhere — on a loaded host this
        keeps worker wakeups out of the parent's routing path.  Order
        is shared with :meth:`send`: staged and sent messages drain
        through one FIFO.  Default: ship eagerly via ``send``.
        Returns the staged payload size in bytes, like :meth:`send`.
        """
        return self.send(message)

    def pump(self) -> None:
        """Make progress on buffered outbound bytes (non-blocking).

        Default is a no-op for transports whose ``send`` completes
        eagerly.  Implementations raise :class:`LinkDown` when the
        worker is gone, exactly as ``send`` does.
        """

    @abstractmethod
    def alive(self) -> bool:
        """Best-effort liveness of the worker behind the link."""

    @property
    @abstractmethod
    def exit_code(self) -> Optional[int]:
        """Worker exit code once dead, else None (and None when unknowable)."""

    @abstractmethod
    def reap(self, timeout: float = 1.0) -> None:
        """Release the link and the worker process (idempotent).

        Waits up to ``timeout`` for a voluntary exit, then escalates to
        termination; closing must unregister the link from the
        transport's receive path so no stale messages surface later.
        """


class Transport(ABC):
    """Factory and message mux for one cluster's worker links."""

    #: implementation name reported under ``stats()["transport"]``
    name = "abstract"

    def __init__(self) -> None:
        self.reconnects = 0
        self._spawned_slots: set[int] = set()

    def start(self) -> None:
        """Allocate shared receive-side resources (called once, pre-spawn)."""

    @abstractmethod
    def spawn(self, init: WorkerInit) -> WorkerLink:
        """Start (or connect to) one worker and hand it ``init``."""

    @abstractmethod
    def recv(self, timeout: float) -> Optional[tuple]:
        """Next worker→parent message from any link, or None on timeout.

        ``timeout <= 0`` must not block.
        """

    def stats(self) -> dict:
        return {"transport": self.name, "reconnects": self.reconnects}

    def close(self) -> None:
        """Release shared resources; links are reaped by the cluster first."""

    def _note_spawn(self, worker_index: int) -> None:
        """Bookkeeping hook every ``spawn`` implementation must call."""
        if worker_index in self._spawned_slots:
            self.reconnects += 1
        else:
            self._spawned_slots.add(worker_index)


#: registered implementations, name → factory(addresses=None) -> Transport
#: (the built-ins are in it once their modules, or a lookup, imported them)
TRANSPORTS: dict[str, Any] = {}

#: modules of the built-in implementations; each registers itself when
#: imported, which happens at the first lookup through
#: :func:`available_transports` or :func:`make_transport` — never in a
#: socket worker, which has no use for the pipe transport
_BUILTIN_TRANSPORTS = (
    "repro.streaming.transport.pipe",
    "repro.streaming.transport.tcp",
)


def _registry() -> dict[str, Any]:
    for module in _BUILTIN_TRANSPORTS:
        importlib.import_module(module)
    return TRANSPORTS


def register_transport(name: str):
    def _register(factory):
        TRANSPORTS[name] = factory
        return factory

    return _register


def available_transports() -> tuple[str, ...]:
    return tuple(sorted(_registry()))


def make_transport(
    name: str, addresses: Optional[Sequence[str]] = None
) -> Transport:
    """Instantiate a registered transport by name.

    ``addresses`` is the optional per-worker address list; only
    address-capable transports (socket) accept one.
    """
    factory = _registry().get(name)
    if factory is None:
        raise TopologyError(
            f"unknown transport {name!r}; available: "
            + ", ".join(available_transports())
        )
    return factory(addresses=addresses)
