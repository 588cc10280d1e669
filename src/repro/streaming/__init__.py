"""A Storm-like stream processing substrate.

The paper realizes its topology on Apache Storm (Section III).  This
package provides an in-process, deterministic equivalent: spouts and
bolts wired by a :class:`TopologyBuilder` through the same four stream
groupings Fig. 2 uses (shuffle, fields, all, direct), executed by a
single-threaded FIFO :class:`LocalCluster` or the multi-core
:class:`ParallelCluster` (same per-window results, Joiners in worker
processes behind a pluggable :class:`Transport` — forked pipes or TCP
sockets).  Determinism (round-robin shuffle, stable hashing, FIFO tuple
delivery) makes every experiment replayable — the routing semantics are
Storm's, without the cluster.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.streaming.component": (
            "Bolt",
            "Collector",
            "ComponentContext",
            "Spout",
        ),
        "repro.streaming.grouping": (
            "AllGrouping",
            "DirectGrouping",
            "FieldsGrouping",
            "GlobalGrouping",
            "Grouping",
            "ShuffleGrouping",
        ),
        "repro.streaming.executor": ("ClusterBase", "LocalCluster"),
        "repro.streaming.parallel": ("ParallelCluster",),
        "repro.streaming.recovery": (
            "DeadLetter",
            "DeadLetterQueue",
            "RestartPolicy",
        ),
        "repro.streaming.topology": ("Topology", "TopologyBuilder"),
        "repro.streaming.transport": (
            "LinkDown",
            "Transport",
            "WorkerInit",
            "WorkerLink",
            "available_transports",
            "make_transport",
        ),
        "repro.streaming.tuples": ("StreamTuple",),
    },
)

__all__ = [
    "AllGrouping",
    "Bolt",
    "ClusterBase",
    "Collector",
    "ComponentContext",
    "DeadLetter",
    "DeadLetterQueue",
    "DirectGrouping",
    "FieldsGrouping",
    "GlobalGrouping",
    "Grouping",
    "LinkDown",
    "LocalCluster",
    "ParallelCluster",
    "RestartPolicy",
    "ShuffleGrouping",
    "Spout",
    "StreamTuple",
    "Topology",
    "TopologyBuilder",
    "Transport",
    "WorkerInit",
    "WorkerLink",
    "available_transports",
    "make_transport",
]
