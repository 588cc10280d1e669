"""repro — reproduction of "Scaling Out Schema-free Stream Joins" (ICDE 2020).

The library computes exact natural joins over schema-free JSON document
streams, scaled out over ``m`` machines:

* :mod:`repro.core` — the document model and window definitions;
* :mod:`repro.partitioning` — the association-groups (AG) partitioner and
  the SC / DS / hash baselines, attribute expansion, and the router;
* :mod:`repro.join` — the FP-tree join (FPJ) and the NLJ / HBJ baselines;
* :mod:`repro.streaming` — a deterministic Storm-like substrate;
* :mod:`repro.topology` — the paper's Fig. 2 topology on that substrate;
* :mod:`repro.data` — dataset generators for the evaluation;
* :mod:`repro.metrics` — replication / Gini / processing-load metrics;
* :mod:`repro.obs` — pluggable observability (metrics registry + traces);
* :mod:`repro.experiments` — per-figure experiment harness.

Quickstart::

    from repro import Document, FPTreeJoiner, join_window

    docs = [Document({"user": "A", "severity": "warn"}, doc_id=0),
            Document({"user": "A", "msg": 2}, doc_id=1)]
    pairs = join_window(FPTreeJoiner(), docs)
"""

from repro._lazy import lazy_exports

# Names resolve on first read (PEP 562), so ``import repro`` — and every
# ``python -m repro.worker`` start, which imports this package first —
# loads no submodule it does not use.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.document": ("AVPair", "Document"),
        "repro.core.interning": ("EncodedDocument", "PairInterner"),
        "repro.core.window": ("CountWindow", "TimeWindow"),
        "repro.exceptions": (
            "DocumentError",
            "JoinConflictError",
            "PartitioningError",
            "ReproError",
            "TopologyError",
            "WindowError",
            "WorkerCrashError",
        ),
        "repro.faults": ("FaultPlan", "InjectedFault"),
        "repro.join.base": ("JoinPair", "LocalJoiner", "join_window"),
        "repro.join.fptree": ("FPTree",),
        "repro.join.fptree_join": ("FPTreeJoiner", "fptree_join"),
        "repro.join.hash_join": ("HashJoiner",),
        "repro.join.nested_loop": ("NestedLoopJoiner",),
        "repro.join.ordering": ("AttributeOrder",),
        "repro.join.binary": (
            "BinaryJoinPair",
            "BinaryStreamJoiner",
            "binary_join_window",
        ),
        "repro.join.sliding": ("SlidingFPTreeJoiner", "TimeSlidingFPTreeJoiner"),
        "repro.partitioning.association": ("AssociationGroupPartitioner",),
        "repro.partitioning.base": (
            "Partition",
            "Partitioner",
            "PartitioningResult",
        ),
        "repro.partitioning.disjoint": ("DisjointSetPartitioner",),
        "repro.partitioning.expansion": ("ExpansionPlan", "plan_expansion"),
        "repro.partitioning.graph": ("KernighanLinPartitioner",),
        "repro.partitioning.hashing": ("HashPartitioner",),
        "repro.obs": (
            "MetricsRegistry",
            "NullRegistry",
            "ObservabilitySnapshot",
            "Span",
            "trace",
        ),
        "repro.partitioning.joinmatrix": ("JoinMatrixRouter",),
        "repro.partitioning.router": ("DocumentRouter", "RoutingDecision"),
        "repro.partitioning.setcover": ("SetCoverPartitioner",),
        "repro.streaming.recovery": (
            "DeadLetter",
            "DeadLetterQueue",
            "RestartPolicy",
        ),
        "repro.topology.pipeline": (
            "PARTITIONERS",
            "StreamJoinConfig",
            "StreamJoinResult",
            "run",
            "run_binary_stream_join",
            "run_stream_join",
        ),
        "repro.topology.session": ("StreamJoinSession",),
    },
)

__version__ = "1.0.0"

__all__ = [
    "AVPair",
    "AssociationGroupPartitioner",
    "AttributeOrder",
    "BinaryJoinPair",
    "BinaryStreamJoiner",
    "CountWindow",
    "DeadLetter",
    "DeadLetterQueue",
    "DisjointSetPartitioner",
    "Document",
    "DocumentError",
    "DocumentRouter",
    "EncodedDocument",
    "ExpansionPlan",
    "FPTree",
    "FPTreeJoiner",
    "FaultPlan",
    "HashJoiner",
    "HashPartitioner",
    "InjectedFault",
    "JoinConflictError",
    "JoinMatrixRouter",
    "JoinPair",
    "LocalJoiner",
    "KernighanLinPartitioner",
    "MetricsRegistry",
    "NestedLoopJoiner",
    "NullRegistry",
    "ObservabilitySnapshot",
    "PARTITIONERS",
    "PairInterner",
    "Partition",
    "Partitioner",
    "PartitioningError",
    "PartitioningResult",
    "ReproError",
    "RestartPolicy",
    "RoutingDecision",
    "SetCoverPartitioner",
    "SlidingFPTreeJoiner",
    "Span",
    "StreamJoinConfig",
    "StreamJoinResult",
    "StreamJoinSession",
    "TimeSlidingFPTreeJoiner",
    "TimeWindow",
    "TopologyError",
    "WindowError",
    "WorkerCrashError",
    "fptree_join",
    "join_window",
    "plan_expansion",
    "binary_join_window",
    "run",
    "run_binary_stream_join",
    "run_stream_join",
    "trace",
    "__version__",
]
