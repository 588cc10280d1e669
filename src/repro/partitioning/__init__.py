"""Partitioning algorithms: AG (the paper's contribution), SC, DS, hashing."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.partitioning.association": (
            "AssociationGroup",
            "AssociationGroupPartitioner",
            "EquivalenceGroup",
            "build_association_groups",
            "consolidate_association_groups",
            "find_equivalence_groups",
        ),
        "repro.partitioning.base": (
            "Partition",
            "Partitioner",
            "PartitioningResult",
            "assign_groups_to_partitions",
        ),
        "repro.partitioning.disjoint": ("DisjointSetPartitioner",),
        "repro.partitioning.expansion": ("ExpansionPlan", "plan_expansion"),
        "repro.partitioning.graph": ("KernighanLinPartitioner",),
        "repro.partitioning.joinmatrix": ("JoinMatrixRouter",),
        "repro.partitioning.hashing": ("HashPartitioner",),
        "repro.partitioning.router": ("DocumentRouter", "RoutingDecision"),
        "repro.partitioning.setcover": ("SetCoverPartitioner",),
    },
)

__all__ = [
    "AssociationGroup",
    "AssociationGroupPartitioner",
    "DisjointSetPartitioner",
    "DocumentRouter",
    "EquivalenceGroup",
    "ExpansionPlan",
    "HashPartitioner",
    "JoinMatrixRouter",
    "KernighanLinPartitioner",
    "Partition",
    "Partitioner",
    "PartitioningResult",
    "RoutingDecision",
    "SetCoverPartitioner",
    "assign_groups_to_partitions",
    "build_association_groups",
    "consolidate_association_groups",
    "find_equivalence_groups",
    "plan_expansion",
]
