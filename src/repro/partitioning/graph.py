"""Graph-partitioning baseline (Kernighan-Lin, Section II related work).

A document "can be represented as a graph, [so] graph partitioning
methods are also applicable": AV-pairs become vertices, co-occurrence
within a document becomes a weighted edge, and the Kernighan-Lin
heuristic bisects the graph recursively until ``m`` parts exist.  Each
part is a pair group assigned to machines with the same greedy used by
AG and DS.

The paper dismisses this family for streams — "in a dynamic environment,
these approaches are computationally expensive ... resulting in a
partition that is valid only for a short time" — and the benchmark
ablation quantifies exactly that: KL's partitioning time is orders of
magnitude above AG's at comparable quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

from repro.core.document import AVPair, Document
from repro.partitioning.base import (
    Partitioner,
    PartitioningResult,
    assign_groups_to_partitions,
)

if TYPE_CHECKING:
    import networkx as nx


def _networkx():
    """networkx, imported on first use: only this baseline needs it, and
    it takes longer to import than the rest of the package together."""
    try:
        import networkx
        from networkx.algorithms.community import kernighan_lin_bisection
    except ImportError as exc:
        raise ImportError(
            "KernighanLinPartitioner needs networkx; install the 'graph' "
            "extra: pip install 'repro[graph]'"
        ) from exc
    return networkx, kernighan_lin_bisection


@dataclass
class _Part:
    pairs: set[AVPair]
    load: int


class KernighanLinPartitioner(Partitioner):
    """Recursive KL bisection of the AV-pair co-occurrence graph.

    ``max_pairs_per_doc`` caps the O(k^2) clique a k-pair document adds
    to the graph; documents beyond the cap contribute a path instead,
    which preserves connectivity at linear cost.
    """

    name = "KL"

    def __init__(self, seed: int = 0, max_pairs_per_doc: int = 12):
        self.seed = seed
        self.max_pairs_per_doc = max_pairs_per_doc

    def create_partitions(
        self, documents: Sequence[Document], m: int
    ) -> PartitioningResult:
        self._check_args(documents, m)
        networkx, kernighan_lin_bisection = _networkx()
        graph = self._build_graph(networkx, documents)
        parts: list[set[AVPair]] = [set(graph.nodes)] if graph.nodes else []
        # Recursively bisect the largest part until m parts (or nothing
        # left to split).  Connected components could be split first, but
        # KL handles disconnected subgraphs fine.
        while len(parts) < m:
            splittable = max(
                (p for p in parts if len(p) > 1), key=len, default=None
            )
            if splittable is None:
                break
            parts.remove(splittable)
            half_a, half_b = kernighan_lin_bisection(
                graph.subgraph(splittable), weight="weight", seed=self.seed
            )
            parts.extend([set(half_a), set(half_b)])
        groups = [
            _Part(pairs=part, load=self._load_of(part, documents))
            for part in parts
        ]
        partitions = assign_groups_to_partitions(groups, m)
        return PartitioningResult(
            partitions=partitions, algorithm=self.name, group_count=len(groups)
        )

    def _build_graph(self, networkx, documents: Sequence[Document]) -> nx.Graph:
        graph = networkx.Graph()
        for doc in documents:
            pairs = list(doc.avpairs())
            graph.add_nodes_from(pairs)
            if len(pairs) <= self.max_pairs_per_doc:
                edges = combinations(pairs, 2)
            else:
                edges = zip(pairs, pairs[1:])
            for a, b in edges:
                if graph.has_edge(a, b):
                    graph[a][b]["weight"] += 1
                else:
                    graph.add_edge(a, b, weight=1)
        return graph

    @staticmethod
    def _load_of(part: set[AVPair], documents: Sequence[Document]) -> int:
        return sum(
            1
            for doc in documents
            if any(pair in part for pair in doc.avpairs())
        )
