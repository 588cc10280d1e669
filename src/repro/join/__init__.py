"""Local join computation: FP-tree join and baseline algorithms."""

from repro._lazy import lazy_exports

# ``fptree_join`` is both a submodule and a function re-exported under
# the same name: bind the function eagerly, or the first import of the
# submodule would shadow it with the module object.
from repro.join.fptree_join import fptree_join

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.join.approximate": ("ApproximateJoiner", "BloomFilter"),
        "repro.join.base": ("JoinPair", "LocalJoiner", "join_window"),
        "repro.join.cost": ("predict_nlj_hbj_winner", "profile_and_predict"),
        "repro.join.binary": (
            "BinaryJoinPair",
            "BinaryStreamJoiner",
            "binary_join_window",
        ),
        "repro.join.fptree": ("FPNode", "FPTree"),
        "repro.join.fptree_join": ("FPTreeJoiner",),
        "repro.join.hash_join": ("HashJoiner",),
        "repro.join.nested_loop": ("NestedLoopJoiner",),
        "repro.join.minibatch": ("minibatch_join",),
        "repro.join.multistream": ("MultiStreamJoiner", "StreamPair"),
        "repro.join.ordering": ("AttributeOrder",),
        "repro.join.sliding": (
            "SlidingFPTreeJoiner",
            "TimeSlidingFPTreeJoiner",
            "sliding_join_stream",
        ),
    },
)

__all__ = [
    "ApproximateJoiner",
    "AttributeOrder",
    "BloomFilter",
    "BinaryJoinPair",
    "BinaryStreamJoiner",
    "binary_join_window",
    "FPNode",
    "FPTree",
    "FPTreeJoiner",
    "fptree_join",
    "HashJoiner",
    "JoinPair",
    "LocalJoiner",
    "NestedLoopJoiner",
    "minibatch_join",
    "MultiStreamJoiner",
    "StreamPair",
    "predict_nlj_hbj_winner",
    "profile_and_predict",
    "SlidingFPTreeJoiner",
    "TimeSlidingFPTreeJoiner",
    "sliding_join_stream",
    "join_window",
]
