"""The paper's Fig. 2 topology realized on the streaming substrate."""

from repro._lazy import lazy_exports

# Lazy, because a socket worker unpickling its Joiner tasks imports
# ``repro.topology.joiner`` and must not load ``build_topology`` (and
# with it the whole parent-side stack) on the way.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.topology.pipeline": (
            "StreamJoinConfig",
            "StreamJoinResult",
            "build_topology",
            "run_binary_stream_join",
            "run_stream_join",
        ),
        "repro.topology.session": ("StreamJoinSession",),
    },
)

__all__ = [
    "StreamJoinConfig",
    "StreamJoinResult",
    "StreamJoinSession",
    "build_topology",
    "run_binary_stream_join",
    "run_stream_join",
]
