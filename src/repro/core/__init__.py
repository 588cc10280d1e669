"""Core data model: schema-free documents, interning, window definitions."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.columnar": ("ColumnarBatch",),
        "repro.core.document": ("AVPair", "Document", "flatten_json"),
        "repro.core.interning": ("EncodedDocument", "PairInterner"),
        "repro.core.window": ("CountWindow", "TimeWindow", "tumbling_count_windows"),
    },
)

__all__ = [
    "AVPair",
    "ColumnarBatch",
    "Document",
    "EncodedDocument",
    "PairInterner",
    "flatten_json",
    "CountWindow",
    "TimeWindow",
    "tumbling_count_windows",
]
