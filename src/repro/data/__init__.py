"""Dataset generators and IO for the experiments of Section VII."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.data.base": ("DatasetGenerator",),
        "repro.data.ideal": ("IdealStreamGenerator",),
        "repro.data.loader": ("read_jsonl", "write_jsonl"),
        "repro.data.nobench": ("NoBenchGenerator",),
        "repro.data.serverlogs": ("ServerLogGenerator",),
        "repro.data.stream": (
            "TimestampedDocument",
            "arrival_rate_from_daily_volume",
            "timestamped_stream",
            "windows_by_time",
        ),
        "repro.data.tweets": ("TweetGenerator",),
        "repro.data.zoo": (
            "ZOO_WORKLOADS",
            "FlashCrowdGenerator",
            "LateArrivalGenerator",
            "SchemaDriftGenerator",
            "ZipfSkewGenerator",
            "make_zoo_generator",
        ),
    },
)

__all__ = [
    "DatasetGenerator",
    "FlashCrowdGenerator",
    "IdealStreamGenerator",
    "LateArrivalGenerator",
    "NoBenchGenerator",
    "SchemaDriftGenerator",
    "ServerLogGenerator",
    "TimestampedDocument",
    "TweetGenerator",
    "ZOO_WORKLOADS",
    "ZipfSkewGenerator",
    "make_zoo_generator",
    "arrival_rate_from_daily_volume",
    "timestamped_stream",
    "windows_by_time",
    "read_jsonl",
    "write_jsonl",
]
