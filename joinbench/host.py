"""Host record kept with every run.

The fingerprint says which machine produced a run, so runs from
different hosts are never compared silently.  The probe times a fixed
pure-Python loop before and after the measured phase: a shared VM's
speed can drift by tens of percent within a minute (see STEADINESS.md),
and the probe shows roughly how far.
It is a diagnostic only and is never applied to any metric.
"""

from __future__ import annotations

import os
import platform
import statistics
from time import perf_counter


def fingerprint() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def load_average() -> list[float]:
    try:
        return list(os.getloadavg())
    except OSError:
        return []


def _loop() -> int:
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return total


def probe_ms(repeats: int = 7) -> float:
    """Median wall time of a fixed pure-Python loop, in milliseconds."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        _loop()
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def hosts_differ(records) -> list[dict]:
    """The distinct fingerprints among ``records`` when there is more
    than one, else an empty list."""
    seen: list[dict] = []
    for record in records:
        host = record.get("host")
        if host not in seen:
            seen.append(host)
    return seen if len(seen) > 1 else []
