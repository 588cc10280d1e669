"""Summarize kept runs: per workload and metric, the median and the
spread between the quartiles as a share of the median.

    python3 joinbench/compare.py .joinbench/runs.jsonl
    python3 joinbench/compare.py parent.jsonl change.jsonl

With two files it also prints each median's change from the first file
to the second.  It warns when the runs being compared come from
different hosts (``run.py`` records a host fingerprint with every run).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from host import hosts_differ  # noqa: E402


def load(path: str) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summarize(records: list[dict]) -> dict:
    """(workload, trace, metric) -> (n, median, quartile spread / median)."""
    values = defaultdict(list)
    for record in records:
        # untraced runs also keep the program's own times, which are
        # not gated (run.py's PROGRAM_TIME_UNITS)
        kept = {**record["metrics"], **record.get("program_times", {})}
        for name, value in kept.items():
            values[(record["workload"], record["trace"], name)].append(value)
    summary = {}
    for key, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2 and median:
            q1, _q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / abs(median)
        else:
            spread = float("nan")
        summary[key] = (len(series), median, spread)
    return summary


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs = [load(path) for path in argv]
    hosts = hosts_differ([record for records in runs for record in records])
    if hosts:
        print(
            f"warning: these runs come from {len(hosts)} different hosts; "
            f"their figures are not comparable: {hosts}",
            file=sys.stderr,
        )
    summaries = [summarize(records) for records in runs]
    header = f"{'workload':<18}{'metric':<32}{'n':>3}{'median':>14}{'IQR/med':>9}"
    if len(summaries) == 2:
        header += f"{'n':>4}{'median':>14}{'IQR/med':>9}{'change':>9}"
    print(header)
    for key in sorted(summaries[0]):
        workload, _trace, metric = key
        n, median, spread = summaries[0][key]
        line = f"{workload:<18}{metric:<32}{n:>3}{median:>14.6g}{spread:>9.2%}"
        if len(summaries) == 2 and key in summaries[1]:
            n2, median2, spread2 = summaries[1][key]
            change = (median2 - median) / median if median else float("nan")
            line += f"{n2:>4}{median2:>14.6g}{spread2:>9.2%}{change:>9.2%}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
