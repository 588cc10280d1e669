"""Cold-start profile of a fresh interpreter: import time, RSS, banner time.

``make profile-imports`` runs this.  Every socket worker start is a new
``python -m repro.worker`` interpreter, so what that interpreter imports
is paid on every spawn, respawn and elastic scale-up.  For
``import repro.worker`` and ``import repro`` this prints the total
import time, the peak RSS after the import, and the top ``-X importtime``
entries by cumulative time; then the median time from starting a worker
to its LISTEN banner over ``--spawns`` fresh processes.

Usage::

    PYTHONPATH=src python scripts/profile_imports.py [--top 15] [--spawns 9]
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import time

STATEMENTS = ("import repro.worker", "import repro")

RSS_PROBE = (
    "; import resource; "
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
)


def import_profile(statement: str) -> tuple[list[tuple[int, int, str]], float]:
    """``(self_us, cumulative_us, module)`` rows and peak RSS in MB."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", statement + RSS_PROBE],
        capture_output=True,
        text=True,
        check=True,
    )
    rows = []
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cumulative, module = line[len("import time:"):].split("|")
        rows.append((int(own), int(cumulative), module.strip()))
    return rows, int(done.stdout.split()[-1]) / 1024


def banner_seconds() -> float:
    """Seconds from starting a socket worker to its LISTEN banner."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.worker", "--listen", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        process.kill()
        process.wait()
        process.stdout.close()
    if "LISTENING" not in banner:
        raise RuntimeError(f"worker printed no banner: {banner!r}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--top", type=int, default=15)
    parser.add_argument("--spawns", type=int, default=9)
    args = parser.parse_args()

    for statement in STATEMENTS:
        rows, rss_mb = import_profile(statement)
        target = statement.split()[-1]
        total_ms = max(c for _, c, module in rows if module == target) / 1e3
        print(
            f"{statement}: {total_ms:.1f} ms, {len(rows)} modules, "
            f"peak RSS {rss_mb:.1f} MB"
        )
        print(f"  {'cumulative ms':>13}  {'self ms':>8}  module")
        for own, cumulative, module in sorted(rows, key=lambda r: -r[1])[: args.top]:
            print(f"  {cumulative / 1e3:13.1f}  {own / 1e3:8.1f}  {module}")
        print()
    if args.spawns > 0:
        times = [banner_seconds() for _ in range(args.spawns)]
        print(
            f"worker start to LISTEN banner: median {statistics.median(times):.3f} s "
            f"(min {min(times):.3f}, max {max(times):.3f}, {args.spawns} spawns)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
