"""Stream-join benchmark: one run of one workload.

    python3 joinbench/run.py --workload rw_pipe_paced --seed 1 --seconds 13 --trace 0

Run it from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` makes the separate traced run and prints the
per-layer metrics, a parent stage table and a per-window span file under
``.joinbench/``.  Every run is checked against an untimed reference pass
(see ``check.py``) and exits non-zero, printing no result, on any
mismatch.  The last stdout line is the result as one JSON object.

Each phase runs in a fresh process (``driver.py``) with the hash seed
pinned, one after the other (only the reference pass and its single-node
check share the two cores), so a run never has more busy processes than
the host's two cores.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from check import check_discoveries, check_pairs  # noqa: E402
from host import fingerprint, hosts_differ, load_average, probe_ms  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a run must end within this many seconds
RUN_BUDGET_S = 170.0
#: set-up samples per run: the measured process's own, the rest from
#: processes that only set up
SETUP_SAMPLES = 11

END_TO_END_UNITS = {
    "docs_per_s": "docs/s",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}
#: the program's own wall time, from a pass without the span tracer:
#: the host's speed drifts too much for these to hold a bound
#: (STEADINESS.md), so they are per-layer figures, not end-to-end gates
PROGRAM_TIME_UNITS = {
    "window.p50_ms": "ms",
    "window.p90_ms": "ms",
    "parent.push_us_per_doc": "us/doc",
}
PER_LAYER_UNITS = {
    **PROGRAM_TIME_UNITS,
    "ingest.parse_us_per_doc": "us/doc",
    "creator.us_per_doc": "us/doc",
    "association.us_per_doc": "us/doc",
    "merger.ms_per_window": "ms/window",
    "merger.repartitions": "count",
    "assigner.us_per_doc": "us/doc",
    "router.replication": "ratio",
    "router.broadcast_share": "ratio",
    "wire.encode_us_per_doc": "us/doc",
    "wire.bytes_per_doc": "B/doc",
    "transport.send_us_per_doc": "us/doc",
    "transport.frames_per_window": "frames/window",
    "transport.recv_wait_us_per_doc": "us/doc",
    "joiner.insert_us_per_doc": "us/doc",
    "joiner.probe_us_per_doc": "us/doc",
    "joiner.partners_per_probe": "ratio",
    "joiner.busy_share": "ratio",
    "ledger.other_us_per_doc": "us/doc",
    "ledger.coverage": "ratio",
    "driver.late_p90_ms": "ms",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    pass


def program_times(measured: dict) -> dict:
    """Window latency (from the due close time to when the driver first
    holds the window's metrics, less the pacer's sleep) at the median and
    at p90, the highest percentile with 10 windows beyond it in a run of
    about 100 windows; and the parent's wall time inside push_window and
    result() per delivered document."""
    window_ms = measured["window_ms"]
    return {
        "window.p50_ms": statistics.median(window_ms),
        "window.p90_ms": statistics.quantiles(window_ms, n=10)[-1],
        "parent.push_us_per_doc": measured["push_s"] / measured["delivered"] * 1e6,
    }


class Runner:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(BENCH_DIR)]
        )

    def start(self, phase: str, *args: str) -> subprocess.Popen:
        """Start one driver phase in a fresh process group."""
        command = [sys.executable, str(BENCH_DIR / "driver.py"), phase, *args]
        return subprocess.Popen(
            command,
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )

    def finish(self, process: subprocess.Popen) -> dict:
        """Wait for a phase; its last stdout line as a dict."""
        phase = process.args[2]
        try:
            out, _ = process.communicate(
                timeout=max(1.0, self.deadline - time.monotonic())
            )
        except subprocess.TimeoutExpired:
            _stop_group(process.pid)
            process.communicate()
            raise BenchError(f"{phase} phase ran past the run's time budget")
        finally:
            # workers belong to the phase's process group: none may
            # outlive it
            _stop_group(process.pid)
        lines = out.strip().splitlines()
        if process.returncode != 0 or not lines:
            raise BenchError(f"{phase} phase failed (exit {process.returncode})")
        payload = json.loads(lines[-1])
        if "error" in payload:
            raise BenchError(payload["error"])
        return payload

    def phase(self, phase: str, *args: str) -> dict:
        return self.finish(self.start(phase, *args))

    def check_reference(self, *args: str) -> dict:
        """The reference pass (one process, local backend) and the
        single-node join it must equal, side by side on the two cores."""
        processes = [self.start("reference", *args), self.start("expected", *args)]
        try:
            reference, expected = [self.finish(p) for p in processes]
        finally:
            for process in processes:
                if process.poll() is None:
                    _stop_group(process.pid)
                    process.wait()
        check_pairs(reference["pairs"], expected["pairs"])
        return reference


def _stop_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(args, root: Path) -> dict:
    workload = WORKLOADS[args.workload]
    runner = Runner(root, time.monotonic() + RUN_BUDGET_S)
    out_dir = root / ".joinbench"
    n = workload.measured_windows(args.seconds)
    input_path = out_dir / "inputs" / f"{workload.name}-{args.seed}-{n + 1}.jsonl"
    common = ["--workload", workload.name, "--input", str(input_path)]
    started = time.monotonic()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint(),
        "load_average": load_average(),
        "probe_ms_before": probe_ms(),
    }
    runner.phase("gen", *common, "--seed", str(args.seed), "--windows", str(n + 1))
    measure_args = [*common, "--windows", str(n)]
    if args.trace:
        # both passes run with the program's observability registry on,
        # so their ratio is the span tracer's own cost
        plain = runner.phase("measure", *measure_args, "--observability")
        trace_out = out_dir / f"trace-{workload.name}-{args.seed}.jsonl"
        traced = runner.phase(
            "measure", *measure_args, "--observability", "--trace",
            "--trace-out", str(trace_out),
        )
        passes = [plain, traced]
    else:
        passes = [runner.phase("measure", *measure_args)]
    reference = runner.check_reference(*measure_args)
    for measured in passes:
        check_discoveries(measured["discoveries"], reference["discoveries"])

    if args.trace:
        values = {**program_times(plain), **traced["layers"]}
        # the open loop holds docs/s at the offered rate, so the tracer's
        # cost shows as parent time inside push_window and result()
        values["trace.overhead"] = traced["push_s"] / plain["push_s"]
        units = PER_LAYER_UNITS
        print(traced["stage_table"])
        print(f"spans: {trace_out.relative_to(root)}")
    else:
        (measured,) = passes
        setups = [measured["setup_s"]] + [
            runner.phase("setup", *common)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        values = {
            "docs_per_s": measured["docs_per_s"],
            "setup_s": statistics.median(setups),
            "rss_peak_mb": measured["rss_peak_mb"],
        }
        units = END_TO_END_UNITS
        # kept with the run and printed, but not gated (see
        # PROGRAM_TIME_UNITS)
        record["program_times"] = program_times(measured)
        print(
            f"{n} windows at {workload.offered_docs_per_s:g} docs/s offered; "
            f"{len(setups)} set-up samples; not gated: "
            + ", ".join(
                f"{name} {value:.4g} {PROGRAM_TIME_UNITS[name]}"
                for name, value in record["program_times"].items()
            )
        )
    record["probe_ms_after"] = probe_ms()
    record["run_s"] = time.monotonic() - started
    record["metrics"] = values
    record["reference_distinct_pairs"] = sum(n for n, _ in reference["pairs"])
    _keep_record(out_dir, record)
    print(
        f"host: {json.dumps(record['host'])} load {record['load_average']}; "
        f"probe {record['probe_ms_before']:.2f} -> "
        f"{record['probe_ms_after']:.2f} ms (diagnostic only)"
    )
    return {
        "correct": True,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }


def _keep_record(out_dir: Path, record: dict) -> None:
    """Append the run to ``.joinbench/runs.jsonl`` and warn when the runs
    kept there come from different hosts."""
    path = out_dir / "runs.jsonl"
    earlier = []
    if path.exists():
        with path.open() as handle:
            earlier = [json.loads(line) for line in handle if line.strip()]
    hosts = hosts_differ([*earlier, record])
    if hosts:
        print(
            f"warning: runs in {path.name} come from {len(hosts)} different "
            f"hosts; do not compare them: {hosts}",
            file=sys.stderr,
        )
    with path.open("a") as handle:
        handle.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # a stopped run still stops its phases (see Runner.finish)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(
            "error: run from the root of a checkout (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    try:
        result = run(args, root)
    except Exception as exc:  # any failure: report it and print no result
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in (root / ".joinbench" / "inputs").glob("*"):
            path.unlink()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
