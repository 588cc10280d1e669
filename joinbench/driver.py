"""One phase of a benchmark run, in a fresh process.

``run.py`` starts this script once per phase, with ``PYTHONHASHSEED``
pinned and ``src`` on the path; each phase prints one JSON object as its
last stdout line:

* ``gen``       -- write the workload's input file (JSON lines) from the seed;
* ``setup``     -- time one set-up: session construction, worker spawn and
  the first (warm-up) window; the session is the first one this process
  builds, so interpreter and import caches are cold the same way each time;
* ``measure``   -- set up (one more set-up sample), then push the measured
  windows on the workload's open-loop schedule and close;
  ``--observability`` turns the program's metric registry on, and
  ``--trace`` (which needs it) pushes the windows under the span tracer
  and reports per-layer figures;
* ``reference`` -- the untimed reference pass on the local backend;
* ``expected``  -- an independent single-node join of every window, which
  the reference pass's pairs must equal (see ``check.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import workloads as wl


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def _start_session(workload: wl.Workload, windows, **overrides):
    """Construct the session and push the warm-up window (window 0)."""
    from repro.topology.session import StreamJoinSession

    start = perf_counter()
    session = StreamJoinSession(workload.session_config(**overrides))
    session.push_window(wl.parse_window(next(windows), 0))
    return session, perf_counter() - start


def phase_gen(workload: wl.Workload, args) -> None:
    wl.write_input(Path(args.input), workload, args.seed, args.windows)
    _emit({"windows": args.windows})


def phase_setup(workload: wl.Workload, args) -> None:
    with open(args.input) as handle:
        session, setup_s = _start_session(
            workload, wl.read_windows(handle, workload.window_docs)
        )
        session.result()
    _emit({"setup_s": setup_s})


# ----------------------------------------------------------------------
# measured run
# ----------------------------------------------------------------------
def rss_peak_mb() -> float:
    """Peak resident set of this process plus that of its largest child
    (the worker), once the session has reaped it."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024


class _Finalized:
    """When the driver first holds each window's finalized metrics."""

    def __init__(self) -> None:
        self.at: dict[int, float] = {}
        self._next = 1

    def observe(self, metrics, now: float) -> None:
        # windows finalize in order (emission release is seq-ordered),
        # so metrics for window w mean every window up to w is final
        if metrics is None:
            return
        while self._next <= metrics.window:
            self.at[self._next] = now
            self._next += 1

    def close(self, last_window: int, now: float) -> None:
        while self._next <= last_window:
            self.at[self._next] = now
            self._next += 1


def busy_ms(start: float, stop: float, idle) -> float:
    """Milliseconds from ``start`` to ``stop``, less the pacer's sleep.

    A pipelined session hands a window's metrics back from a later
    push_window, which the pacer holds until that window is due; the
    sleep in between is the driver's idle time, not the program's.
    """
    slept = sum(max(0.0, min(b, stop) - max(a, start)) for a, b in idle)
    return (stop - start - slept) * 1e3


def phase_measure(workload: wl.Workload, args) -> None:
    from tracer import PUSH, Tracer, format_stage_table, stage_table

    tracer = Tracer() if args.trace else None
    n = args.windows
    W = workload.window_docs
    rate = workload.offered_docs_per_s
    due: dict[int, float] = {}
    #: (start, end) of every pause the pacer slept
    idle: list[tuple[float, float]] = []
    late: list[float] = []
    spans: list[dict] = []
    finalized = _Finalized()
    ingest_s = 0.0
    #: wall time inside push_window and the closing result()
    push_s = 0.0

    def timed_push(call, *args):
        nonlocal push_s
        start = perf_counter()
        if tracer:
            tracer.enter(PUSH)
            out = call(*args)
            push_s += tracer.exit()
        else:
            out = call(*args)
            push_s += perf_counter() - start
        return out

    with open(args.input) as handle:
        windows = wl.read_windows(handle, W)
        session, setup_s = _start_session(
            workload, windows, observability=args.observability
        )
        baseline = session.observability() if args.trace else None
        # open loop: document j of the measured stream is created at
        # schedule + j / rate, and a window is due when its last document
        # has been created
        schedule = perf_counter() + 0.05
        with tracer.installed() if tracer else nullcontext():
            for k in range(1, n + 1):
                lines = next(windows)
                due[k] = schedule + (k * W - 1) / rate
                pause = due[k] - perf_counter()
                if pause > 0:
                    t_sleep = perf_counter()
                    time.sleep(pause)
                    idle.append((t_sleep, perf_counter()))
                before = dict(tracer.self_seconds) if tracer else None
                t_ingest = perf_counter()
                documents = wl.parse_window(lines, k * W)
                t_push = perf_counter()
                late.append(t_push - due[k])
                metrics = timed_push(session.push_window, documents)
                now = perf_counter()
                finalized.observe(metrics, now)
                ingest_s += t_push - t_ingest
                if tracer:
                    spans.append(
                        {
                            "window": k,
                            "due_s": due[k] - schedule,
                            "ingest_s": t_push - t_ingest,
                            "push_s": now - t_push,
                            "finalized_through": metrics.window if metrics else None,
                            "self_s": {
                                name: seconds - before.get(name, 0.0)
                                for name, seconds in tracer.self_seconds.items()
                                if seconds != before.get(name, 0.0)
                            },
                        }
                    )
            result = timed_push(session.result)
            end = perf_counter()
    finalized.close(n, end)

    measured = [w for w in result.per_window if w.window >= 1]
    attempted = n * W
    delivered = sum(w.documents for w in measured)
    stats = result.tuple_stats
    out = {
        "setup_s": setup_s,
        # delivered documents over the span from the first document's
        # creation to the last result: below the offered rate only when
        # a backlog grows
        "docs_per_s": delivered / (end - schedule),
        "window_ms": [
            busy_ms(due[k], finalized.at[k], idle) for k in range(1, n + 1)
        ],
        "late_ms": [x * 1e3 for x in late],
        "push_s": push_s,
        "rss_peak_mb": rss_peak_mb(),
        "attempted": attempted,
        "delivered": delivered,
        "failed": attempted - delivered + stats["dead_letters"] + stats["shed_tuples"],
        "discoveries": [w.join_pairs for w in result.per_window],
    }
    if tracer:
        rows = stage_table(tracer.self_seconds, push_s, attempted)
        out["stage_table"] = format_stage_table(rows, push_s, attempted)
        out["layers"] = _layer_metrics(
            tracer, result, baseline, measured, ingest_s, push_s, late,
            end - schedule,
        )
        with open(args.trace_out, "w") as trace_file:
            for span in spans:
                trace_file.write(json.dumps(span) + "\n")
    _emit(out)


def _histogram_sum(snapshot, prefix: str) -> float:
    return sum(
        data["sum"]
        for name, data in snapshot.histograms.items()
        if name.split("{")[0] == prefix
    )


def _counter(snapshot, prefix: str) -> int:
    return sum(
        value
        for name, value in snapshot.counters.items()
        if name.split("{")[0] == prefix
    )


def _layer_metrics(
    tracer, result, baseline, measured, ingest_s, push_s, late, wall
) -> dict:
    """Per-layer figures of a traced run: parent self times from the span
    tracer, worker-side joiner time and exact counts from the program's
    own observability snapshot (the warm-up window subtracted)."""
    from repro.obs.registry import subtract_snapshot

    obs = subtract_snapshot(result.observability, baseline)
    self_s = tracer.self_seconds
    docs = sum(w.documents for w in measured)
    windows = len(measured)

    def us(seconds: float) -> float:
        return seconds / docs * 1e6

    attributed = sum(
        seconds for name, seconds in self_s.items() if name != "push"
    )
    probes = _counter(obs, "joiner.probes")
    joiner_busy = obs.histograms.get(
        "executor.execute_seconds{component=joiner}", {}
    ).get("sum", 0.0)
    return {
        "ingest.parse_us_per_doc": us(ingest_s),
        "creator.us_per_doc": us(self_s.get("creator", 0.0)),
        "association.us_per_doc": us(self_s.get("association", 0.0)),
        "merger.ms_per_window": self_s.get("merger", 0.0) / windows * 1e3,
        "merger.repartitions": sum(
            1 for w in result.repartition_windows if w >= 1
        ),
        "assigner.us_per_doc": us(
            self_s.get("assigner", 0.0) + self_s.get("router", 0.0)
        ),
        "router.replication": sum(w.replication * w.documents for w in measured)
        / docs,
        "router.broadcast_share": sum(
            w.broadcast_fraction * w.documents for w in measured
        )
        / docs,
        "wire.encode_us_per_doc": us(self_s.get("wire.encode", 0.0)),
        "wire.bytes_per_doc": tracer.frame_bytes / docs,
        "transport.send_us_per_doc": us(self_s.get("transport.send", 0.0)),
        "transport.frames_per_window": tracer.frames / windows,
        "transport.recv_wait_us_per_doc": us(self_s.get("transport.recv", 0.0)),
        # the joiners run in the worker: their time comes from the
        # program's own histograms, merged back into the snapshot
        "joiner.insert_us_per_doc": us(_histogram_sum(obs, "joiner.insert_seconds")),
        "joiner.probe_us_per_doc": us(_histogram_sum(obs, "joiner.probe_seconds")),
        "joiner.partners_per_probe": (
            _counter(obs, "joiner.partners") / probes if probes else 0.0
        ),
        "joiner.busy_share": joiner_busy / wall,
        "ledger.other_us_per_doc": us(push_s - attributed),
        "ledger.coverage": attributed / push_s,
        "driver.late_p90_ms": statistics.quantiles(late, n=10)[-1] * 1e3,
    }


# ----------------------------------------------------------------------
# reference pass
# ----------------------------------------------------------------------
def phase_reference(workload: wl.Workload, args) -> None:
    from check import OutputMismatch, reference_digests

    W = workload.window_docs
    with open(args.input) as handle:
        windows = wl.read_windows(handle, W)
        session, _setup = _start_session(
            workload, windows, backend="local", collect_pairs=True
        )
        for k in range(1, args.windows + 1):
            session.push_window(wl.parse_window(next(windows), k * W))
        result = session.result()
    try:
        digests = reference_digests(result.join_pairs, args.windows + 1, W)
    except OutputMismatch as exc:
        _emit({"error": f"reference pass: {exc}"})
        return
    _emit(
        {
            "discoveries": [w.join_pairs for w in result.per_window],
            "pairs": digests,
        }
    )


def phase_expected(workload: wl.Workload, args) -> None:
    from check import expected_digests

    W = workload.window_docs
    with open(args.input) as handle:
        windows = (
            wl.parse_window(lines, k * W)
            for k, lines in enumerate(wl.read_windows(handle, W))
            if k <= args.windows
        )
        _emit({"pairs": expected_digests(windows)})


PHASES = {
    "gen": phase_gen,
    "setup": phase_setup,
    "measure": phase_measure,
    "reference": phase_reference,
    "expected": phase_expected,
}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=sorted(PHASES))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--input", required=True)
    parser.add_argument("--windows", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--observability", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if args.trace and not args.observability:
        parser.error("--trace needs --observability (worker joiner histograms)")
    PHASES[args.phase](wl.WORKLOADS[args.workload], args)


if __name__ == "__main__":
    main()
