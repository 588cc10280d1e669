"""Span tracer for the benchmark's traced run.

It times calls into each layer's public functions from the outside: the
functions below are replaced with timing wrappers while the traced pass
runs and restored when it ends, so untraced passes run the program's own
code.  A span stack keeps nested calls (the Assigner
calling the router, routing calling the wire codec) from being counted
twice: every span's *self* time is its duration minus its child spans'.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

#: (module, class or None for a module-level function, attribute, span).
#: These are the parent's layers; the Joiners run in the worker, whose
#: time the program's own histograms report.
LAYER_TARGETS = (
    ("repro.topology.partition_creator", "PartitionCreatorBolt", "process", "creator"),
    ("repro.topology.partition_creator", None, "mine_association_groups", "association"),
    ("repro.topology.merger", None, "consolidate_association_groups", "association"),
    ("repro.topology.merger", "MergerBolt", "process", "merger"),
    ("repro.topology.assigner", "AssignerBolt", "process", "assigner"),
    ("repro.partitioning.router", "DocumentRouter", "route", "router"),
    ("repro.topology.messages", "ColumnarWireCodec", "encode_batch", "wire.encode"),
    ("repro.streaming.transport.pipe", "PipeWorkerLink", "stage", "transport.send"),
    ("repro.streaming.transport.pipe", "PipeWorkerLink", "pump", "transport.send"),
    ("repro.streaming.transport.tcp", "SocketWorkerLink", "stage", "transport.send"),
    ("repro.streaming.transport.tcp", "SocketWorkerLink", "pump", "transport.send"),
    ("repro.streaming.transport.pipe", "PipeTransport", "recv", "transport.recv"),
    ("repro.streaming.transport.tcp", "SocketTransport", "recv", "transport.recv"),
)

#: root span: one push_window (or the closing result()) call
PUSH = "push"
#: the stage table's rows, in the order a document meets them
STAGES = (
    "creator",
    "association",
    "merger",
    "assigner",
    "router",
    "wire.encode",
    "transport.send",
    "transport.recv",
)

_MISSING = object()


class Tracer:
    """Self-time accumulator over a stack of open spans."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self.self_seconds: dict[str, float] = {}
        self.frames = 0
        self.frame_bytes = 0

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> float:
        name, start, children = self._stack.pop()
        duration = perf_counter() - start
        self.self_seconds[name] = (
            self.self_seconds.get(name, 0.0) + duration - children
        )
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def wrap(self, span: str, fn, count_frames: bool = False):
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if count_frames:
                self.frames += 1
                self.frame_bytes += result.payload_nbytes
            return result

        return timed

    @contextmanager
    def installed(self):
        """Wrap every layer target for the duration of the block."""
        saved = []
        try:
            for module_name, owner_name, attribute, span in LAYER_TARGETS:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__.get(attribute, _MISSING)
                fn = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(
                    owner,
                    attribute,
                    self.wrap(span, fn, count_frames=span == "wire.encode"),
                )
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attribute)
                else:
                    setattr(owner, attribute, original)


def stage_table(self_seconds: dict[str, float], push_seconds: float, docs: int):
    """Rows ``(stage, seconds, us_per_doc, share)`` whose times, with
    ``ledger.other`` (push time no layer span claimed: executor dispatch,
    barriers, journal, release), add up to ``push_seconds``."""
    rows = [(stage, self_seconds.get(stage, 0.0)) for stage in STAGES]
    other = push_seconds - sum(seconds for _stage, seconds in rows)
    rows.append(("ledger.other", other))
    return [
        (stage, seconds, seconds / docs * 1e6, seconds / push_seconds)
        for stage, seconds in rows
    ]


def format_stage_table(rows, push_seconds: float, docs: int) -> str:
    lines = [f"{'stage':<16}{'us/doc':>10}{'share':>9}"]
    for stage, _seconds, per_doc, share in rows:
        lines.append(f"{stage:<16}{per_doc:>10.2f}{share:>9.1%}")
    total = sum(seconds for _stage, seconds, _per_doc, _share in rows)
    lines.append(
        f"{'push wall':<16}{push_seconds / docs * 1e6:>10.2f}{1:>9.1%}"
        f"   (rows sum to {total / docs * 1e6:.2f})"
    )
    return "\n".join(lines)
