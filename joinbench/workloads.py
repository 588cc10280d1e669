"""Workloads of the stream-join benchmark.

Every workload runs the public :class:`repro.topology.session.StreamJoinSession`
with ``m=8`` and the join switched on, on input the benchmark generates
from its ``--seed``.  The program under test only ever sees JSON lines:
the generators' raw (possibly nested) records are serialized here and
parsed back by :meth:`repro.core.document.Document.from_json` inside the
measured loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterator

#: settings every workload shares (on top of each workload's own)
BASE_CONFIG = {"m": 8, "compute_joins": True}


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``rwData`` (server logs), ``nbData`` (NoBench) or a zoo generator
    dataset: str
    #: StreamJoinConfig settings beyond :data:`BASE_CONFIG`
    config: dict = field(default_factory=dict)
    #: documents per window; with the offered rate, a window lasts 1/8 s
    window_docs: int = 200
    #: offered load of the open loop, in docs/s
    offered_docs_per_s: float = 1600.0

    def measured_windows(self, seconds: float) -> int:
        """Windows a run of ``seconds`` measures (at least 2)."""
        return max(2, round(seconds * self.offered_docs_per_s / self.window_docs))

    def session_config(self, **overrides):
        from repro.topology.pipeline import StreamJoinConfig

        return StreamJoinConfig(**{**BASE_CONFIG, **self.config, **overrides})


#: why each workload is in the benchmark: see ``BENCHMARK.json``.  Every
#: window lasts 1/8 s, so a 13-s run has the 100 windows a p90 needs.
#: Each rate is about half its configuration's capacity on a 2-vCPU Xeon
#: host, so docs_per_s falls below it once the program is about twice
#: as slow, while the host's own slow phases (about 1.5x) leave no
#: backlog.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rw_pipe_paced",
            dataset="rwData",
            config={"backend": "parallel", "transport": "pipe", "workers": 1},
        ),
        Workload(
            name="nb_pipe_paced",
            dataset="nbData",
            config={"backend": "parallel", "transport": "pipe", "workers": 1},
            window_docs=75,
            offered_docs_per_s=600.0,
        ),
        Workload(
            name="zipf_socket_paced",
            dataset="zipf",
            config={"backend": "parallel", "transport": "socket", "workers": 1},
        ),
    )
}


def make_generator(dataset: str, seed: int):
    if dataset == "rwData":
        from repro.data.serverlogs import ServerLogGenerator

        return ServerLogGenerator(seed=seed)
    if dataset == "nbData":
        from repro.data.nobench import NoBenchGenerator

        return NoBenchGenerator(seed=seed)
    from repro.data.zoo import make_zoo_generator

    return make_zoo_generator(dataset, seed=seed)


def json_windows(
    dataset: str, seed: int, n_windows: int, window_docs: int
) -> Iterator[list[str]]:
    """The stream ``DatasetGenerator.next_window`` would produce, as JSON lines.

    ``next_window`` flattens each raw record into a Document; the
    benchmark keeps the raw record instead so nested input reaches the
    program's own JSON parser.  Document ``i`` of the stream gets
    ``doc_id=i``, as ``next_window`` assigns it.
    """
    generator = make_generator(dataset, seed)
    rng = generator._rng
    for _ in range(n_windows):
        index = generator._window_index
        generator._on_window_start(rng, index)
        yield [
            json.dumps(generator._make_record(rng, index))
            for _ in range(window_docs)
        ]
        generator._window_index += 1
        generator._next_doc_id += window_docs


def write_input(path: Path, workload: Workload, seed: int, n_windows: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with tmp.open("w") as out:
        for lines in json_windows(
            workload.dataset, seed, n_windows, workload.window_docs
        ):
            out.write("\n".join(lines))
            out.write("\n")
    tmp.replace(path)


def read_windows(handle, window_docs: int) -> Iterator[list[str]]:
    """Successive windows of JSON lines from an open input file."""
    while True:
        lines = list(islice(handle, window_docs))
        if not lines:
            return
        yield lines


def parse_window(lines: list[str], first_doc_id: int) -> list:
    """Ingest: one window of JSON lines into Documents."""
    from repro.core.document import Document

    from_json = Document.from_json
    return [from_json(line, first_doc_id + i) for i, line in enumerate(lines)]
