"""Import budget of a fresh interpreter, and networkx as an optional extra.

Every socket worker start (first spawn, respawn, elastic scale-up) is a
new ``python -m repro.worker`` interpreter, so whatever it imports is
paid on each start.  These tests run fresh interpreters in
subprocesses, so modules this test process already holds do not hide
an import.
"""

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

#: modules a socket worker has no use for: the KL baseline and its
#: dependency, the parent-side stack, and the pipe transport's shared
#: memory
WORKER_MUST_NOT_LOAD = (
    "networkx",
    "repro.partitioning.graph",
    "repro.streaming.parallel",
    "repro.streaming.executor",
    "repro.streaming.transport.pipe",
    "repro.topology.pipeline",
    "repro.topology.session",
    "repro.experiments",
    "repro.data",
    "repro.soak",
    "repro.cli",
    "multiprocessing.shared_memory",
)


def run_fresh(code: str, stdin: bytes = b"") -> str:
    """Run ``code`` in a fresh interpreter with this checkout's source."""
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        input=stdin,
        capture_output=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout.decode()


def loaded_modules(code: str, stdin: bytes = b"") -> set[str]:
    out = run_fresh(
        textwrap.dedent(code)
        + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))",
        stdin,
    )
    return set(json.loads(out.splitlines()[-1]))


@pytest.fixture(scope="module")
def socket_worker_init() -> bytes:
    """The first frame a socket worker receives, pickled as the parent
    sends it, for the benchmark's socket configuration."""
    from repro.topology.pipeline import StreamJoinConfig, build_topology, make_cluster

    config = StreamJoinConfig(
        m=8,
        compute_joins=True,
        backend="parallel",
        transport="socket",
        workers=1,
        observability=True,
    )
    cluster = make_cluster(config, build_topology(config, []))
    try:
        return pickle.dumps(cluster._worker_init(cluster._workers[0]))
    finally:
        cluster.close()


class TestWorkerImportBudget:
    def test_worker_loads_only_what_it_runs(self, socket_worker_init):
        loaded = loaded_modules(
            """
            import pickle, sys
            import repro.worker
            init = pickle.loads(sys.stdin.buffer.read())
            assert type(init.tasks[("joiner", 0)]).__name__ == "JoinerBolt"
            """,
            socket_worker_init,
        )
        # the unpickled tasks did load the worker's own stack
        assert {"repro.topology.joiner", "repro.join.fptree_join"} <= loaded
        assert sorted(loaded & set(WORKER_MUST_NOT_LOAD)) == []

    def test_import_repro_loads_no_submodule(self):
        loaded = loaded_modules("import repro")
        assert "networkx" not in loaded
        assert sorted(m for m in loaded if m.startswith("repro.")) == ["repro._lazy"]


class TestLazyPackages:
    PACKAGES = (
        "repro",
        "repro.core",
        "repro.data",
        "repro.join",
        "repro.metrics",
        "repro.partitioning",
        "repro.streaming",
        "repro.streaming.transport",
        "repro.topology",
    )

    @pytest.mark.parametrize("package", PACKAGES)
    def test_dir_lists_all_before_first_use(self, package):
        missing = run_fresh(
            f"""
            import importlib
            package = importlib.import_module({package!r})
            print(sorted(set(package.__all__) - set(dir(package))))
            """
        )
        assert missing.strip() == "[]"

    def test_fptree_join_stays_the_function(self):
        # the name is also a submodule, which must not shadow it
        out = run_fresh(
            """
            import repro.join.fptree_join
            from repro.join import fptree_join
            from repro import fptree_join as top
            print(callable(fptree_join), fptree_join is top)
            """
        )
        assert out.split() == ["True", "True"]

    def test_submodules_resolve_as_attributes(self):
        out = run_fresh(
            """
            import repro
            print(repro.core.document.Document is repro.Document)
            """
        )
        assert out.strip() == "True"

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'NoSuchName'"):
            repro.NoSuchName  # noqa: B018
        assert not hasattr(repro.topology, "no_such_module")

    def test_builtin_transports_register_on_first_lookup(self):
        out = run_fresh(
            """
            from repro.streaming.transport import available_transports
            print(" ".join(available_transports()))
            """
        )
        assert out.split() == ["pipe", "socket"]


class TestNetworkxIsOptional:
    """Without networkx, everything but the KL baseline works."""

    def test_without_networkx(self):
        out = run_fresh(
            """
            import sys
            sys.modules["networkx"] = None  # makes `import networkx` fail

            import repro
            from repro import (
                Document,
                KernighanLinPartitioner,
                StreamJoinConfig,
                run_stream_join,
            )

            docs = [
                Document({"user": "A", "sev": "warn"}, doc_id=0),
                Document({"user": "A", "msg": 2}, doc_id=1),
                Document({"ip": "x", "sev": "warn"}, doc_id=2),
            ]
            result = run_stream_join(
                StreamJoinConfig(
                    m=2, algorithm="AG", compute_joins=True, collect_pairs=True
                ),
                [docs],
            )
            print(sorted(map(tuple, result.join_pairs)))
            try:
                KernighanLinPartitioner().create_partitions(docs, 2)
            except ImportError as exc:
                print("KL:", exc)
            """
        )
        pairs, kl = out.strip().splitlines()
        assert pairs == "[(0, 1), (0, 2)]"
        assert "networkx" in kl and "repro[graph]" in kl
