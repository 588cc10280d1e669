"""Tests of the benchmark's own machinery.

    python3 -m pytest joinbench -q
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import driver  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _typed(document) -> tuple:
    """A document as id plus typed pairs (``1 == True`` must not pass)."""
    return (
        document.doc_id,
        sorted((a, type(v).__name__, v) for a, v in document.pairs.items()),
    )


@pytest.mark.parametrize("dataset", ["rwData", "nbData", "zipf"])
def test_input_is_a_pure_function_of_the_seed(dataset):
    first = list(wl.json_windows(dataset, 5, 3, 40))
    again = list(wl.json_windows(dataset, 5, 3, 40))
    other = list(wl.json_windows(dataset, 6, 3, 40))
    assert first == again
    assert first != other


@pytest.mark.parametrize("dataset", ["rwData", "nbData", "zipf"])
def test_json_lines_parse_back_to_the_generated_documents(dataset):
    windows = list(wl.json_windows(dataset, 3, 3, 50))
    generator = wl.make_generator(dataset, 3)
    for index, lines in enumerate(windows):
        expected = generator.next_window(50)
        parsed = wl.parse_window(lines, index * 50)
        assert [_typed(d) for d in parsed] == [_typed(d) for d in expected]
    if dataset == "nbData":
        # nested records reach the parser nested
        assert any('"nested_obj": {' in line for line in windows[0])


def _reference_run(n_windows: int = 3, size: int = 60):
    from repro.topology.pipeline import StreamJoinConfig
    from repro.topology.session import StreamJoinSession

    windows = [
        wl.parse_window(lines, k * size)
        for k, lines in enumerate(wl.json_windows("rwData", 2, n_windows, size))
    ]
    session = StreamJoinSession(
        StreamJoinConfig(m=4, compute_joins=True, collect_pairs=True)
    )
    for documents in windows:
        session.push_window(documents)
    return session.result(), windows, size


def test_output_check_accepts_the_program_and_rejects_a_missing_pair():
    result, windows, size = _reference_run()
    pairs = set(result.join_pairs)
    assert pairs
    expected = check.expected_digests(windows)
    check.check_pairs(check.reference_digests(pairs, len(windows), size), expected)
    pairs.discard(next(iter(pairs)))
    with pytest.raises(check.OutputMismatch, match="distinct pairs"):
        check.check_pairs(
            check.reference_digests(pairs, len(windows), size), expected
        )


def test_discovery_counts_must_match_the_reference():
    check.check_discoveries([3, 4, 5], [3, 4, 5])
    with pytest.raises(check.OutputMismatch, match="window 1"):
        check.check_discoveries([3, 3, 5], [3, 4, 5])
    with pytest.raises(check.OutputMismatch):
        check.check_discoveries([3, 4], [3, 4, 5])


def _originals():
    import importlib

    found = []
    for module_name, owner_name, attribute, _span in tracer.LAYER_TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        found.append(owner.__dict__.get(attribute))
    return found


def test_tracer_restores_every_target_even_on_error():
    before = _originals()
    spans = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed():
            during = _originals()
            raise RuntimeError("boom")
    assert all(a is not b for a, b in zip(during, before))
    assert _originals() == before


def test_self_times_do_not_count_nested_spans_twice():
    spans = tracer.Tracer()
    spans.enter("push")
    spans.enter("assigner")
    spans.enter("router")
    spans.exit()
    spans.exit()
    total = spans.exit()
    assert sum(spans.self_seconds.values()) == pytest.approx(total, abs=1e-9)
    rows = tracer.stage_table(spans.self_seconds, total, 10)
    assert sum(row[1] for row in rows) == pytest.approx(total, abs=1e-12)
    assert rows[-1][0] == "ledger.other"


def test_window_latency_leaves_out_the_pacers_sleep():
    # due at 10.0, finalized at 10.5; the pacer slept 10.1-10.4 before
    # the push that finalized it, and earlier pauses do not overlap
    idle = [(9.0, 10.0), (10.1, 10.4), (10.6, 10.9)]
    assert driver.busy_ms(10.0, 10.5, idle) == pytest.approx(200.0)
    assert driver.busy_ms(10.0, 10.05, idle) == pytest.approx(50.0)


def test_traced_run_leaves_no_layer_function_wrapped(tmp_path, capsys):
    before = _originals()
    workload = wl.WORKLOADS["rw_pipe_paced"]
    path = tmp_path / "input.jsonl"
    wl.write_input(path, workload, seed=1, n_windows=3)
    args = argparse.Namespace(
        input=str(path), windows=2, trace=True, observability=True,
        trace_out=str(tmp_path / "spans.jsonl"),
    )
    driver.phase_measure(workload, args)
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert _originals() == before
    # the stage rows plus ledger.other are the push wall time
    assert out["layers"]["ledger.coverage"] <= 1.0
    spans = [json.loads(line) for line in open(tmp_path / "spans.jsonl")]
    assert [span["window"] for span in spans] == [1, 2]
