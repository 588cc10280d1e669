"""Output check: every timed run against one untimed reference pass.

The reference pass pushes the same windows through the local backend —
the program's deterministic reference executor — with
``collect_pairs=True``.  Its distinct pairs, split by window, must equal
an independent single-node join of each window
(``join_window(HashJoiner(), window)``), computed in a second process
beside it.  Every timed pass's per-window discovery counts (pairs found
summed over Joiners, duplicates included) must equal the reference's:
they repeat exactly under a pinned hash seed, on every backend.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict


class OutputMismatch(Exception):
    """A run's output differs from the reference."""


def window_digests(per_window_pairs) -> list[list]:
    """``[distinct pair count, digest]`` of each window's pair set."""
    return [
        [
            len(pairs),
            hashlib.sha256(
                repr(sorted((p.left, p.right) for p in pairs)).encode()
            ).hexdigest(),
        ]
        for pairs in per_window_pairs
    ]


def reference_digests(pairs, n_windows: int, window_docs: int) -> list[list]:
    """Digests of collected join pairs, split by the window their
    documents share (document ``i`` belongs to window ``i // window_docs``)."""
    split: dict[int, set] = defaultdict(set)
    for pair in pairs:
        window = pair.left // window_docs
        if pair.right // window_docs != window or window >= n_windows:
            raise OutputMismatch(f"pair {pair} is outside every pushed window")
        split[window].add(pair)
    return window_digests(split.get(k, set()) for k in range(n_windows))


def expected_digests(windows) -> list[list]:
    """Digests of an independent single-node join of each window."""
    from repro.join.base import join_result_set
    from repro.join.hash_join import HashJoiner

    return window_digests(
        join_result_set(HashJoiner(), documents) for documents in windows
    )


def check_pairs(reference: list[list], expected: list[list]) -> None:
    if len(reference) != len(expected):
        raise OutputMismatch(
            f"reference has {len(reference)} windows, expected {len(expected)}"
        )
    for index, (got, want) in enumerate(zip(reference, expected)):
        if got != want:
            raise OutputMismatch(
                f"window {index}: the reference pass finds {got[0]} distinct "
                f"pairs, the single-node join {want[0]}"
                + (" (same count, different pairs)" if got[0] == want[0] else "")
            )


def check_discoveries(run: list[int], reference: list[int]) -> None:
    if len(run) != len(reference):
        raise OutputMismatch(
            f"{len(run)} finalized windows, the reference has {len(reference)}"
        )
    for index, (got, expected) in enumerate(zip(run, reference)):
        if got != expected:
            raise OutputMismatch(
                f"window {index}: {got} join discoveries, the reference "
                f"has {expected}"
            )
