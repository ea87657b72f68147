"""Integer-array kernels shared by the corpus, blocking and graph layers."""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D integer array, ascending, by one sort.

    Same result as ``np.unique(values)``.  NumPy 2's hash-based
    ``np.unique`` is pathologically slow on packed ``(high << 31) | low``
    codes: on dbp (4k profiles) 87 ms against 2 ms for this sort on the
    141k ``(profile, token)`` codes, and 477 ms against 10 ms on the 627k
    packed comparison pairs.
    """
    ordered = np.sort(values)
    if ordered.size:
        ordered = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    return ordered


def segment_positions(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather plan that concatenates segments of a flat array.

    Segment *k* is ``source[starts[k] : starts[k] + counts[k]]``.  Returns
    ``(flat, ptr)``: ``source[flat]`` is the concatenation, and segment *k*
    lands at ``ptr[k] : ptr[k + 1]`` of it (both ``int64``).
    """
    ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    flat = np.repeat(starts - ptr[:-1], counts) + np.arange(ptr[-1], dtype=np.int64)
    return flat, ptr
