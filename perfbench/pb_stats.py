"""The benchmark's own arithmetic: quantiles, self time, failure share.

Pure functions with no dependency on the program under test, so the
tests in ``test_perfbench.py`` pin them down exactly.
"""

from __future__ import annotations

import math


def quantile(values, q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least
    ``q * n`` samples at or below it (``q`` in (0, 1])."""
    if not values:
        raise ValueError("quantile of an empty sample")
    if not 0 < q <= 1:
        raise ValueError(f"quantile level must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def samples_beyond(values, threshold: float) -> int:
    """How many samples lie strictly above ``threshold``."""
    return sum(1 for value in values if value > threshold)


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, counting
    overlaps once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of ``[start, end]`` its child
    spans cover.  Children may nest, overlap each other (work on other
    threads or processes) or stick out of the parent; only their
    union inside the parent's interval is subtracted."""
    clipped = [(max(start, c_start), min(end, c_end))
               for c_start, c_end in children]
    return (end - start) - union_length(clipped)


def failed_frac(outcomes) -> float:
    """Share of attempted operations that did not succeed.

    ``outcomes`` holds one label per attempted operation: ``"ok"`` for
    a correct reply, anything else (an error code, ``"refused"``,
    ``"timeout"``) for a failure.  Refused and timed-out operations
    count as attempted, so they can never shrink the denominator."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("no operations were attempted")
    return sum(1 for o in outcomes if o != "ok") / len(outcomes)
